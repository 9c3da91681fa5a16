#include "trace/trace.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "net/fault_injector.hpp"
#include "sim/actor.hpp"
#include "sim/road.hpp"
#include "sim/types.hpp"
#include "sim/world.hpp"
#include "util/csv.hpp"

namespace rdsim::trace {

double EgoSample::speed() const { return std::sqrt(vx * vx + vy * vy + vz * vz); }

std::vector<RunTrace::FaultWindow> RunTrace::fault_windows() const {
  std::vector<FaultWindow> out;
  std::optional<FaultWindow> open;
  for (const FaultRecord& f : faults) {
    if (f.added) {
      if (open) {
        open->stop = f.t;
        out.push_back(*open);
      }
      open = FaultWindow{f.fault_type, f.value, f.label, f.t, f.t};
    } else if (open && open->fault_type == f.fault_type && open->value == f.value) {
      open->stop = f.t;
      out.push_back(*open);
      open.reset();
    }
  }
  if (open) {
    open->stop = ego.empty() ? open->start : ego.back().t;
    out.push_back(*open);
  }
  return out;
}

std::vector<double> RunTrace::steering_series() const {
  std::vector<double> out;
  out.reserve(ego.size());
  for (const EgoSample& s : ego) out.push_back(s.steer);
  return out;
}

std::vector<double> RunTrace::time_series() const {
  std::vector<double> out;
  out.reserve(ego.size());
  for (const EgoSample& s : ego) out.push_back(s.t);
  return out;
}

namespace {

/// The column names of a Row's walk, in order.
template <typename Row>
std::vector<std::string> column_names() {
  std::vector<std::string> names;
  const Row probe{};
  fields(probe, [&names](const char* name, const auto&) { names.emplace_back(name); });
  return names;
}

/// One cell per walked field: integers as integers, doubles through
/// format_number, strings quoted where they must be.
template <typename Row>
void write_fields(util::CsvWriter& w, const Row& row) {
  fields(row, [&w](const char*, const auto& v) {
    if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(v)>>) {
      w.field(static_cast<std::int64_t>(v));
    } else {
      w.field(v);
    }
  });
}

template <typename Row>
void write_table(const std::vector<Row>& rows, std::ostream& out) {
  util::CsvWriter w{out};
  w.write_row(column_names<Row>());
  for (const Row& row : rows) {
    write_fields(w, row);
    w.end_row();
  }
}

void write_events_table(const RunTrace& trace, std::ostream& out) {
  util::CsvWriter w{out};
  w.write_row({"event", "t", "frame", "a", "b", "c"});
  for (const CollisionRecord& c : trace.collisions) {
    w.field("collision");
    write_fields(w, c);
    w.end_row();
  }
  for (const LaneInvasionRecord& l : trace.lane_invasions) {
    w.field("lane_invasion");
    write_fields(w, l);
    w.end_row();
  }
  for (const FaultRecord& f : trace.faults) {
    w.field("fault")
        .field(f.t)
        .field(static_cast<std::int64_t>(0))
        .field(f.fault_type)
        .field(f.value)
        .field(f.added ? "added" : "deleted");
    w.end_row();
  }
}

}  // namespace

void RunTrace::write_csv(std::ostream& ego_out, std::ostream& others_out,
                         std::ostream& events_out) const {
  write_table(ego, ego_out);
  write_table(others, others_out);
  write_events_table(*this, events_out);
}

std::string RunTrace::ego_csv() const {
  std::ostringstream os;
  write_table(ego, os);
  return os.str();
}

std::string RunTrace::others_csv() const {
  std::ostringstream os;
  write_table(others, os);
  return os.str();
}

std::string RunTrace::events_csv() const {
  std::ostringstream os;
  write_events_table(*this, os);
  return os.str();
}

namespace {

/// One of the three trace tables, checked so that every row has a cell under
/// every header column: a column found by `column` then indexes any row.
class TraceTable {
 public:
  TraceTable(std::string_view text, const char* name)
      : csv_{util::CsvTable::parse(text)}, name_{name} {
    const std::size_t width = csv_.header().size();
    for (std::size_t i = 0; i < csv_.row_count(); ++i) {
      if (csv_.row(i).size() < width) {
        throw std::invalid_argument{std::string{name_} + " CSV row " +
                                    std::to_string(i + 1) + " has no '" +
                                    csv_.header()[csv_.row(i).size()] + "' cell"};
      }
    }
  }

  /// Index of a column that write_csv writes; throws if the header lacks it.
  int column(std::string_view name) const {
    const int c = csv_.column(name);
    if (c < 0) {
      throw std::invalid_argument{std::string{name_} + " CSV has no '" +
                                  std::string{name} + "' column"};
    }
    return c;
  }

  std::size_t rows() const { return csv_.row_count(); }
  const std::string& text(std::size_t row, int col) const {
    return csv_.row(row)[static_cast<std::size_t>(col)];
  }

  /// The cell as a T; throws unless the whole cell is a number in T's range.
  template <typename T = double>
  T number(std::size_t row, int col) const {
    const std::optional<T> value = util::parse_number<T>(text(row, col));
    if (value) return *value;
    reject(row, col,
           std::is_floating_point_v<T> ? "not a number" : "not an integer in range");
  }

  /// Throws for the cell at (row, col), which is `what`.
  [[noreturn]] void reject(std::size_t row, int col, std::string_view what) const {
    throw std::invalid_argument{
        std::string{name_} + " CSV row " + std::to_string(row + 1) + " column '" +
        csv_.header()[static_cast<std::size_t>(col)] + "' holds '" + text(row, col) +
        "', which is " + std::string{what}};
  }

  /// Row `row` as a Row, its k-th walked field read from column `cols[k]`.
  template <typename Row>
  Row read(std::size_t row, const std::vector<int>& cols) const {
    Row out;
    std::size_t k = 0;
    fields(out, [&](const char*, auto& v) {
      using T = std::remove_cvref_t<decltype(v)>;
      const int col = cols[k++];
      if constexpr (std::is_same_v<T, std::string>) {
        v = text(row, col);
      } else {
        v = number<T>(row, col);
      }
    });
    return out;
  }

 private:
  util::CsvTable csv_;
  const char* name_;
};

/// The fault kind net::to_string names `word`, if any.
std::optional<net::FaultKind> fault_kind_named(std::string_view word) {
  for (const net::FaultKind kind :
       {net::FaultKind::kNone, net::FaultKind::kDelay, net::FaultKind::kPacketLoss}) {
    if (net::to_string(kind) == word) return kind;
  }
  return std::nullopt;
}

/// The column of each walked field of a Row, found by its name.
template <typename Row>
std::vector<int> columns_of(const TraceTable& table) {
  std::vector<int> cols;
  for (const std::string& name : column_names<Row>()) cols.push_back(table.column(name));
  return cols;
}

}  // namespace

RunTrace RunTrace::from_csv(const std::string& ego_csv, const std::string& others_csv,
                            const std::string& events_csv) {
  RunTrace t;
  {
    const TraceTable table{ego_csv, "ego"};
    const std::vector<int> cols = columns_of<EgoSample>(table);
    for (std::size_t i = 0; i < table.rows(); ++i) {
      const EgoSample s = table.read<EgoSample>(i, cols);
      // The analyzers pair ego rows in time order; reject the file instead.
      if (i > 0 && !(s.t >= t.ego.back().t)) {
        std::ostringstream msg;
        msg << "ego row " << i + 1 << " has t = " << s.t << ", earlier than row " << i
            << "'s t = " << t.ego.back().t << "; ego rows must be in time order";
        throw std::invalid_argument{msg.str()};
      }
      t.ego.push_back(s);
    }
  }
  {
    const TraceTable table{others_csv, "others"};
    const std::vector<int> cols = columns_of<OtherSample>(table);
    for (std::size_t i = 0; i < table.rows(); ++i) {
      t.others.push_back(table.read<OtherSample>(i, cols));
    }
  }
  {
    const TraceTable table{events_csv, "events"};
    const int cev = table.column("event");
    // Collision and lane-invasion rows: their walked fields, in order.
    const std::vector<int> cols = {table.column("t"), table.column("frame"),
                                   table.column("a"), table.column("b"),
                                   table.column("c")};
    const int ct = cols[0], ca = cols[2], cb = cols[3], cc = cols[4];
    for (std::size_t i = 0; i < table.rows(); ++i) {
      const std::string& kind = table.text(i, cev);
      if (kind == "collision") {
        t.collisions.push_back(table.read<CollisionRecord>(i, cols));
      } else if (kind == "lane_invasion") {
        t.lane_invasions.push_back(table.read<LaneInvasionRecord>(i, cols));
      } else if (kind == "fault") {
        FaultRecord f;
        f.t = table.number(i, ct);
        f.fault_type = table.text(i, ca);
        const std::optional<net::FaultKind> fault_kind = fault_kind_named(f.fault_type);
        if (!fault_kind) table.reject(i, ca, "not a fault type (none, delay or loss)");
        f.value = table.number(i, cb);
        const std::string& added = table.text(i, cc);
        if (added != "added" && added != "deleted") {
          table.reject(i, cc, "neither 'added' nor 'deleted'");
        }
        f.added = added == "added";
        f.label = net::FaultSpec{*fault_kind, f.value}.label();
        t.faults.push_back(f);
      } else {
        table.reject(i, cev, "not collision, lane_invasion or fault");
      }
    }
  }
  return t;
}

TraceRecorder::TraceRecorder(std::string run_id, std::string subject, bool fault_injected,
                             double sample_hz)
    : interval_s_{sample_hz > 0.0 ? 1.0 / sample_hz : 0.05} {
  trace_.run_id = std::move(run_id);
  trace_.subject = std::move(subject);
  trace_.fault_injected_run = fault_injected;
}

void TraceRecorder::step(const sim::World& world) {
  const double t = world.now().to_seconds();

  // Sensor events are ingested continuously.
  const auto& cols = world.collisions();
  for (std::size_t i = collisions_seen_; i < cols.size(); ++i) {
    const auto& ev = cols[i];
    trace_.collisions.push_back({ev.time.to_seconds(), ev.frame, ev.other,
                                 sim::to_string(ev.other_kind), ev.relative_speed});
  }
  collisions_seen_ = cols.size();

  const auto& invs = world.lane_invasions();
  for (std::size_t i = invasions_seen_; i < invs.size(); ++i) {
    const auto& ev = invs[i];
    trace_.lane_invasions.push_back(
        {ev.time.to_seconds(), ev.frame,
         ev.marking == sim::LaneMarking::kSolid ? "solid" : "broken", ev.from_lane,
         ev.to_lane});
  }
  invasions_seen_ = invs.size();

  if (t + 1e-9 < next_sample_t_) return;
  next_sample_t_ = t + interval_s_;

  const sim::Actor& ego = world.ego();
  const sim::KinematicState& st = ego.state();
  const sim::VehicleControl& ctl = ego.vehicle().control();
  trace_.ego.push_back({.t = t, .frame = world.frame_counter(), .x = st.position.x,
                        .y = st.position.y, .z = st.z, .vx = st.velocity.x,
                        .vy = st.velocity.y, .ax = st.accel.x, .ay = st.accel.y,
                        .throttle = ctl.throttle, .steer = ctl.steer,
                        .brake = ctl.brake});

  for (const auto& actor : world.actors()) {
    if (actor->id() == ego.id()) continue;
    const sim::KinematicState& ost = actor->state();
    const sim::VehicleControl& octl = actor->vehicle().control();
    trace_.others.push_back({.actor = actor->id(), .role = actor->role(), .t = t,
                             .distance = ost.position.distance_to(st.position),
                             .x = ost.position.x, .y = ost.position.y, .z = ost.z,
                             .vx = ost.velocity.x, .vy = ost.velocity.y,
                             .throttle = octl.throttle, .steer = octl.steer,
                             .brake = octl.brake});
  }
}

void TraceRecorder::ingest_fault_log(const std::vector<net::FaultEvent>& log) {
  for (const net::FaultEvent& ev : log) {
    trace_.faults.push_back({ev.timestamp.to_seconds(), net::to_string(ev.fault.kind),
                             ev.fault.value, ev.added, ev.fault.label()});
  }
}

RunTrace TraceRecorder::take() { return std::move(trace_); }

}  // namespace rdsim::trace
