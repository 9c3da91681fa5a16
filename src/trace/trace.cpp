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

void write_ego_table(const RunTrace& trace, std::ostream& out) {
  util::CsvWriter w{out};
  w.write_row({"t", "frame", "x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az", "throttle",
               "steer", "brake"});
  for (const EgoSample& s : trace.ego) {
    w.field(s.t)
        .field(static_cast<std::int64_t>(s.frame))
        .field(s.x)
        .field(s.y)
        .field(s.z)
        .field(s.vx)
        .field(s.vy)
        .field(s.vz)
        .field(s.ax)
        .field(s.ay)
        .field(s.az)
        .field(s.throttle)
        .field(s.steer)
        .field(s.brake);
    w.end_row();
  }
}

void write_others_table(const RunTrace& trace, std::ostream& out) {
  util::CsvWriter w{out};
  w.write_row({"actor", "role", "t", "distance", "x", "y", "z", "vx", "vy", "vz", "throttle",
               "steer", "brake"});
  for (const OtherSample& s : trace.others) {
    w.field(static_cast<std::int64_t>(s.actor))
        .field(s.role)
        .field(s.t)
        .field(s.distance)
        .field(s.x)
        .field(s.y)
        .field(s.z)
        .field(s.vx)
        .field(s.vy)
        .field(s.vz)
        .field(s.throttle)
        .field(s.steer)
        .field(s.brake);
    w.end_row();
  }
}

void write_events_table(const RunTrace& trace, std::ostream& out) {
  util::CsvWriter w{out};
  w.write_row({"event", "t", "frame", "a", "b", "c"});
  for (const CollisionRecord& c : trace.collisions) {
    w.field("collision")
        .field(c.t)
        .field(static_cast<std::int64_t>(c.frame))
        .field(static_cast<std::int64_t>(c.other))
        .field(c.other_kind)
        .field(c.relative_speed);
    w.end_row();
  }
  for (const LaneInvasionRecord& l : trace.lane_invasions) {
    w.field("lane_invasion")
        .field(l.t)
        .field(static_cast<std::int64_t>(l.frame))
        .field(l.marking)
        .field(static_cast<std::int64_t>(l.from_lane))
        .field(static_cast<std::int64_t>(l.to_lane));
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
  write_ego_table(*this, ego_out);
  write_others_table(*this, others_out);
  write_events_table(*this, events_out);
}

std::string RunTrace::ego_csv() const {
  std::ostringstream os;
  write_ego_table(*this, os);
  return os.str();
}

std::string RunTrace::others_csv() const {
  std::ostringstream os;
  write_others_table(*this, os);
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
    const std::string& cell = text(row, col);
    if (const std::optional<T> value = util::parse_number<T>(cell)) return *value;
    throw std::invalid_argument{
        std::string{name_} + " CSV row " + std::to_string(row + 1) + " column '" +
        csv_.header()[static_cast<std::size_t>(col)] + "' holds '" + cell +
        (std::is_floating_point_v<T> ? "', which is not a number"
                                     : "', which is not an integer in range")};
  }

 private:
  util::CsvTable csv_;
  const char* name_;
};

}  // namespace

RunTrace RunTrace::from_csv(const std::string& ego_csv, const std::string& others_csv,
                            const std::string& events_csv) {
  RunTrace t;
  {
    const TraceTable table{ego_csv, "ego"};
    const int ct = table.column("t");
    const int cframe = table.column("frame");
    const int cx = table.column("x"), cy = table.column("y"), cz = table.column("z");
    const int cvx = table.column("vx"), cvy = table.column("vy"), cvz = table.column("vz");
    const int cax = table.column("ax"), cay = table.column("ay"), caz = table.column("az");
    const int cth = table.column("throttle"), cst = table.column("steer"),
              cbr = table.column("brake");
    for (std::size_t i = 0; i < table.rows(); ++i) {
      EgoSample s;
      s.t = table.number(i, ct);
      s.frame = table.number<std::uint32_t>(i, cframe);
      s.x = table.number(i, cx);
      s.y = table.number(i, cy);
      s.z = table.number(i, cz);
      s.vx = table.number(i, cvx);
      s.vy = table.number(i, cvy);
      s.vz = table.number(i, cvz);
      s.ax = table.number(i, cax);
      s.ay = table.number(i, cay);
      s.az = table.number(i, caz);
      s.throttle = table.number(i, cth);
      s.steer = table.number(i, cst);
      s.brake = table.number(i, cbr);
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
    const int ca = table.column("actor");
    const int crole = table.column("role");
    const int ct = table.column("t");
    const int cd = table.column("distance");
    const int cx = table.column("x"), cy = table.column("y"), cz = table.column("z");
    const int cvx = table.column("vx"), cvy = table.column("vy"), cvz = table.column("vz");
    const int cth = table.column("throttle"), cst = table.column("steer"),
              cbr = table.column("brake");
    for (std::size_t i = 0; i < table.rows(); ++i) {
      OtherSample s;
      s.actor = table.number<sim::ActorId>(i, ca);
      s.role = table.text(i, crole);
      s.t = table.number(i, ct);
      s.distance = table.number(i, cd);
      s.x = table.number(i, cx);
      s.y = table.number(i, cy);
      s.z = table.number(i, cz);
      s.vx = table.number(i, cvx);
      s.vy = table.number(i, cvy);
      s.vz = table.number(i, cvz);
      s.throttle = table.number(i, cth);
      s.steer = table.number(i, cst);
      s.brake = table.number(i, cbr);
      t.others.push_back(s);
    }
  }
  {
    const TraceTable table{events_csv, "events"};
    const int cev = table.column("event");
    const int ct = table.column("t");
    const int cframe = table.column("frame");
    const int ca = table.column("a"), cb = table.column("b"), cc = table.column("c");
    for (std::size_t i = 0; i < table.rows(); ++i) {
      const std::string& kind = table.text(i, cev);
      if (kind == "collision") {
        CollisionRecord c;
        c.t = table.number(i, ct);
        c.frame = table.number<std::uint32_t>(i, cframe);
        c.other = table.number<sim::ActorId>(i, ca);
        c.other_kind = table.text(i, cb);
        c.relative_speed = table.number(i, cc);
        t.collisions.push_back(c);
      } else if (kind == "lane_invasion") {
        LaneInvasionRecord l;
        l.t = table.number(i, ct);
        l.frame = table.number<std::uint32_t>(i, cframe);
        l.marking = table.text(i, ca);
        l.from_lane = table.number<int>(i, cb);
        l.to_lane = table.number<int>(i, cc);
        t.lane_invasions.push_back(l);
      } else if (kind == "fault") {
        FaultRecord f;
        f.t = table.number(i, ct);
        f.fault_type = table.text(i, ca);
        f.value = table.number(i, cb);
        f.added = table.text(i, cc) == "added";
        const net::FaultKind fault_kind = f.fault_type == "delay"
                                              ? net::FaultKind::kDelay
                                              : net::FaultKind::kPacketLoss;
        f.label = net::FaultSpec{fault_kind, f.value}.label();
        t.faults.push_back(f);
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
  EgoSample s;
  s.t = t;
  s.frame = world.frame_counter();
  s.x = st.position.x;
  s.y = st.position.y;
  s.z = st.z;
  s.vx = st.velocity.x;
  s.vy = st.velocity.y;
  s.ax = st.accel.x;
  s.ay = st.accel.y;
  const sim::VehicleControl& ctl = ego.vehicle().control();
  s.throttle = ctl.throttle;
  s.steer = ctl.steer;
  s.brake = ctl.brake;
  trace_.ego.push_back(s);

  for (const auto& actor : world.actors()) {
    if (actor->id() == ego.id()) continue;
    OtherSample o;
    o.actor = actor->id();
    o.role = actor->role();
    o.t = t;
    o.distance = actor->state().position.distance_to(st.position);
    o.x = actor->state().position.x;
    o.y = actor->state().position.y;
    o.z = actor->state().z;
    o.vx = actor->state().velocity.x;
    o.vy = actor->state().velocity.y;
    const sim::VehicleControl& octl = actor->vehicle().control();
    o.throttle = octl.throttle;
    o.steer = octl.steer;
    o.brake = octl.brake;
    trace_.others.push_back(o);
  }
}

void TraceRecorder::ingest_fault_log(const std::vector<net::FaultEvent>& log) {
  for (const net::FaultEvent& ev : log) {
    FaultRecord f;
    f.t = ev.timestamp.to_seconds();
    f.fault_type = net::to_string(ev.fault.kind);
    f.value = ev.fault.value;
    f.added = ev.added;
    f.label = ev.fault.label();
    trace_.faults.push_back(f);
  }
}

RunTrace TraceRecorder::take() { return std::move(trace_); }

}  // namespace rdsim::trace
