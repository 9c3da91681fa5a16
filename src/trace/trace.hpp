// Run traces: the §V.F data-logging schema.
//
// The paper logs, per run: collisions (timestamp, frame, actors), lane
// invasions (timestamp, frame, lane), the ego vehicle channel (timestamp,
// x, y, z, vx, vy, vz, ax, ay, az, throttle, steer, brake), every other
// vehicle (actor, timestamp, distance from ego, same channels) and the fault
// injections (timestamp, fault type, value, added/deleted). A RunTrace is
// exactly that, sampled at the logging rate, with CSV round-tripping so the
// analysis pipeline can also consume externally recorded data.
#pragma once

#include <concepts>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "net/fault_injector.hpp"
#include "sim/world.hpp"

namespace rdsim::trace {

struct EgoSample {
  double t{0.0};  ///< seconds of simulation time
  std::uint32_t frame{0};
  double x{0.0}, y{0.0}, z{0.0};
  double vx{0.0}, vy{0.0}, vz{0.0};
  double ax{0.0}, ay{0.0}, az{0.0};
  double throttle{0.0}, steer{0.0}, brake{0.0};

  double speed() const;
};

struct OtherSample {
  sim::ActorId actor{sim::kInvalidActor};
  std::string role{};
  double t{0.0};
  double distance{0.0};  ///< Euclidean distance from the ego, m
  double x{0.0}, y{0.0}, z{0.0};
  double vx{0.0}, vy{0.0}, vz{0.0};
  double throttle{0.0}, steer{0.0}, brake{0.0};
};

struct CollisionRecord {
  double t{0.0};
  std::uint32_t frame{0};
  sim::ActorId other{sim::kInvalidActor};
  std::string other_kind{};
  double relative_speed{0.0};
};

struct LaneInvasionRecord {
  double t{0.0};
  std::uint32_t frame{0};
  std::string marking{};  ///< "broken" | "solid"
  int from_lane{0};
  int to_lane{0};
};

// fields(row, f) calls f("name", member) for every member of a row, in
// declaration order: the CSV column order and the check::hash_run fold order,
// so the CSV writer, the CSV reader and the run hash all walk this one list.
// The structured binding names every member, so a new member is a compile
// error here. Event rows share the positional columns of the events table.

template <typename Row, typename Walked>
concept WalkOf = std::same_as<std::remove_const_t<Row>, Walked>;

template <WalkOf<EgoSample> Row, typename F>
void fields(Row& row, F&& f) {
  auto& [t, frame, x, y, z, vx, vy, vz, ax, ay, az, throttle, steer, brake] = row;
  f("t", t);
  f("frame", frame);
  f("x", x);
  f("y", y);
  f("z", z);
  f("vx", vx);
  f("vy", vy);
  f("vz", vz);
  f("ax", ax);
  f("ay", ay);
  f("az", az);
  f("throttle", throttle);
  f("steer", steer);
  f("brake", brake);
}

template <WalkOf<OtherSample> Row, typename F>
void fields(Row& row, F&& f) {
  auto& [actor, role, t, distance, x, y, z, vx, vy, vz, throttle, steer, brake] = row;
  f("actor", actor);
  f("role", role);
  f("t", t);
  f("distance", distance);
  f("x", x);
  f("y", y);
  f("z", z);
  f("vx", vx);
  f("vy", vy);
  f("vz", vz);
  f("throttle", throttle);
  f("steer", steer);
  f("brake", brake);
}

template <WalkOf<CollisionRecord> Row, typename F>
void fields(Row& row, F&& f) {
  auto& [t, frame, other, other_kind, relative_speed] = row;
  f("t", t);
  f("frame", frame);
  f("other", other);
  f("other_kind", other_kind);
  f("relative_speed", relative_speed);
}

template <WalkOf<LaneInvasionRecord> Row, typename F>
void fields(Row& row, F&& f) {
  auto& [t, frame, marking, from_lane, to_lane] = row;
  f("t", t);
  f("frame", frame);
  f("marking", marking);
  f("from_lane", from_lane);
  f("to_lane", to_lane);
}

/// Fault rows have no walk: `added` is written as a word and `label` is
/// derived from the type and value rather than stored.
struct FaultRecord {
  double t{0.0};
  std::string fault_type{};  ///< "delay" | "loss" | ...
  double value{0.0};         ///< ms or fraction
  bool added{false};
  std::string label{};       ///< "50ms", "5%"
};

class RunTrace {
 public:
  std::string run_id;            ///< e.g. "T5-FI"
  std::string subject;           ///< "T5"
  bool fault_injected_run{false};

  std::vector<EgoSample> ego;
  std::vector<OtherSample> others;
  std::vector<CollisionRecord> collisions;
  std::vector<LaneInvasionRecord> lane_invasions;
  std::vector<FaultRecord> faults;

  double duration_s() const { return ego.empty() ? 0.0 : ego.back().t - ego.front().t; }

  /// Intervals [start, stop) during which a given fault label was active.
  struct FaultWindow {
    std::string fault_type;
    double value{0.0};
    std::string label;
    double start{0.0};
    double stop{0.0};
  };
  std::vector<FaultWindow> fault_windows() const;

  /// Ego steering series and its timestamps (inputs to the SRR metric).
  std::vector<double> steering_series() const;
  std::vector<double> time_series() const;

  // ----- CSV round trip -----
  // The ego and others tables have one column per walked field, named by the
  // walk. The events table has the columns event, t, frame, a, b, c: event
  // is collision, lane_invasion or fault, and the row's fields follow in
  // walk order; a fault row is t, 0, fault type, value, added|deleted.
  void write_csv(std::ostream& ego_out, std::ostream& others_out,
                 std::ostream& events_out) const;
  std::string ego_csv() const;
  std::string others_csv() const;
  std::string events_csv() const;
  /// Parses the three tables back into a trace. Throws std::invalid_argument
  /// naming the table and the column when a column that write_csv writes is
  /// missing; the table, row and column when a row is shorter than its
  /// header, or a cell is not a number in its field's range, not an event
  /// kind, not a fault type net::to_string writes, or not added|deleted;
  /// and the first ego row whose t is earlier than the row before it.
  static RunTrace from_csv(const std::string& ego_csv, const std::string& others_csv,
                           const std::string& events_csv);
};

/// Samples the world into a RunTrace at a fixed logging rate.
class TraceRecorder {
 public:
  TraceRecorder(std::string run_id, std::string subject, bool fault_injected,
                double sample_hz = 20.0);

  /// Record the current world state if a sample is due; always ingests any
  /// new sensor events.
  void step(const sim::World& world);

  /// Append the fault log (call once, at end of run).
  void ingest_fault_log(const std::vector<net::FaultEvent>& log);

  RunTrace take();
  const RunTrace& trace() const { return trace_; }

 private:
  RunTrace trace_;
  double interval_s_;
  double next_sample_t_{0.0};
  std::size_t collisions_seen_{0};
  std::size_t invasions_seen_{0};
};

}  // namespace rdsim::trace
