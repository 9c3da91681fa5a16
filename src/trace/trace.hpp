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

#include <iosfwd>
#include <string>
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
  void write_csv(std::ostream& ego_out, std::ostream& others_out,
                 std::ostream& events_out) const;
  std::string ego_csv() const;
  std::string others_csv() const;
  std::string events_csv() const;
  /// Parses the three tables back into a trace. Throws std::invalid_argument
  /// naming the table and the column when a column that write_csv writes is
  /// missing, the table, row and column when a row is shorter than its
  /// header, and the first ego row whose t is earlier than the row before it.
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
