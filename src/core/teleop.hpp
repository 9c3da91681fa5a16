// TeleopSession: one complete remote-driving run.
//
// Wires the full loop of Fig. 3: the vehicle subsystem (CARLA-server role)
// streams video frames through the emulated loopback device; NETEM-style
// faults are injected on that device; the operator subsystem displays the
// frames to the synthetic driver and sends commands back through the same
// device. Both directions traverse the same root qdisc, so injection is
// bidirectional exactly as in the paper's localhost setup (§V.D).
//
// The loop runs on a fine communication tick (default 2.5 ms — enough
// resolution for the 5 ms delay fault) with physics sub-sampled at 100 Hz,
// video at 25-30 fps and commands at the client rate.
#pragma once

#include "check/replay.hpp"
#include "core/operator_subsystem.hpp"
#include "core/subjects.hpp"
#include "core/vehicle_subsystem.hpp"
#include "mitigate/governor.hpp"
#include "mitigate/link_quality.hpp"
#include "net/fault_injector.hpp"
#include "net/transport.hpp"
#include "sim/scenario.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace rdsim::core {

/// One planned injection: when the ego is inside the named POI window, the
/// fault is active (§V.C: injection at points of interest, duration
/// dependent on the situation).
struct FaultAssignment {
  std::string poi;
  net::FaultSpec fault;
};

struct RunConfig {
  std::string run_id{"run"};
  std::string subject_id{"T0"};
  bool fault_injected{false};
  std::vector<FaultAssignment> plan;
  RdsConfig rds{};
  SafetyMonitorConfig safety{};
  DriverParams driver{};
  /// Opt-in graceful-degradation + MRM stack (rdsim::mitigate). Disabled by
  /// default and bit-exactly inert when disabled: no component is built and
  /// the run's hash is unchanged.
  mitigate::MitigationConfig mitigation{};
  std::uint64_t seed{1};
  /// When set, every physics tick appends a (frame hash, network hash) pair
  /// so two runs can be diffed to the first divergent tick. Borrowed; must
  /// outlive the session. Off (null) by default — recording costs one world
  /// snapshot per physics tick.
  check::ReplayRecorder* replay{nullptr};
};

struct RunResult {
  trace::RunTrace trace;
  QoeStats qoe{};
  bool completed{false};
  bool timed_out{false};
  units::Seconds duration{};

  // Network-side observables.
  net::StreamStats video_stats{};
  net::StreamStats command_stats{};
  units::Millis mean_downlink_latency{};
  units::Millis mean_uplink_latency{};
  std::uint64_t frames_encoded{0};
  std::uint64_t frames_displayed{0};
  std::uint64_t frames_skipped_sender{0};
  std::uint64_t safety_activations{0};
  std::size_t faults_injected{0};

  /// Mitigation outcome; `enabled` false (and all fields zero) unless the
  /// run was configured with RunConfig::mitigation.enabled.
  mitigate::MitigationSummary mitigation{};
};

class TeleopSession {
 public:
  /// Throws std::invalid_argument when the configuration cannot run, e.g.
  /// when the fault plan names a POI that `scenario` lacks or a fault that
  /// FaultSpec::to_config() rejects (a loss outside [0, 1]).
  TeleopSession(RunConfig config, sim::Scenario scenario);

  /// Advance one communication tick. Returns false once the run is over.
  bool step();

  /// Run to completion and return the results.
  RunResult run();

  // Introspection for examples and tests.
  util::TimePoint now() const { return clock_.now(); }
  VehicleSubsystem& vehicle() { return vehicle_; }
  OperatorSubsystem& station() { return *operator_; }
  net::FaultInjector& injector() { return injector_; }
  const net::Channel& channel() const { return channel_; }
  bool finished() const { return finished_; }
  /// The operator-side governor, or nullptr when mitigation is disabled.
  const mitigate::DegradationGovernor* governor() const { return governor_.get(); }

 private:
  /// One POI window of the fault plan, resolved at construction.
  struct FaultWindow {
    units::Meters from;
    units::Meters to;
    std::size_t assignment;  ///< index into RunConfig::plan
  };
  static std::vector<FaultWindow> resolve_fault_plan(
      const std::vector<FaultAssignment>& plan, const sim::Scenario& scenario);
  void update_fault_plan();
  void pump_video(util::TimePoint now);
  void pump_commands(util::TimePoint now);
  void update_mitigation(util::TimePoint now);

  RunConfig config_;
  /// The plan's POI windows, searched in order on every tick.
  std::vector<FaultWindow> fault_windows_;
  util::VirtualClock clock_;

  net::Channel channel_;
  // One transport per direction, of the kind RdsConfig picks; after
  // construction the session drives both through the same seam.
  std::unique_ptr<net::MessageTransport> video_;
  std::unique_ptr<net::MessageTransport> commands_;
  net::FaultInjector injector_;

  VehicleSubsystem vehicle_;
  std::unique_ptr<OperatorSubsystem> operator_;
  trace::TraceRecorder recorder_;

  // Mitigation (operator side); null unless config_.mitigation.enabled.
  std::unique_ptr<mitigate::LinkQualityEstimator> estimator_;
  std::unique_ptr<mitigate::DegradationGovernor> governor_;
  units::MetersPerSecond perceived_speed_{};  ///< ego speed of the last decoded frame

  util::TimePoint next_physics_{};
  std::optional<std::size_t> active_assignment_;
  std::uint64_t frames_skipped_sender_{0};
  bool finished_{false};
};

}  // namespace rdsim::core
