// Vehicle subsystem (§III.A): owns the simulated world, renders video
// frames for the operator, applies received driving commands, and tracks
// the QoS information (command age) that safety measures can act on.
#pragma once

#include <memory>
#include <optional>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "mitigate/mrm.hpp"
#include "net/packet.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace rdsim::core {

/// Optional safety measure evaluated in the ablation benches. The paper's
/// test setup deliberately ran *without* any such measure (§I: "a test setup
/// without any safety measures to counteract network disturbances"); this
/// hook is the "design loop" extension the methodology is meant to support:
/// when the vehicle has not received a fresh command for `max_command_age`,
/// it ramps in autonomous braking until contact with the operator resumes.
struct SafetyMonitorConfig {
  bool enabled{false};
  units::Seconds max_command_age{0.35};
  double brake_level{0.6};
  units::MetersPerSecond speed_cap{4.0};  ///< degraded-mode crawl speed
};

class VehicleSubsystem {
 public:
  VehicleSubsystem(const RdsConfig& config, sim::Scenario scenario,
                   SafetyMonitorConfig safety = {}, std::uint64_t seed = 1);

  sim::World& world() { return world_; }
  const sim::World& world() const { return world_; }
  sim::ScenarioRuntime& runtime() { return runtime_; }
  const sim::ScenarioRuntime& runtime() const { return runtime_; }

  /// Advance physics by dt. The currently latched command keeps acting.
  void step_physics(units::Seconds dt);

  /// If a video frame is due at `now`, encode it. Frame cadence follows the
  /// configured fps with the 25-30 fps jitter the paper reports.
  std::optional<net::Payload> maybe_encode_frame(util::TimePoint now);

  /// Apply a received command (latest-wins by sequence number).
  void on_command(const CommandMsg& msg, util::TimePoint now);

  /// Time since the newest applied command was *sent* by the operator —
  /// the vehicle's QoS view of the uplink (§III.A).
  units::Seconds command_age(util::TimePoint now) const;

  std::uint64_t frames_encoded() const { return frames_encoded_; }
  std::uint64_t commands_applied() const { return commands_applied_; }
  std::uint64_t commands_stale() const { return commands_stale_; }
  std::uint64_t safety_activations() const { return safety_activations_; }
  bool safety_engaged() const { return safety_engaged_; }

  /// Arm the vehicle-side command watchdog + MRM controller (rdsim::mitigate).
  /// Never called when mitigation is disabled, keeping disabled runs
  /// bit-identical to builds without the subsystem.
  void enable_mitigation(const mitigate::WatchdogConfig& watchdog);
  /// The armed MRM controller, or nullptr.
  const mitigate::MrmController* mrm() const { return mrm_.get(); }

 private:
  void apply_safety(util::TimePoint now);
  void apply_mrm(util::TimePoint now, units::Seconds dt);

  RdsConfig config_;
  SafetyMonitorConfig safety_;
  sim::World world_;
  sim::ScenarioRuntime runtime_;
  util::Random rng_;

  util::TimePoint next_frame_{};
  std::uint64_t frames_encoded_{0};

  std::uint32_t last_command_seq_{0};
  bool any_command_{false};
  std::int64_t last_command_sent_us_{0};
  sim::VehicleControl latched_control_{};
  std::uint64_t commands_applied_{0};
  std::uint64_t commands_stale_{0};

  bool safety_engaged_{false};
  std::uint64_t safety_activations_{0};

  std::unique_ptr<mitigate::MrmController> mrm_;  ///< null unless mitigating
};

}  // namespace rdsim::core
