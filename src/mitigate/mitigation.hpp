// rdsim::mitigate — network-aware graceful degradation and minimal-risk
// maneuver (MRM) for the remote-driving loop.
//
// The paper quantifies how delay/loss degrade remote-driving safety but its
// test setup deliberately runs without countermeasures (§I). This subsystem
// is the production-style mitigation stack that design loop asks for,
// built so every existing fault campaign doubles as a paired
// mitigated-vs-unmitigated ablation:
//
//   LinkQualityEstimator   operator-side; EWMA RTT / loss fraction /
//                          displayed-frame staleness from observables the
//                          transports already expose (link_quality.hpp).
//   DegradationGovernor    operator-side hysteresis state machine
//                          NOMINAL -> DEGRADED -> IMPAIRED -> LINK_LOSS with
//                          per-state actuation limits applied between the
//                          DriverModel output and the command channel
//                          (governor.hpp).
//   CommandWatchdog + MRM  vehicle-side; a deterministic controlled in-lane
//                          stop when commands go stale beyond a deadline —
//                          it runs on the far side of the link, so it works
//                          precisely when the network does not (mrm.hpp).
//
// Everything is deterministic (no RNG, virtual-clock driven) and the whole
// stack is bit-exactly inert when `MitigationConfig::enabled` is false: no
// component is constructed, no observable changes, and the campaign golden
// hashes are unchanged (see docs/mitigation.md for the golden-hash policy).
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace rdsim::mitigate {

/// Governor link state, ordered by severity. The numeric values are stable:
/// they are exported as an obs gauge and index the dwell accounting.
enum class LinkState : std::uint8_t {
  kNominal = 0,
  kDegraded = 1,
  kImpaired = 2,
  kLinkLoss = 3,
};
inline constexpr std::size_t kLinkStateCount = 4;

const char* to_string(LinkState state);

/// Link-quality estimator knobs. The estimator samples at a fixed virtual
/// cadence so its EWMA folding is independent of the comms tick rate.
struct EstimatorConfig {
  units::Seconds update_period{0.05};  ///< 20 Hz estimate refresh
  double rtt_alpha{0.25};              ///< EWMA gain over the transport SRTT
  double loss_alpha{0.20};             ///< EWMA gain over the retransmit fraction
};

/// Actuation limits for one degraded state (NOMINAL is always pass-through).
struct StateLimits {
  units::MetersPerSecond speed_cap{};  ///< brake in when perceived speed exceeds
  double steer_rate_limit{0.0};        ///< steer fraction per second
  double throttle_scale{0.0};          ///< multiplies the driver's throttle
};

/// Hysteresis state machine thresholds. A state is *entered* when any of its
/// enter thresholds is exceeded and *held* until quality recovers below
/// `exit_margin` times the enter threshold; no transition happens sooner
/// than `min_dwell` after the previous one. Escalation can jump levels;
/// de-escalation steps one level at a time.
struct GovernorConfig {
  units::Millis degraded_rtt{40.0};
  double degraded_loss{0.015};
  units::Seconds degraded_staleness{0.30};

  units::Millis impaired_rtt{80.0};
  double impaired_loss{0.04};
  units::Seconds impaired_staleness{0.70};

  units::Seconds link_loss_staleness{1.50};

  double exit_margin{0.7};
  units::Seconds min_dwell{1.0};

  // Tuned on the full-campaign paired ablation (bench_mitigation_ablation):
  // tighter steer-rate limits cause low-speed scrapes against the slalom's
  // parked vehicles (the driver cannot steer around them), and caps much
  // below ~8 m/s stretch runs so far that fault-window exposure grows and
  // two subjects time out. These values recover the 50 ms / 5 % crash cases
  // (campaign collisions 4 -> 1) at ~12 % completion-time cost.
  StateLimits degraded{units::MetersPerSecond{13.0}, 2.5, 0.85};
  StateLimits impaired{units::MetersPerSecond{8.0}, 1.5, 0.55};
  StateLimits link_loss{units::MetersPerSecond{0.0}, 0.8, 0.0};
};

/// Vehicle-side command watchdog + minimal-risk-maneuver controller.
struct WatchdogConfig {
  units::Seconds deadline{0.5};        ///< command age that trips the watchdog
  units::Seconds recover_age{0.2};     ///< age considered "fresh again"
  units::MetersPerSecond2 decel{3.5};  ///< MRM service braking level
  double lane_gain{0.06};              ///< steer fraction per metre of lane offset
  double heading_gain{0.5};            ///< steer fraction per radian of heading error
  double max_steer{0.35};              ///< MRM steer authority clamp
  units::MetersPerSecond standstill{0.15};  ///< speed counting as stopped
  double hold_brake{0.35};             ///< brake holding the vehicle once stopped
};

/// Opt-in configuration carried by RunConfig / ExperimentConfig. When
/// `enabled` is false nothing is constructed and the run is bit-identical
/// to a build without the subsystem.
struct MitigationConfig {
  bool enabled{false};
  EstimatorConfig estimator{};
  GovernorConfig governor{};
  WatchdogConfig watchdog{};
};

/// Per-run outcome of the mitigation stack, reported on RunResult. Folded
/// into check::hash_run *only when enabled*, so disabled runs keep their
/// pre-mitigation golden hashes.
struct MitigationSummary {
  bool enabled{false};
  units::Seconds dwell_nominal{};
  units::Seconds dwell_degraded{};
  units::Seconds dwell_impaired{};
  units::Seconds dwell_link_loss{};
  std::uint64_t transitions{0};
  std::uint64_t interventions{0};     ///< commands the governor modified
  std::uint64_t watchdog_firings{0};  ///< stale-deadline crossings
  std::uint64_t mrm_activations{0};
  units::Seconds mrm_time{};          ///< total time under MRM control
  bool mrm_standstill{false};         ///< an MRM reached a full stop
  units::Millis final_rtt{};          ///< estimator EWMA at run end
  double final_loss{0.0};             ///< estimator EWMA at run end
};

}  // namespace rdsim::mitigate
