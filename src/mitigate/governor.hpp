// DegradationGovernor: operator-side hysteresis state machine that shapes
// the driver's commands before they enter the uplink.
//
//   NOMINAL --> DEGRADED --> IMPAIRED --> LINK_LOSS
//
// A state is entered when any of its thresholds (RTT, loss, staleness) is
// exceeded; it is held until quality recovers below `exit_margin` times the
// enter threshold (hysteresis), and no transition — in either direction —
// happens sooner than `min_dwell` after the previous one, so a noisy
// estimate can never flap the limits. Escalation may jump levels (a dead
// link should not have to pass through DEGRADED); de-escalation steps back
// one level at a time.
//
// In every state except NOMINAL the governor applies the state's actuation
// limits between DriverModel output and the command channel: throttle
// ramp-down, a steering-rate limit, and a perceived-speed cap enforced by
// braking. NOMINAL is bit-exact pass-through.
#pragma once

#include "mitigate/link_quality.hpp"
#include "obs/metrics.hpp"
#include "sim/types.hpp"
#include "util/time.hpp"

namespace rdsim::mitigate {

class DegradationGovernor {
 public:
  explicit DegradationGovernor(GovernorConfig config);

  /// Re-evaluate the state machine against the latest estimate. Call at the
  /// estimator cadence. Returns the (possibly new) state.
  LinkState update(const LinkQuality& q, util::TimePoint now);

  /// Shape one outgoing command under the current state's limits.
  /// `perceived_speed` is the ego speed of the operator's displayed frame —
  /// the governor runs on the station and only knows what the station sees.
  sim::VehicleControl shape(const sim::VehicleControl& in,
                            units::MetersPerSecond perceived_speed,
                            util::TimePoint now);

  /// Close the dwell accounting at session end.
  void finalize(util::TimePoint now);

  LinkState state() const { return state_; }
  units::Seconds dwell(LinkState s) const {
    return dwell_[static_cast<std::size_t>(s)];
  }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t interventions() const { return interventions_; }
  const GovernorConfig& config() const { return config_; }

 private:
  /// Highest state whose enter thresholds `q` currently exceeds.
  LinkState enter_severity(const LinkQuality& q) const;
  /// Highest state whose exit thresholds (enter * exit_margin) `q` still
  /// exceeds — the level the hysteresis is willing to hold.
  LinkState hold_severity(const LinkQuality& q) const;
  const StateLimits& limits(LinkState s) const;
  void transition_to(LinkState next, util::TimePoint now);

  GovernorConfig config_;
  LinkState state_{LinkState::kNominal};
  units::Seconds dwell_[kLinkStateCount]{};
  util::TimePoint last_update_{};
  util::TimePoint last_change_{};
  bool first_update_{true};

  double last_steer_{0.0};
  util::TimePoint last_shape_{};
  bool first_shape_{true};

  std::uint64_t transitions_{0};
  std::uint64_t interventions_{0};
  std::size_t state_span_{obs::kNoSpan};  ///< open non-NOMINAL trace span
};

}  // namespace rdsim::mitigate
