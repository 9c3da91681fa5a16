// Synthetic human operator — the substitute for the paper's test subjects.
//
// The paper's causal chain is: network fault -> the operator's displayed
// view is stale or frozen and commands arrive late -> degraded control ->
// lower TTC, higher SRR, crashes. The driver model reproduces the human
// half of that chain with well-established components:
//
//   perception  — the driver acts on the *displayed* frame (whatever the
//                 video stream last delivered), passed through a reaction-
//                 time dead time. Humans do not extrapolate scene motion at
//                 these timescales, so a frozen display means frozen input.
//   lateral     — pure-pursuit preview steering toward the instructed lane,
//                 a neuromuscular first-order lag with rate limiting,
//                 an error dead-zone (drivers do not correct imperceptible
//                 errors) and Ornstein-Uhlenbeck correction noise. The
//                 dead-zone plus noise produce the characteristic ~5 rev/min
//                 baseline steering reversal rate of Table IV.
//   longitudinal— Intelligent-Driver-Model car following on the perceived
//                 lead gap, an emergency-brake reflex at short perceived
//                 TTC, and a caution response that eases off the pedals
//                 when the display freezes (the paper's subjects "drove
//                 more cautiously in presence of network disturbances").
//   intermittency — decisions update at ~10-15 Hz, not continuously.
//
// All parameters vary per test subject (see subjects.hpp).
#pragma once

#include <optional>

#include "sim/frame.hpp"
#include "sim/scenario.hpp"
#include "util/delay_line.hpp"
#include "util/rng.hpp"

namespace rdsim::core {

struct DriverParams {
  double reaction_time_s{0.28};       ///< perception-action dead time
  double prediction_gain{0.85};       ///< fraction of internal latency the
                                      ///< driver compensates by dead-reckoning
  double neuromuscular_tau_s{0.12};   ///< steering output lag
  double wheel_rate_limit{1.6};       ///< steer fraction per second
  double steer_noise{0.0006};         ///< OU noise sigma, steer fraction
  double noise_tau_s{0.7};            ///< OU time constant
  double steer_deadzone{0.002};       ///< ignore corrections below this
  double control_rate_hz{12.0};       ///< decision update rate
  double lookahead_time_s{2.2};       ///< far-point preview horizon, cruising
  double manoeuvre_lookahead_s{1.15}; ///< preview while actively changing line
  double min_lookahead_m{6.0};
  // Two-point steering (Salvucci & Gray): the far point gives stable
  // anticipatory steering; the near-point compensatory loop keeps the car
  // centred and is the part that added latency destabilizes.
  double near_gain{0.010};            ///< steer fraction per metre of error
  double near_lead_s{0.8};            ///< anticipation on the error rate
  // Freeze-recovery startle: when the display unfreezes after a stall the
  // driver re-acquires the scene with an over-vigorous correction — the
  // dominant source of extra steering reversals under packet loss.
  double startle_threshold_s{0.18};   ///< freeze length that startles
  double startle_duration_s{1.0};     ///< how long the over-correction lasts
  double startle_gain{2.5};           ///< near-loop gain multiplier
  double startle_noise_mult{2.5};     ///< noise burst multiplier

  // Car-following: remote drivers in the paper ran visibly tight margins
  // (golden-run minimum TTC of 0.85-3.8 s in Table III), so the defaults
  // follow closer than a textbook IDM would.
  double idm_time_headway_s{1.0};
  double idm_max_accel{1.8};
  double idm_comfort_brake{2.4};
  double idm_min_gap_m{5.0};
  double emergency_ttc_s{1.5};        ///< perceived TTC triggering full brake

  // Perceptual precision: the driver's estimate of their lateral position
  // wanders (slow OU process). A single flat screen gives ~decimetre
  // precision; staleness degrades it sharply because the scene the driver
  // reasons about is no longer where the vehicle is.
  double position_noise_m{0.07};
  double staleness_noise_gain{3.0};   ///< extra sigma per second of staleness
  double position_noise_tau_s{0.8};
  /// Instantaneous misjudgement ("scene jump") when the display unfreezes:
  /// with probability `startle_jump_prob` the driver re-acquires the scene
  /// wrongly, by ~`startle_jump_m_per_s` metres per second of freeze. Rare
  /// but large errors: they drive the crash tail without flooding the
  /// steering signal (SRR) the way continuous noise would.
  double startle_jump_prob{0.8};
  double startle_jump_m_per_s{3.0};

  // The driver's internal model of the plant they are steering (learned in
  // training): used for pursuit gains and self-motion dead-reckoning. Must
  // match the actual vehicle for stable control.
  double vehicle_wheelbase_m{2.7};
  double vehicle_max_steer_deg{40.0};

  double speed_compliance{1.0};       ///< multiplies the instructed speed
  double freeze_caution_s{0.6};      ///< display staleness that worries the driver
  double caution_gain{0.55};          ///< how strongly the driver slows down then
  bool mirrored_steering{false};      ///< subject T7's left-hand-drive habit
};

/// What the operator's display shows the driver.
struct DisplayedView {
  sim::WorldFrame frame{};
  util::TimePoint displayed_at{};   ///< when this frame appeared on screen
};

class DriverModel {
 public:
  DriverModel(DriverParams params, const sim::Scenario* scenario,
              const sim::RoadNetwork* road, util::Random rng);

  /// Feed a newly displayed frame (call whenever the display updates).
  void observe(const DisplayedView& view);

  /// Produce the wheel/pedal state at time `now`. Call at the operator tick
  /// rate; decisions refresh internally at control_rate_hz.
  sim::VehicleControl actuate(util::TimePoint now);

  const DriverParams& params() const { return params_; }

  /// Time since the display last changed (inf if never updated; zero while
  /// the latest frame is still within its display latency). Also the
  /// staleness observable the mitigation link-quality estimator consumes.
  units::Seconds display_staleness(util::TimePoint now) const;

 private:
  struct Decision {
    double steer_target{0.0};
    double throttle{0.0};
    double brake{0.0};
  };

  Decision decide(util::TimePoint now);
  /// IDM acceleration toward `target_speed` given an optional perceived
  /// lead (gap m, closing-relevant lead speed m/s).
  double idm_accel(double speed, double target_speed,
                   std::optional<std::pair<double, double>> lead) const;

  DriverParams params_;
  const sim::Scenario* scenario_;
  const sim::RoadNetwork* road_;
  util::Random rng_;

  util::DelayLine<DisplayedView> perception_;
  std::optional<util::TimePoint> last_display_change_;
  std::uint32_t last_frame_id_{0};
  util::TimePoint startle_until_{};

  util::TimePoint next_decision_{};
  Decision decision_{};
  double wheel_{0.0};          ///< neuromuscular output state
  double ou_noise_{0.0};
  double pos_noise_{0.0};      ///< perceived lateral position error, m
  double stuck_time_s_{0.0};
  double unstick_bias_{0.0};   ///< temporary lateral target shift, m
  double track_hint_s_{0.0};
  util::TimePoint last_actuate_{};
  bool first_actuate_{true};
};

}  // namespace rdsim::core
