#include "mitigate/governor.hpp"

#include <algorithm>

#include "check/contracts.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "sim/types.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace rdsim::mitigate {

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kNominal: return "NOMINAL";
    case LinkState::kDegraded: return "DEGRADED";
    case LinkState::kImpaired: return "IMPAIRED";
    case LinkState::kLinkLoss: return "LINK_LOSS";
  }
  return "?";
}

DegradationGovernor::DegradationGovernor(GovernorConfig config)
    : config_{config} {
  RDSIM_REQUIRE(config_.min_dwell >= units::Seconds{},
                "min_dwell cannot be negative");
  RDSIM_REQUIRE(config_.exit_margin > 0.0 && config_.exit_margin <= 1.0,
                "exit_margin must be in (0, 1]");
  RDSIM_REQUIRE(config_.degraded_rtt < config_.impaired_rtt &&
                    config_.degraded_loss < config_.impaired_loss &&
                    config_.degraded_staleness < config_.impaired_staleness &&
                    config_.impaired_staleness < config_.link_loss_staleness,
                "state thresholds must be strictly ordered by severity");
}

LinkState DegradationGovernor::enter_severity(const LinkQuality& q) const {
  const bool rtt = q.rtt_valid;
  const bool st = q.staleness_valid;
  if (st && q.staleness >= config_.link_loss_staleness) return LinkState::kLinkLoss;
  if ((rtt && q.rtt >= config_.impaired_rtt) || q.loss >= config_.impaired_loss ||
      (st && q.staleness >= config_.impaired_staleness)) {
    return LinkState::kImpaired;
  }
  if ((rtt && q.rtt >= config_.degraded_rtt) || q.loss >= config_.degraded_loss ||
      (st && q.staleness >= config_.degraded_staleness)) {
    return LinkState::kDegraded;
  }
  return LinkState::kNominal;
}

LinkState DegradationGovernor::hold_severity(const LinkQuality& q) const {
  const double m = config_.exit_margin;
  const bool rtt = q.rtt_valid;
  const bool st = q.staleness_valid;
  if (st && q.staleness >= m * config_.link_loss_staleness) return LinkState::kLinkLoss;
  if ((rtt && q.rtt >= m * config_.impaired_rtt) || q.loss >= m * config_.impaired_loss ||
      (st && q.staleness >= m * config_.impaired_staleness)) {
    return LinkState::kImpaired;
  }
  if ((rtt && q.rtt >= m * config_.degraded_rtt) || q.loss >= m * config_.degraded_loss ||
      (st && q.staleness >= m * config_.degraded_staleness)) {
    return LinkState::kDegraded;
  }
  return LinkState::kNominal;
}

const StateLimits& DegradationGovernor::limits(LinkState s) const {
  switch (s) {
    case LinkState::kDegraded: return config_.degraded;
    case LinkState::kImpaired: return config_.impaired;
    case LinkState::kLinkLoss: return config_.link_loss;
    case LinkState::kNominal: break;
  }
  RDSIM_REQUIRE(false, "NOMINAL has no limits");
  return config_.degraded;
}

void DegradationGovernor::transition_to(LinkState next, util::TimePoint now) {
  RDSIM_REQUIRE(next != state_, "transition must change state");
  state_ = next;
  last_change_ = now;
  ++transitions_;
  RDSIM_OBS_COUNT(obs::metric::kMitStateTransitions, 1);
  RDSIM_OBS_GAUGE_SET(obs::metric::kMitState,
                      static_cast<double>(static_cast<std::uint8_t>(next)));
  if (obs::Context* ctx = obs::Context::current()) {
    if (state_span_ != obs::kNoSpan) {
      ctx->span_close(state_span_, now);
      state_span_ = obs::kNoSpan;
    }
    if (next != LinkState::kNominal) {
      state_span_ = ctx->span_open(obs::metric::kMitStateSpan, now,
                                   static_cast<std::uint32_t>(next));
      ctx->count(obs::metric::kMitStateSpan, 1);
    }
  }
}

LinkState DegradationGovernor::update(const LinkQuality& q, util::TimePoint now) {
  if (first_update_) {
    last_update_ = now;
    last_change_ = now;
    first_update_ = false;
  }
  RDSIM_REQUIRE(now >= last_update_, "governor time must be monotone");
  dwell_[static_cast<std::size_t>(state_)] +=
      units::Seconds::from_duration(now - last_update_);
  last_update_ = now;

  const LinkState enter = enter_severity(q);
  const LinkState hold = hold_severity(q);
  // Stay at the current level while its exit thresholds are still exceeded;
  // otherwise fall back to whatever the hysteresis will hold, but never
  // below what the enter thresholds currently demand.
  const auto desired = std::max(enter, std::min(state_, hold));
  // min_dwell spaces *transitions*: the first departure from the initial
  // state has nothing to flap against and is allowed immediately.
  if (desired != state_ &&
      (transitions_ == 0 ||
       units::Seconds::from_duration(now - last_change_) >= config_.min_dwell)) {
    if (desired > state_) {
      transition_to(desired, now);  // escalation may jump levels
    } else {
      // De-escalate one level at a time: recovery is re-verified for a full
      // dwell period at each intermediate level.
      transition_to(static_cast<LinkState>(static_cast<std::uint8_t>(state_) - 1),
                    now);
    }
  }
  return state_;
}

sim::VehicleControl DegradationGovernor::shape(const sim::VehicleControl& in,
                                               units::MetersPerSecond perceived_speed,
                                               util::TimePoint now) {
  const units::Seconds dt = first_shape_
                                ? units::Seconds{}
                                : units::Seconds::from_duration(now - last_shape_);
  RDSIM_REQUIRE(dt >= units::Seconds{}, "shape time must be monotone");
  if (state_ == LinkState::kNominal) {
    // Bit-exact pass-through; still track the wheel so a later rate limit
    // starts from the driver's actual position, not a stale value.
    last_steer_ = in.steer;
    last_shape_ = now;
    first_shape_ = false;
    return in;
  }

  const StateLimits& lim = limits(state_);
  sim::VehicleControl out = in;
  out.throttle *= lim.throttle_scale;
  if (perceived_speed > lim.speed_cap) {
    // Over the cap: lift the throttle entirely and brake proportionally to
    // the excess so the hand-over is a ramp, not a step.
    const double excess = (perceived_speed - lim.speed_cap).value();
    out.throttle = 0.0;
    out.brake = std::max(out.brake, std::min(1.0, 0.2 + 0.15 * excess));
  }
  if (!first_shape_) {
    const double max_delta = lim.steer_rate_limit * dt.value();
    out.steer = util::clamp(out.steer, last_steer_ - max_delta,
                            last_steer_ + max_delta);
  }
  out = out.clamped();
  if (out != in) {
    ++interventions_;
    RDSIM_OBS_COUNT(obs::metric::kMitInterventions, 1);
  }
  last_steer_ = out.steer;
  last_shape_ = now;
  first_shape_ = false;
  return out;
}

void DegradationGovernor::finalize(util::TimePoint now) {
  if (first_update_) return;
  RDSIM_REQUIRE(now >= last_update_, "finalize time must be monotone");
  dwell_[static_cast<std::size_t>(state_)] +=
      units::Seconds::from_duration(now - last_update_);
  last_update_ = now;
  if (state_span_ != obs::kNoSpan) {
    if (obs::Context* ctx = obs::Context::current()) {
      ctx->span_close(state_span_, now);
    }
    state_span_ = obs::kNoSpan;
  }
}

}  // namespace rdsim::mitigate
