#include "mitigate/mrm.hpp"

#include <algorithm>
#include <cmath>

#include "check/contracts.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "sim/road.hpp"
#include "sim/types.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace rdsim::mitigate {

MrmController::MrmController(WatchdogConfig config,
                             units::MetersPerSecond2 max_brake_decel)
    : config_{config}, max_brake_decel_{max_brake_decel} {
  RDSIM_REQUIRE(config_.deadline > units::Seconds{}, "deadline must be positive");
  RDSIM_REQUIRE(config_.recover_age < config_.deadline,
                "recover_age must undercut the deadline (hysteresis)");
  RDSIM_REQUIRE(config_.decel > units::MetersPerSecond2{} &&
                    max_brake_decel_ > units::MetersPerSecond2{},
                "braking levels must be positive");
}

sim::VehicleControl MrmController::mrm_control(units::MetersPerSecond forward_speed,
                                               const sim::RoadProjection& proj) const {
  sim::VehicleControl out;
  out.throttle = 0.0;
  if (forward_speed > config_.standstill) {
    // Service braking at the configured decel, mapped onto the pedal via
    // the plant's full-brake capability.
    out.brake = std::min(1.0, config_.decel / max_brake_decel_);
  } else {
    out.brake = config_.hold_brake;
  }
  // Lane-hold steering while the vehicle rolls out: PD on the lane-centre
  // offset and the heading error. Positive lane_offset / heading_error mean
  // left of centre / pointing left, so both corrections steer right.
  const double steer = -(config_.lane_gain * proj.lane_offset +
                         config_.heading_gain * proj.heading_error);
  out.steer = util::clamp(steer, -config_.max_steer, config_.max_steer);
  return out;
}

std::optional<sim::VehicleControl> MrmController::update(
    units::Seconds command_age, units::MetersPerSecond forward_speed,
    const sim::RoadProjection& proj, units::Seconds dt, util::TimePoint now) {
  RDSIM_REQUIRE(dt >= units::Seconds{}, "dt cannot be negative");
  // +inf age = no command ever received: the watchdog arms only after the
  // operator has been in control (mirrors the safety monitor's semantics).
  const bool stale = std::isfinite(command_age.value()) &&
                     command_age > config_.deadline;
  if (stale && !was_stale_) {
    ++firings_;
    RDSIM_OBS_COUNT(obs::metric::kMitWatchdogFired, 1);
  }
  was_stale_ = stale;

  if (!engaged_) {
    if (!stale) return std::nullopt;
    engaged_ = true;
    stop_complete_ = false;
    ++activations_;
    RDSIM_OBS_COUNT(obs::metric::kMitMrmActivations, 1);
    if (obs::Context* ctx = obs::Context::current()) {
      mrm_span_ = ctx->span_open(obs::metric::kMitMrmSpan, now);
      ctx->count(obs::metric::kMitMrmSpan, 1);
    }
  } else {
    // Release only once the stop is complete AND fresh commands flow again:
    // an MRM is a committed maneuver, not a speed limiter, and handing back
    // mid-deceleration to a link that just came back would re-create the
    // hazard the stop was avoiding.
    const bool fresh = std::isfinite(command_age.value()) &&
                       command_age < config_.recover_age;
    if (fresh && (stop_complete_ || forward_speed <= config_.standstill)) {
      engaged_ = false;
      if (mrm_span_ != obs::kNoSpan) {
        if (obs::Context* ctx = obs::Context::current()) {
          ctx->span_close(mrm_span_, now);
        }
        mrm_span_ = obs::kNoSpan;
      }
      return std::nullopt;
    }
  }

  engaged_time_ += dt;
  if (forward_speed <= config_.standstill) {
    stop_complete_ = true;
    reached_standstill_ = true;
  }
  return mrm_control(forward_speed, proj);
}

}  // namespace rdsim::mitigate
