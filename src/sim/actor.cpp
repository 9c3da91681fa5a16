#include "sim/actor.hpp"

#include <algorithm>
#include <cmath>

#include "util/vec2.hpp"

namespace rdsim::sim {

namespace {

/// Pure-pursuit steering towards a point ahead on the target line.
double pursuit_steer(const Actor& actor, const RoadNetwork& road, double target_lateral,
                     units::Meters lookahead) {
  const units::Meters s = actor.track_position();
  const util::Pose target = road.sample_offset((s + lookahead).value(), target_lateral);
  const util::Vec2 local = actor.pose().to_local(target.position);
  const double d2 = std::max(local.norm_sq(), 1.0);
  const double curvature = 2.0 * local.y / d2;
  const double wheel_angle =
      std::atan(curvature * actor.vehicle().params().wheelbase.value());
  const double max_angle = util::deg_to_rad(actor.vehicle().params().max_steer_deg);
  return util::clamp(wheel_angle / max_angle, -1.0, 1.0);
}

/// Longitudinal P control producing throttle/brake.
void speed_control(VehicleControl& control, double current, double target) {
  const double err = target - current;
  if (err >= 0.0) {
    control.throttle = util::clamp(0.5 * err, 0.0, 1.0);
    control.brake = 0.0;
  } else {
    control.throttle = 0.0;
    control.brake = util::clamp(-0.4 * err, 0.0, 1.0);
  }
}

}  // namespace

LaneFollowController::LaneFollowController(int lane, units::MetersPerSecond cruise_speed)
    : lane_{lane}, cruise_speed_{cruise_speed} {}

void LaneFollowController::set_speed_profile(std::vector<SpeedPoint> profile) {
  profile_ = std::move(profile);
  std::sort(profile_.begin(), profile_.end(),
            [](const SpeedPoint& a, const SpeedPoint& b) { return a.s < b.s; });
}

units::MetersPerSecond LaneFollowController::target_speed_at(units::Meters s) const {
  if (profile_.empty()) return cruise_speed_;
  units::MetersPerSecond speed = profile_.front().speed;
  for (const SpeedPoint& p : profile_) {
    if (s >= p.s) {
      speed = p.speed;
    } else {
      break;
    }
  }
  return speed;
}

void LaneFollowController::update(Actor& actor, const RoadNetwork& road,
                                  units::Seconds dt) {
  (void)dt;
  const RoadProjection& proj = actor.projection();

  VehicleControl control;
  const double speed = actor.vehicle().forward_speed();
  const units::Meters lookahead{std::max(6.0, 1.2 * speed)};
  control.steer =
      pursuit_steer(actor, road, road.lane_center_offset(lane_), lookahead);
  speed_control(control, speed, target_speed_at(units::Meters{proj.s}).value());
  actor.vehicle().apply_control(control);
}

WalkerController::WalkerController(units::MetersPerSecond walk_speed,
                                   units::Meters target_lateral)
    : walk_speed_{walk_speed}, target_lateral_{target_lateral} {}

void WalkerController::update(Actor& actor, const RoadNetwork& road, units::Seconds dt) {
  if (!crossing_ || done_ || dt.value() <= 0.0) return;
  const RoadProjection& proj = actor.projection();
  const double remaining = target_lateral_.value() - proj.lateral;
  const double dir = remaining >= 0.0 ? 1.0 : -1.0;
  const double step =
      std::min((walk_speed_ * dt).value(), std::fabs(remaining));
  const util::Vec2 left = util::Vec2::from_heading(road.heading_at(proj.s)).perp();

  KinematicState st = actor.state();
  st.position += left * (dir * step);
  st.velocity = left * (dir * walk_speed_.value());
  st.heading = (left * dir).heading();
  if (std::fabs(remaining) <= step + 1e-9) {
    done_ = true;
    st.velocity = {};
  }
  actor.vehicle().set_state(st);
}

CyclistController::CyclistController(units::MetersPerSecond speed,
                                     units::Meters edge_offset, double wobble_amp,
                                     units::Seconds wobble_period)
    : speed_{speed},
      edge_offset_{edge_offset},
      wobble_amp_{wobble_amp},
      wobble_period_{wobble_period} {}

void CyclistController::update(Actor& actor, const RoadNetwork& road, units::Seconds dt) {
  phase_ += dt;
  const double wobble = wobble_amp_ * std::sin(2.0 * std::numbers::pi *
                                               phase_.value() / wobble_period_.value());
  VehicleControl control;
  const double speed = actor.vehicle().forward_speed();
  control.steer = pursuit_steer(actor, road, edge_offset_.value() + wobble,
                                units::Meters{4.0});
  speed_control(control, speed, speed_.value());
  actor.vehicle().apply_control(control);
}

}  // namespace rdsim::sim
