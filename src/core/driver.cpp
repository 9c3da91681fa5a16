#include "core/driver.hpp"

#include <algorithm>
#include <cmath>

#include "sim/frame.hpp"
#include "sim/road.hpp"
#include "sim/scenario.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/vec2.hpp"

namespace rdsim::core {

DriverModel::DriverModel(DriverParams params, const sim::Scenario* scenario,
                         const sim::RoadNetwork* road, util::Random rng)
    : params_{params},
      scenario_{scenario},
      road_{road},
      rng_{std::move(rng)},
      perception_{util::Duration::seconds(params.reaction_time_s)} {}

void DriverModel::observe(DisplayedView view) {
  if (view.frame.frame_id != last_frame_id_) {
    if (last_display_change_) {
      const double frozen = (view.displayed_at - *last_display_change_).to_seconds();
      if (frozen > params_.startle_threshold_s) {
        startle_until_ =
            view.displayed_at + util::Duration::seconds(params_.startle_duration_s);
        // The scene jumps on unfreeze; sometimes the driver's position
        // estimate takes the hit immediately.
        if (rng_.bernoulli(params_.startle_jump_prob)) {
          pos_noise_ += rng_.normal(
              0.0, params_.startle_jump_m_per_s * std::min(frozen, 1.0));
        }
      }
    }
    last_frame_id_ = view.frame.frame_id;
    last_display_change_ = view.displayed_at;
  }
  perception_.push(view.displayed_at, std::move(view));
}

units::Seconds DriverModel::display_staleness(util::TimePoint now) const {
  if (!last_display_change_) {
    return units::Seconds{std::numeric_limits<double>::infinity()};
  }
  // A frame still inside its display latency (displayed_at in the future)
  // is not on screen yet, so the screen is not stale: clamp at zero.
  return units::Seconds::from_duration(std::max(now - *last_display_change_, util::Duration{}));
}

double DriverModel::idm_accel(double speed, double target_speed,
                              std::optional<std::pair<double, double>> lead) const {
  const double v0 = std::max(target_speed, 0.5);
  const double free = 1.0 - std::pow(std::max(speed, 0.0) / v0, 4.0);
  double interaction = 0.0;
  if (lead) {
    const auto [gap, lead_speed] = *lead;
    const double dv = speed - lead_speed;
    const double s_star =
        params_.idm_min_gap_m +
        std::max(0.0, speed * params_.idm_time_headway_s +
                          speed * dv / (2.0 * std::sqrt(params_.idm_max_accel *
                                                        params_.idm_comfort_brake)));
    const double ratio = s_star / std::max(gap, 0.5);
    interaction = ratio * ratio;
  }
  return params_.idm_max_accel * (free - interaction);
}

DriverModel::Decision DriverModel::decide(util::TimePoint now) {
  Decision d = decision_;  // default: hold the previous decision

  const DisplayedView* view = perception_.read(now);
  if (!view) return d;
  const sim::WorldFrame& frame = view->frame;

  // ---- build the perceived ego state ----
  sim::KinematicState ego = frame.ego.state;
  const double speed = ego.speed();
  // Self-motion compensation: drivers dead-reckon their own vehicle through
  // their *internal* latency (reaction time plus the nominal display/command
  // path) using proprioception — they feel where the wheel is (wheel_) and
  // predict the yaw it produces. Latency added by the network is unknown to
  // them and stays uncompensated; that asymmetry is what makes injected
  // delay and frozen frames degrade control.
  const double t_pred =
      params_.prediction_gain * (params_.reaction_time_s + 0.12);
  const double yaw_est =
      speed * std::tan(wheel_ * util::deg_to_rad(params_.vehicle_max_steer_deg)) /
      params_.vehicle_wheelbase_m;
  const double mid_heading = ego.heading + 0.5 * yaw_est * t_pred;
  ego.position += util::Vec2::from_heading(mid_heading) * (speed * t_pred);
  ego.heading = util::wrap_angle(ego.heading + yaw_est * t_pred);

  auto proj = road_->project(ego.position, track_hint_s_);
  track_hint_s_ = proj.s;
  const sim::DriveInstruction instr = scenario_->instruction_at(units::Meters{proj.s});

  // Perceptual position error: slow wander whose magnitude grows with the
  // display's staleness and with poor visibility.
  {
    // Two sources of degraded precision: a *stuttering* display (time since
    // the image last changed) and *stale content* (the scene is older than
    // the driver's internal model expects — constant added network delay
    // does this even when the display updates smoothly).
    const double staleness = display_staleness(now).value();
    const double content_age =
        (now - util::TimePoint::from_micros(frame.sim_time_us)).to_seconds();
    const double nominal_stutter = 0.06;  // one frame period + display latency
    // Expected content age of a healthy feed as this driver experiences it:
    // their own reaction time plus the frame/display pipeline.
    const double nominal_age = params_.reaction_time_s + 0.08;
    double extra = 0.0;
    if (std::isfinite(staleness)) {
      extra += params_.staleness_noise_gain * std::max(0.0, staleness - nominal_stutter);
    }
    extra += params_.staleness_noise_gain * std::max(0.0, content_age - nominal_age);
    const double sigma = (params_.position_noise_m + extra) *
                         frame.weather.perception_noise_factor();
    const double dt_dec = 1.0 / params_.control_rate_hz;
    const double theta = dt_dec / params_.position_noise_tau_s;
    pos_noise_ = pos_noise_ * (1.0 - theta) + std::sqrt(2.0 * theta) * rng_.normal() *
                                                  sigma * 0.6;
    // Bound the wander to physically plausible misjudgement. The bound must
    // not collapse right after an unfreeze (staleness resets small) or it
    // would erase the scene-jump error the unfreeze just caused.
    const double bound = std::max(3.0 * sigma, 2.0);
    pos_noise_ = util::clamp(pos_noise_, -bound, bound);
    proj.lateral += pos_noise_;
    proj.lane_offset += pos_noise_;
  }

  // ---- lateral: two-point steering (far anticipation + near compensation) ----
  // Vulnerable road users get extra berth regardless of instructions: if a
  // cyclist is near the intended path ahead, shift left while passing.
  double cyclist_bias = 0.0;
  {
    const util::Vec2 fwd0 = util::Vec2::from_heading(ego.heading);
    for (const sim::ActorSnapshot& a : frame.others) {
      if (a.kind != sim::ActorKind::kCyclist) continue;
      const util::Vec2 rel = a.state.position - ego.position;
      const double ahead = rel.dot(fwd0);
      const double lateral = rel.dot(fwd0.perp());
      if (ahead > -6.0 && ahead < 50.0 && std::fabs(lateral) < 3.0) {
        cyclist_bias = std::max(cyclist_bias, 1.1);
      }
    }
  }
  double target_lateral = road_->lane_center_offset(instr.target_lane) +
                          instr.lateral_bias.value() + cyclist_bias + unstick_bias_;

  // Merge safety (the mirror check): never converge onto a line that is
  // currently occupied alongside or just ahead — hold the present lane until
  // the other vehicle is passed.
  if (std::fabs(target_lateral - proj.lateral) > 1.2) {
    const util::Vec2 fwd0 = util::Vec2::from_heading(ego.heading);
    for (const sim::ActorSnapshot& a : frame.others) {
      const util::Vec2 rel = a.state.position - ego.position;
      const double ahead = rel.dot(fwd0);
      const double lateral = rel.dot(fwd0.perp());
      const double target_rel = target_lateral - proj.lateral;
      if (ahead > -8.0 && ahead < 14.0 && std::fabs(lateral - target_rel) < 1.8) {
        target_lateral = road_->lane_center_offset(proj.lane);
        break;
      }
    }
  }

  // Far point: pure pursuit toward the instructed line well ahead. During an
  // active line change (large lateral error) drivers pull their gaze in and
  // steer with a shorter preview — quicker, but the mode that extra latency
  // destabilizes first.
  const double lat_err_mag = std::fabs(target_lateral - proj.lateral);
  const double urgency = util::clamp(lat_err_mag / 1.5, 0.0, 1.0);
  const double look_time = util::lerp(params_.lookahead_time_s,
                                      params_.manoeuvre_lookahead_s, urgency);
  const double lookahead = std::max(params_.min_lookahead_m, look_time * speed);
  const util::Pose target = road_->sample_offset(proj.s + lookahead, target_lateral);
  const util::Pose perceived_pose{ego.position, ego.heading};
  const util::Vec2 local = perceived_pose.to_local(target.position);
  const double d2 = std::max(local.norm_sq(), 1.0);
  const double curvature = 2.0 * local.y / d2;
  const double wheel_angle = std::atan(curvature * params_.vehicle_wheelbase_m);
  const double max_angle = util::deg_to_rad(params_.vehicle_max_steer_deg);
  double steer = util::clamp(wheel_angle / max_angle, -1.0, 1.0);

  // Near point: proportional-plus-lead compensation of the lateral error
  // seen *on the display*. This loop's bandwidth is what extra dead time
  // (network delay, frozen frames) pushes toward instability — the paper's
  // SRR increase under disturbance emerges here.
  const double e_near = target_lateral - proj.lateral;
  // d(error)/dt: the error shrinks while the vehicle heads toward the
  // target line; heading_err > 0 means the road (and target) bear left.
  const double heading_err = util::wrap_angle(road_->heading_at(proj.s) - ego.heading);
  const double e_near_dot = speed * std::sin(heading_err);
  const bool startled = now < startle_until_;
  const double near_gain =
      params_.near_gain * (startled ? params_.startle_gain : 1.0);
  steer += near_gain * (e_near + params_.near_lead_s * e_near_dot);
  steer = util::clamp(steer, -1.0, 1.0);
  if (params_.mirrored_steering) {
    // Left-hand-traffic habit: systematic bias toward the wrong lane edge
    // plus occasional inverted corrections under pressure.
    steer = steer * 0.8 - 0.04;
  }

  // Dead-zone: don't bother with corrections smaller than the driver notices.
  if (std::fabs(steer - decision_.steer_target) < params_.steer_deadzone) {
    steer = decision_.steer_target;
  }
  d.steer_target = steer;

  // ---- longitudinal ----
  // Perceived lead: nearest frame actor ahead in the target corridor.
  std::optional<std::pair<double, double>> lead;
  const util::Vec2 fwd = util::Vec2::from_heading(ego.heading);
  for (const sim::ActorSnapshot& a : frame.others) {
    const util::Vec2 rel = a.state.position - ego.position;
    const double ahead = rel.dot(fwd);
    const double lateral = rel.dot(fwd.perp());
    if (ahead <= 0.0 || ahead > 90.0) continue;
    // The driver worries about anything close to the path they will
    // actually sweep. Lateral convergence toward the intended line is
    // bounded (~1 m/s of lateral motion), so a vehicle just ahead stays a
    // hazard through the early part of a lane change.
    const double intended_lateral = target_lateral - proj.lateral;
    const double clear_dist =
        std::max(10.0, speed * std::fabs(intended_lateral) / 1.0);
    const double progress = util::clamp(ahead / clear_dist, 0.0, 1.0);
    if (std::fabs(lateral - intended_lateral * progress) > 1.8) continue;
    const double gap = std::max(ahead - 4.6, 0.2);
    const double lead_speed = a.state.velocity.dot(fwd);
    if (!lead || gap < lead->first) lead = std::make_pair(gap, lead_speed);
  }

  // Unstick: a driver boxed in behind a stationary obstacle (e.g. after a
  // bump) steers around it rather than waiting forever.
  const double decision_dt = 1.0 / params_.control_rate_hz;
  if (speed < 0.8 && lead && lead->second < 0.3 && lead->first < 12.0) {
    stuck_time_s_ += decision_dt;
  } else if (speed > 2.0 || !lead) {
    stuck_time_s_ = 0.0;
    unstick_bias_ = 0.0;
  }
  if (stuck_time_s_ > 4.0 && unstick_bias_ == 0.0) {
    // Steer a full lane's width toward whichever side has room.
    unstick_bias_ = proj.lane_offset >= 0.0 ? 2.6 : -2.6;
  }
  if (unstick_bias_ != 0.0 && lead && lead->first < 12.0) {
    // While squeezing past, treat the blocking obstacle as shifted aside.
    lead.reset();
  }

  double target_speed = instr.target_speed.value() * params_.speed_compliance;
  if (unstick_bias_ != 0.0) target_speed = std::min(target_speed, 2.0);
  if (frame.weather.night) target_speed *= 0.92;

  // Caution: a frozen or stuttering display makes the driver ease off.
  const double staleness = display_staleness(now).value();
  if (staleness > params_.freeze_caution_s && std::isfinite(staleness)) {
    const double severity =
        util::clamp((staleness - params_.freeze_caution_s) / 1.5, 0.0, 1.0);
    target_speed *= 1.0 - params_.caution_gain * severity;
  }

  double accel = idm_accel(speed, target_speed, lead);

  // Emergency reflex on short perceived TTC.
  if (lead) {
    const auto [gap, lead_speed] = *lead;
    const double closing = speed - lead_speed;
    if (closing > 0.3 && gap / closing < params_.emergency_ttc_s) {
      accel = -8.0;
    }
  }

  // Attention single-channeling: while startled by a display freeze the
  // driver's capacity goes to re-acquiring lateral control; pedal inputs are
  // held at their previous values unless the emergency reflex fires.
  if (startled && accel > -6.0) {
    return d;  // keep previous throttle/brake, new steering already set
  }

  if (accel >= 0.0) {
    d.throttle = util::clamp(accel / 2.5, 0.0, 1.0);
    d.brake = 0.0;
  } else {
    d.throttle = 0.0;
    d.brake = util::clamp(-accel / 7.0, 0.0, 1.0);
  }
  return d;
}

sim::VehicleControl DriverModel::actuate(util::TimePoint now) {
  double dt = 0.0;
  if (!first_actuate_) dt = (now - last_actuate_).to_seconds();
  first_actuate_ = false;
  last_actuate_ = now;

  if (now >= next_decision_) {
    decision_ = decide(now);
    // Jittered intermittent decisions (humans are not metronomes).
    const double period = 1.0 / params_.control_rate_hz;
    next_decision_ = now + util::Duration::seconds(period * rng_.uniform(0.85, 1.15));
  }

  if (dt > 0.0) {
    // Ornstein-Uhlenbeck steering noise: the micro-corrections real drivers
    // inject continuously.
    const double theta = dt / params_.noise_tau_s;
    const double sigma = params_.steer_noise *
                         (now < startle_until_ ? params_.startle_noise_mult : 1.0);
    ou_noise_ += -theta * ou_noise_ + sigma * std::sqrt(2.0 * theta) * rng_.normal();

    // Neuromuscular lag toward the decided target plus noise.
    const double target = util::clamp(decision_.steer_target + ou_noise_, -1.0, 1.0);
    const double alpha = dt / (params_.neuromuscular_tau_s + dt);
    double next = wheel_ + alpha * (target - wheel_);
    const double max_step = params_.wheel_rate_limit * dt;
    next = util::clamp(next, wheel_ - max_step, wheel_ + max_step);
    wheel_ = next;
  }

  sim::VehicleControl out;
  out.steer = wheel_;
  out.throttle = decision_.throttle;
  out.brake = decision_.brake;
  return out;
}

}  // namespace rdsim::core
