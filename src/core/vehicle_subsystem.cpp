#include "core/vehicle_subsystem.hpp"

#include "mitigate/mitigation.hpp"
#include "mitigate/mrm.hpp"
#include "net/packet.hpp"
#include "sim/frame.hpp"
#include "sim/road.hpp"
#include "sim/scenario.hpp"
#include "sim/types.hpp"
#include "util/time.hpp"

namespace rdsim::core {

VehicleSubsystem::VehicleSubsystem(const RdsConfig& config, sim::Scenario scenario,
                                   SafetyMonitorConfig safety, std::uint64_t seed)
    : config_{config},
      safety_{safety},
      world_{sim::make_town05_route(config.road_scale), config.vehicle},
      runtime_{std::move(scenario), world_},
      rng_{seed, /*stream=*/0x76656869636c65ULL} {}

void VehicleSubsystem::step_physics(units::Seconds dt) {
  world_.step(dt);
  runtime_.step();
  if (safety_.enabled) apply_safety(world_.now());
  if (mrm_ != nullptr) apply_mrm(world_.now(), dt);
}

void VehicleSubsystem::enable_mitigation(const mitigate::WatchdogConfig& watchdog) {
  mrm_ = std::make_unique<mitigate::MrmController>(watchdog,
                                                   config_.vehicle.max_brake_decel);
}

std::optional<net::Payload> VehicleSubsystem::maybe_encode_frame(util::TimePoint now) {
  if (now < next_frame_) return std::nullopt;
  // 25-30 fps: jitter the frame interval around the configured rate.
  const double base_period = 1.0 / config_.station.video_fps;
  const double period = base_period * rng_.uniform(0.93, 1.09);
  next_frame_ = now + util::Duration::seconds(period);

  ++frames_encoded_;
  return world_.snapshot().encode();
}

void VehicleSubsystem::on_command(const CommandMsg& msg, util::TimePoint now) {
  if (any_command_ && msg.sequence <= last_command_seq_) {
    ++commands_stale_;
    return;
  }
  any_command_ = true;
  last_command_seq_ = msg.sequence;
  last_command_sent_us_ = msg.sent_at_us;
  latched_control_ = msg.control;
  ++commands_applied_;

  // While the MRM holds the vehicle the remote command is latched (so the
  // operator resumes from their latest input on release) but not applied.
  if (mrm_ != nullptr && mrm_->engaged()) return;

  sim::VehicleControl applied = latched_control_;
  if (safety_.enabled && safety_engaged_) {
    // Remote throttle is suppressed while the monitor holds the vehicle.
    applied.throttle = 0.0;
    applied.brake = std::max(applied.brake, safety_.brake_level);
  }
  world_.apply_ego_control(applied);
  (void)now;
}

units::Seconds VehicleSubsystem::command_age(util::TimePoint now) const {
  if (!any_command_) return units::Seconds{std::numeric_limits<double>::infinity()};
  return units::Seconds{
      (now - util::TimePoint::from_micros(last_command_sent_us_)).to_seconds()};
}

void VehicleSubsystem::apply_safety(util::TimePoint now) {
  const units::Seconds age = command_age(now);
  const units::MetersPerSecond speed{world_.ego().vehicle().forward_speed()};
  const bool should_engage = std::isfinite(age.value()) &&
                             age > safety_.max_command_age && speed > safety_.speed_cap;
  if (should_engage && !safety_engaged_) {
    safety_engaged_ = true;
    ++safety_activations_;
  } else if (safety_engaged_ && std::isfinite(age.value()) &&
             age < safety_.max_command_age / 2.0 && speed <= safety_.speed_cap) {
    safety_engaged_ = false;
  }
  if (safety_engaged_) {
    sim::VehicleControl degraded = latched_control_;
    degraded.throttle = 0.0;
    degraded.brake = std::max(degraded.brake, safety_.brake_level);
    world_.apply_ego_control(degraded);
  }
}

void VehicleSubsystem::apply_mrm(util::TimePoint now, units::Seconds dt) {
  const units::MetersPerSecond speed{world_.ego().vehicle().forward_speed()};
  if (auto control = mrm_->update(command_age(now), speed, world_.project_ego(),
                                  dt, now)) {
    world_.apply_ego_control(*control);
  }
}

}  // namespace rdsim::core
