#include <gtest/gtest.h>

#include "core/vehicle_subsystem.hpp"

namespace rdsim::core {
namespace {

using util::Duration;
using util::TimePoint;

TEST(VehicleSubsystem, FramePacingMatchesConfiguredFps) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  int frames = 0;
  for (int ms = 0; ms < 5000; ms += 2) {
    if (vs.maybe_encode_frame(TimePoint::from_micros(ms * 1000))) ++frames;
  }
  // §V.A: 25-30 fps. 5 s of video.
  EXPECT_GE(frames, 24 * 5);
  EXPECT_LE(frames, 31 * 5);
  EXPECT_EQ(vs.frames_encoded(), static_cast<std::uint64_t>(frames));
}

TEST(VehicleSubsystem, EncodedFrameDecodes) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  const auto frame = vs.maybe_encode_frame(TimePoint{});
  ASSERT_TRUE(frame.has_value());
  const auto decoded = sim::WorldFrame::decode(*frame);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ego.id, vs.world().ego_id());
  EXPECT_FALSE(decoded->others.empty());  // the lead vehicle
}

TEST(VehicleSubsystem, AppliesLatestCommandOnly) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  CommandMsg newer;
  newer.sequence = 10;
  newer.control.throttle = 0.9;
  newer.sent_at_us = 1000;
  vs.on_command(newer, TimePoint::from_micros(2000));
  CommandMsg stale;
  stale.sequence = 7;
  stale.control.throttle = 0.1;
  vs.on_command(stale, TimePoint::from_micros(3000));
  EXPECT_DOUBLE_EQ(vs.world().ego().vehicle().control().throttle, 0.9);
  EXPECT_EQ(vs.commands_applied(), 1u);
  EXPECT_EQ(vs.commands_stale(), 1u);
}

TEST(VehicleSubsystem, CommandAgeTracksQoS) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  EXPECT_TRUE(std::isinf(vs.command_age(TimePoint{}).value()));
  CommandMsg cmd;
  cmd.sequence = 1;
  cmd.sent_at_us = TimePoint::from_seconds(1.0).count_micros();
  vs.on_command(cmd, TimePoint::from_seconds(1.05));
  EXPECT_NEAR(vs.command_age(TimePoint::from_seconds(1.25)).value(), 0.25, 1e-9);
}

TEST(VehicleSubsystem, PhysicsAdvancesScenario) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  CommandMsg cmd;
  cmd.sequence = 1;
  cmd.control.throttle = 0.5;
  vs.on_command(cmd, TimePoint{});
  for (int i = 0; i < 500; ++i) vs.step_physics(units::Seconds{0.01});
  EXPECT_GT(vs.runtime().ego_position(), units::Meters{10.0});
  EXPECT_FALSE(vs.runtime().complete());
}

TEST(SafetyMonitor, EngagesOnStaleCommandsAndBrakes) {
  RdsConfig cfg;
  SafetyMonitorConfig safety;
  safety.enabled = true;
  safety.max_command_age = units::Seconds{0.3};
  VehicleSubsystem vs{cfg, sim::make_following_scenario(), safety};
  // Get the vehicle moving with a fresh command.
  CommandMsg cmd;
  cmd.sequence = 1;
  cmd.control.throttle = 0.8;
  cmd.sent_at_us = 0;
  vs.on_command(cmd, TimePoint{});
  for (int i = 0; i < 300; ++i) vs.step_physics(units::Seconds{0.01});  // 3 s, no new commands
  // Command age is now 3 s > 0.3 s: the monitor must be braking the car.
  EXPECT_TRUE(vs.safety_engaged());
  EXPECT_GE(vs.safety_activations(), 1u);
  const double speed_at_engage = vs.world().ego().vehicle().forward_speed();
  for (int i = 0; i < 300; ++i) vs.step_physics(units::Seconds{0.01});
  EXPECT_LT(vs.world().ego().vehicle().forward_speed(),
            std::max(speed_at_engage - 2.0, safety.speed_cap.value() + 0.5));
}

TEST(SafetyMonitor, DisengagesWhenCommandsResume) {
  RdsConfig cfg;
  SafetyMonitorConfig safety;
  safety.enabled = true;
  safety.max_command_age = units::Seconds{0.3};
  VehicleSubsystem vs{cfg, sim::make_following_scenario(), safety};
  CommandMsg cmd;
  cmd.sequence = 1;
  cmd.control.throttle = 0.8;
  cmd.sent_at_us = 0;
  vs.on_command(cmd, TimePoint{});
  for (int i = 0; i < 400; ++i) vs.step_physics(units::Seconds{0.01});
  ASSERT_TRUE(vs.safety_engaged());
  // Fresh commands resume; once slow enough, the monitor lets go.
  for (int i = 0; i < 600; ++i) {
    CommandMsg fresh;
    fresh.sequence = static_cast<std::uint32_t>(2 + i);
    fresh.control.throttle = 0.2;
    fresh.sent_at_us = vs.world().now().count_micros();
    vs.on_command(fresh, vs.world().now());
    vs.step_physics(units::Seconds{0.01});
  }
  EXPECT_FALSE(vs.safety_engaged());
}

TEST(SafetyMonitor, DisabledByDefault) {
  RdsConfig cfg;
  VehicleSubsystem vs{cfg, sim::make_following_scenario()};
  CommandMsg cmd;
  cmd.sequence = 1;
  cmd.control.throttle = 0.8;
  cmd.sent_at_us = 0;
  vs.on_command(cmd, TimePoint{});
  for (int i = 0; i < 500; ++i) vs.step_physics(units::Seconds{0.01});
  EXPECT_FALSE(vs.safety_engaged());
  EXPECT_EQ(vs.safety_activations(), 0u);
  EXPECT_GT(vs.world().ego().vehicle().forward_speed(), 5.0);
}

TEST(Protocol, CommandMsgRoundTrip) {
  CommandMsg m;
  m.sequence = 42;
  m.control.throttle = 0.5;
  m.control.steer = -0.25;
  m.control.brake = 0.1;
  m.control.reverse = true;
  m.control.hand_brake = true;
  m.sent_at_us = 123456789;
  m.based_on_frame = 777;
  const auto decoded = CommandMsg::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sequence, 42u);
  EXPECT_DOUBLE_EQ(decoded->control.steer, -0.25);
  EXPECT_TRUE(decoded->control.reverse);
  EXPECT_TRUE(decoded->control.hand_brake);
  EXPECT_EQ(decoded->sent_at_us, 123456789);
  EXPECT_EQ(decoded->based_on_frame, 777u);
  EXPECT_FALSE(CommandMsg::decode({1, 2, 3}).has_value());
}

}  // namespace
}  // namespace rdsim::core
