#include <gtest/gtest.h>

#include "core/driver.hpp"

namespace rdsim::core {
namespace {

using util::Duration;
using util::TimePoint;

/// Drives the DriverModel open-loop against a synthetic world: the harness
/// integrates a simple kinematic ego so the perception-action loop closes.
struct DriverHarness {
  DriverHarness()
      : road{sim::make_town05_route()},
        scenario{make_scenario()},
        driver{make_params(), &scenario, &road, util::Random{7, 1}} {
    state.position = road.sample(start_s, 0).position;
    state.heading = road.sample(start_s, 0).heading;
    state.velocity = util::Vec2::from_heading(state.heading) * 10.0;
  }

  static sim::Scenario make_scenario() {
    sim::Scenario sc;
    sc.ego_start_lane = 0;
    sc.end = units::Meters{2000.0};
    sc.instructions.push_back({units::Meters{0.0}, units::Meters{300.0}, 0,
                               units::MetersPerSecond{10.0}, units::Meters{0.0}});
    sc.instructions.push_back({units::Meters{300.0}, units::Meters{2000.0}, 1,
                               units::MetersPerSecond{10.0}, units::Meters{0.0}});
    return sc;
  }

  static DriverParams make_params() {
    DriverParams p;
    p.steer_noise = 0.0;  // deterministic control for behavioural asserts
    p.position_noise_m = 0.0;
    return p;
  }

  /// Show the driver a perfect frame of the current state and advance the
  /// closed loop by dt at ~30 fps / 30 Hz commands.
  void run(double seconds, std::optional<sim::ActorSnapshot> other = {}) {
    const double dt = 1.0 / 30.0;
    for (double t = 0.0; t < seconds; t += dt) {
      now += Duration::seconds(dt);
      sim::WorldFrame frame;
      frame.frame_id = ++frame_id;
      frame.sim_time_us = now.count_micros();
      frame.ego.state = state;
      if (other) frame.others.push_back(*other);
      driver.observe({frame, now});
      control = driver.actuate(now);
      step_vehicle(dt);
    }
  }

  void step_vehicle(double dt) {
    // Minimal plant: direct steer-to-yaw, throttle/brake to accel.
    double speed = state.velocity.norm();
    const double accel = control.throttle * 2.5 - control.brake * 7.0 - 0.05;
    speed = std::max(0.0, speed + accel * dt);
    const double yaw_rate = speed * std::tan(control.steer * util::deg_to_rad(40.0)) / 2.7;
    state.heading = util::wrap_angle(state.heading + yaw_rate * dt);
    state.position += util::Vec2::from_heading(state.heading) * (speed * dt);
    state.velocity = util::Vec2::from_heading(state.heading) * speed;
  }

  double lateral() const { return road.project(state.position).lateral; }
  double track_s() const { return road.project(state.position).s; }

  sim::RoadNetwork road;
  sim::Scenario scenario;
  DriverModel driver;
  sim::KinematicState state;
  sim::VehicleControl control;
  TimePoint now;
  std::uint32_t frame_id{0};
  double start_s{50.0};
};

TEST(DriverModel, HoldsLaneOnStraight) {
  DriverHarness h;
  h.run(10.0);
  EXPECT_NEAR(h.lateral(), 0.0, 0.35);
  EXPECT_GT(h.track_s(), 120.0);  // kept moving at ~10 m/s
}

TEST(DriverModel, TracksInstructedSpeed) {
  DriverHarness h;
  h.run(15.0);
  EXPECT_NEAR(h.state.velocity.norm(), 10.0, 1.5);
}

TEST(DriverModel, ExecutesInstructedLaneChange) {
  DriverHarness h;
  h.run(40.0);  // crosses s=300 where the instruction switches to lane 1
  ASSERT_GT(h.track_s(), 350.0);
  EXPECT_NEAR(h.lateral(), 3.5, 0.4);
}

TEST(DriverModel, BrakesForStoppedLeadAhead) {
  DriverHarness h;
  sim::ActorSnapshot lead;
  lead.id = 2;
  lead.kind = sim::ActorKind::kStaticVehicle;
  lead.state.position = h.road.sample(h.start_s + 60.0, 0).position;
  h.run(12.0, lead);
  // Stopped (or nearly) behind the obstacle, no overrun.
  EXPECT_LT(h.state.velocity.norm(), 2.0);
  const double gap = (lead.state.position - h.state.position).norm();
  EXPECT_GT(gap, 3.0);
}

TEST(DriverModel, NoFramesMeansNoCommands) {
  DriverHarness h;
  // Without observe(), actuate should produce a neutral (held) command.
  const auto c = h.driver.actuate(TimePoint::from_seconds(1.0));
  EXPECT_DOUBLE_EQ(c.throttle, 0.0);
  EXPECT_DOUBLE_EQ(c.brake, 0.0);
}

TEST(DriverModel, StalenessReporting) {
  DriverHarness h;
  EXPECT_TRUE(std::isinf(h.driver.display_staleness(h.now).value()));
  h.run(1.0);
  EXPECT_LT(h.driver.display_staleness(h.now).value(), 0.05);
}

TEST(DriverModel, FrozenDisplaySlowsTheDriver) {
  DriverHarness h;
  h.run(8.0);
  const double speed_before = h.state.velocity.norm();
  // Freeze: keep actuating without new frames for 4 s (the display holds
  // the old image; the caution response lifts the throttle).
  const double dt = 1.0 / 30.0;
  for (double t = 0.0; t < 4.0; t += dt) {
    h.now += Duration::seconds(dt);
    h.control = h.driver.actuate(h.now);
    h.step_vehicle(dt);
  }
  EXPECT_LT(h.state.velocity.norm(), speed_before - 1.5);
}

TEST(DriverModel, StartleAfterFreezeRaisesSteeringActivity) {
  DriverHarness quiet;
  DriverHarness startled;
  quiet.run(5.0);
  startled.run(5.0);
  // quiet keeps a live display; startled gets a 0.5 s freeze then resumes.
  const double dt = 1.0 / 30.0;
  for (double t = 0.0; t < 0.5; t += dt) {
    startled.now += Duration::seconds(dt);
    startled.control = startled.driver.actuate(startled.now);
    startled.step_vehicle(dt);
  }
  // Resume frames for both and integrate |steer| activity.
  double act_quiet = 0.0;
  double act_startled = 0.0;
  double prev_q = quiet.control.steer;
  double prev_s = startled.control.steer;
  for (double t = 0.0; t < 1.5; t += dt) {
    quiet.run(dt);
    startled.run(dt);
    act_quiet += std::fabs(quiet.control.steer - prev_q);
    act_startled += std::fabs(startled.control.steer - prev_s);
    prev_q = quiet.control.steer;
    prev_s = startled.control.steer;
  }
  EXPECT_GT(act_startled, act_quiet);
}

TEST(DriverModel, MirroredSteeringDiffersFromNormal) {
  DriverHarness normal;
  DriverHarness mirrored;
  DriverParams p = DriverHarness::make_params();
  p.mirrored_steering = true;
  mirrored.driver = DriverModel{p, &mirrored.scenario, &mirrored.road,
                                util::Random{7, 1}};
  normal.run(10.0);
  mirrored.run(10.0);
  // The left-hand-drive habit produces a systematic lateral bias.
  EXPECT_GT(std::fabs(mirrored.lateral() - normal.lateral()), 0.15);
}

TEST(DriverModel, GivesCyclistsBerth) {
  DriverHarness h;
  sim::ActorSnapshot cyclist;
  cyclist.id = 3;
  cyclist.kind = sim::ActorKind::kCyclist;
  cyclist.bbox = sim::BoundingBox{0.9, 0.35};
  // Park the cyclist near the right edge 35 m ahead; the driver should
  // shift left while passing even without an instruction.
  const auto pose = h.road.sample_offset(h.start_s + 35.0, -1.45);
  cyclist.state.position = pose.position;
  cyclist.state.heading = pose.heading;
  h.run(3.0, cyclist);
  EXPECT_GT(h.lateral(), 0.35);
}

}  // namespace
}  // namespace rdsim::core
