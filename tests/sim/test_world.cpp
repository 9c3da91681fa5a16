#include <gtest/gtest.h>

#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace rdsim::sim {
namespace {

using units::Meters;
using units::MetersPerSecond;
using units::Seconds;

World make_world() { return World{make_town05_route()}; }

TEST(World, SpawnAndFind) {
  World w = make_world();
  const ActorId id = w.spawn_on_road(ActorKind::kVehicle, Meters{100.0}, 0, {},
                                     MetersPerSecond{5.0}, "ego");
  ASSERT_NE(w.find(id), nullptr);
  EXPECT_EQ(w.find(id)->role(), "ego");
  EXPECT_EQ(w.actor_count(), 1u);
  EXPECT_NEAR(w.find(id)->vehicle().forward_speed(), 5.0, 1e-9);
  EXPECT_NEAR(w.find(id)->track_position().value(), 100.0, 1e-6);
  EXPECT_EQ(w.find(999), nullptr);
}

TEST(World, SpawnAtOffsetPlacesLaterally) {
  World w = make_world();
  const ActorId id = w.spawn_at_offset(ActorKind::kCyclist, Meters{50.0}, -1.45);
  const auto proj = w.road().project(w.find(id)->state().position);
  EXPECT_NEAR(proj.lateral, -1.45, 0.05);
}

TEST(World, DestroyRemovesActor) {
  World w = make_world();
  const ActorId id = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0);
  w.destroy(id);
  EXPECT_EQ(w.find(id), nullptr);
  EXPECT_EQ(w.actor_count(), 0u);
}

TEST(World, EgoRequiredForEgoAccessors) {
  World w = make_world();
  EXPECT_THROW(w.ego(), std::logic_error);
  EXPECT_THROW(w.designate_ego(42), std::invalid_argument);
  const ActorId id = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0);
  w.designate_ego(id);
  EXPECT_EQ(w.ego().id(), id);
}

TEST(World, StepAdvancesTimeAndFrames) {
  World w = make_world();
  const ActorId id = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0);
  w.designate_ego(id);
  for (int i = 0; i < 10; ++i) w.step(Seconds{0.01});
  EXPECT_NEAR(w.now().to_seconds(), 0.1, 1e-9);
  EXPECT_EQ(w.frame_counter(), 10u);
}

TEST(World, CollisionSensorFiresOncePerEpisode) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0, {},
                                      MetersPerSecond{10.0});
  w.designate_ego(ego);
  VehicleControl c;
  c.throttle = 0.6;
  w.apply_ego_control(c);
  w.spawn_on_road(ActorKind::kStaticVehicle, Meters{20.0}, 0, {},
                  MetersPerSecond{0.0}, "wall");
  for (int i = 0; i < 500 && w.collisions().empty(); ++i) w.step(Seconds{0.01});
  ASSERT_EQ(w.collisions().size(), 1u);
  EXPECT_GT(w.collisions()[0].relative_speed, 1.0);
  EXPECT_EQ(w.collisions()[0].other_kind, ActorKind::kStaticVehicle);
  // Remaining in contact must not create further events.
  for (int i = 0; i < 100; ++i) w.step(Seconds{0.01});
  EXPECT_EQ(w.collisions().size(), 1u);
  EXPECT_TRUE(w.ego_in_contact());
}

TEST(World, CollisionZeroesEgoSpeed) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0, {},
                                      MetersPerSecond{15.0});
  w.designate_ego(ego);
  w.spawn_on_road(ActorKind::kStaticVehicle, Meters{25.0}, 0);
  for (int i = 0; i < 500 && w.collisions().empty(); ++i) w.step(Seconds{0.01});
  ASSERT_FALSE(w.collisions().empty());
  EXPECT_NEAR(w.ego().vehicle().forward_speed(), 0.0, 0.3);
}

TEST(World, LaneInvasionDetected) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0, {},
                                      MetersPerSecond{10.0});
  w.designate_ego(ego);
  // Steer left until the vehicle crosses into lane 1.
  VehicleControl c;
  c.throttle = 0.3;
  c.steer = 0.15;
  w.apply_ego_control(c);
  for (int i = 0; i < 300 && w.lane_invasions().empty(); ++i) w.step(Seconds{0.01});
  ASSERT_FALSE(w.lane_invasions().empty());
  const auto& ev = w.lane_invasions().front();
  EXPECT_EQ(ev.from_lane, 0);
  EXPECT_EQ(ev.to_lane, 1);
  EXPECT_EQ(ev.marking, LaneMarking::kBroken);
}

TEST(World, SnapshotContainsEgoAndOthers) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{10.0}, 0, {},
                                      MetersPerSecond{3.0}, "ego");
  w.designate_ego(ego);
  w.spawn_on_road(ActorKind::kStaticVehicle, Meters{50.0}, 1, {},
                  MetersPerSecond{0.0}, "parked");
  w.set_weather({.night = true, .fog_density = 0.2});
  w.step(Seconds{0.01});
  const WorldFrame f = w.snapshot();
  EXPECT_EQ(f.ego.id, ego);
  ASSERT_EQ(f.others.size(), 1u);
  EXPECT_EQ(f.others[0].kind, ActorKind::kStaticVehicle);
  EXPECT_TRUE(f.weather.night);
  EXPECT_EQ(f.frame_id, 1u);
}

/// Drives `scenario` for 240 sim-s with a throttled ego and checks, after
/// every step, that each actor's cached projection equals a fresh one.
void expect_cached_projections_fresh(Scenario scenario) {
  World w = make_world();
  ScenarioRuntime runtime{std::move(scenario), w};
  VehicleControl throttle;
  throttle.throttle = 0.4;
  w.apply_ego_control(throttle);
  for (int i = 0; i < 24000 && !::testing::Test::HasFailure(); ++i) {
    w.step(Seconds{0.01});
    runtime.step();
    for (const Actor* a : w.actors()) {
      const RoadProjection& cached = a->projection();
      const RoadProjection fresh =
          w.road().project(a->state().position, a->track_position().value());
      EXPECT_EQ(cached.s, fresh.s) << "actor " << a->id() << " step " << i;
      EXPECT_EQ(cached.lateral, fresh.lateral) << "actor " << a->id() << " step " << i;
      EXPECT_EQ(cached.lane, fresh.lane) << "actor " << a->id() << " step " << i;
    }
  }
}

TEST(World, CachedProjectionMatchesAFreshOneAfterEveryStep) {
  expect_cached_projections_fresh(make_test_route_scenario());
}

TEST(World, CachedProjectionFollowsACrossingWalker) {
  // The walker's controller moves it directly, not through the vehicle plant.
  expect_cached_projections_fresh(make_pedestrian_crossing_scenario());
}

TEST(LaneFollowController, TracksLaneAndSpeedProfile) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{2000.0}, 1);  // out of the way
  w.designate_ego(ego);
  const ActorId lead = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0, {},
                                       MetersPerSecond{8.0}, "lead");
  auto ctl = std::make_unique<LaneFollowController>(0, MetersPerSecond{8.0});
  ctl->set_speed_profile({{Meters{0.0}, MetersPerSecond{8.0}},
                          {Meters{100.0}, MetersPerSecond{4.0}}});
  w.set_controller(lead, std::move(ctl));
  for (int i = 0; i < 1200; ++i) w.step(Seconds{0.02});  // 24 s
  const Actor* a = w.find(lead);
  ASSERT_NE(a, nullptr);
  EXPECT_GT(a->track_position(), Meters{100.0});
  EXPECT_NEAR(a->vehicle().forward_speed(), 4.0, 0.6);
  const auto proj = w.road().project(a->state().position, a->track_position().value());
  EXPECT_NEAR(proj.lane_offset, 0.0, 0.4);
  EXPECT_EQ(proj.lane, 0);
}

TEST(CyclistController, StaysNearEdgeAtTargetSpeed) {
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{2000.0}, 1);
  w.designate_ego(ego);
  const ActorId cyc = w.spawn_at_offset(ActorKind::kCyclist, Meters{0.0}, -1.45, {},
                                        MetersPerSecond{4.0});
  w.set_controller(cyc, std::make_unique<CyclistController>(MetersPerSecond{4.0},
                                                            Meters{-1.45}));
  for (int i = 0; i < 1000; ++i) w.step(Seconds{0.02});
  const Actor* a = w.find(cyc);
  EXPECT_NEAR(a->vehicle().forward_speed(), 4.0, 0.5);
  const auto proj = w.road().project(a->state().position, a->track_position().value());
  EXPECT_NEAR(proj.lateral, -1.45, 0.45);  // wobble stays near the edge line
}

}  // namespace
}  // namespace rdsim::sim
