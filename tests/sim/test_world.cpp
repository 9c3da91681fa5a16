#include <gtest/gtest.h>

#include "sim/scenario.hpp"
#include "sim/world.hpp"
#include "util/alloc_hook.hpp"

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

TEST(World, CollisionSensorReArmsOnlyAfterSeparationAndCooldown) {
  // One event per contact episode; after an event the sensor stays silent
  // for 5 s, and it re-arms only once the bodies have separated. Teleporting
  // the ego makes every contact start and end on a known step.
  World w = make_world();
  const ActorId ego = w.spawn_on_road(ActorKind::kVehicle, Meters{0.0}, 0);
  w.designate_ego(ego);
  const ActorId parked = w.spawn_on_road(ActorKind::kStaticVehicle, Meters{100.0}, 0);
  const auto place_ego = [&w](double s, double speed) {
    const util::Pose pose = w.road().sample_offset(s, w.road().lane_center_offset(0));
    KinematicState st;
    st.position = pose.position;
    st.heading = pose.heading;
    st.velocity = pose.forward() * speed;
    w.ego().vehicle().set_state(st);
  };
  const Seconds dt{0.01};

  place_ego(100.0, 0.0);
  w.step(dt);
  ASSERT_EQ(w.collisions().size(), 1u);
  EXPECT_EQ(w.collisions()[0].other, parked);
  EXPECT_EQ(w.collisions()[0].frame, w.frame_counter());
  EXPECT_TRUE(w.ego_in_contact());

  // Separate, then touch again inside the cooldown: contact, but no event.
  place_ego(50.0, 0.0);
  w.step(dt);
  EXPECT_FALSE(w.ego_in_contact());
  place_ego(100.0, 0.0);
  w.step(dt);
  EXPECT_TRUE(w.ego_in_contact());
  EXPECT_EQ(w.collisions().size(), 1u);

  // Separate for more than 5 s: the next touch is a new event.
  place_ego(50.0, 0.0);
  for (int i = 0; i < 500; ++i) w.step(dt);
  EXPECT_FALSE(w.ego_in_contact());
  place_ego(100.0, 0.0);
  w.step(dt);
  ASSERT_EQ(w.collisions().size(), 2u);
  EXPECT_EQ(w.collisions()[1].other, parked);
  EXPECT_EQ(w.collisions()[1].frame, w.frame_counter());

  // A moving ego that lands on two parked vehicles in one step records both
  // in id order; the first impact has already stopped it for the second.
  const ActorId first = w.spawn_on_road(ActorKind::kStaticVehicle, Meters{300.0}, 0);
  const ActorId second = w.spawn_on_road(ActorKind::kStaticVehicle, Meters{304.0}, 0);
  place_ego(302.0, 5.0);
  w.step(dt);
  ASSERT_EQ(w.collisions().size(), 4u);
  const CollisionEvent& hit_first = w.collisions()[2];
  const CollisionEvent& hit_second = w.collisions()[3];
  EXPECT_EQ(hit_first.other, first);
  EXPECT_EQ(hit_second.other, second);
  EXPECT_EQ(hit_first.frame, w.frame_counter());
  EXPECT_EQ(hit_second.frame, w.frame_counter());
  EXPECT_GT(hit_first.relative_speed, 4.0);
  EXPECT_EQ(hit_second.relative_speed, 0.0);
  EXPECT_EQ(w.ego().state().velocity.norm(), 0.0);
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

/// An ego at 10 m with five parked vehicles ahead of it.
World make_world_with_six_actors() {
  World w = make_world();
  w.designate_ego(w.spawn_on_road(ActorKind::kVehicle, Meters{10.0}, 0));
  for (int i = 1; i <= 5; ++i) {
    w.spawn_on_road(ActorKind::kStaticVehicle, Meters{10.0 + 40.0 * i}, i % 2);
  }
  return w;
}

TEST(World, SnapshotAllocatesOnlyItsActorList) {
  const World w = make_world_with_six_actors();
  util::AllocCounter allocs;
  const WorldFrame f = w.snapshot();
  EXPECT_EQ(allocs.delta(), 1u);
  EXPECT_EQ(f.others.size(), 5u);
}

TEST(World, ActorsAllocatesNothing) {
  const World w = make_world_with_six_actors();
  util::AllocCounter allocs;
  std::uint64_t id_sum = 0;
  for (const auto& a : w.actors()) id_sum += a->id();
  EXPECT_EQ(allocs.delta(), 0u);
  EXPECT_EQ(id_sum, 21u);
}

TEST(World, CachedProjectionMatchesAFreshOneAfterEveryStep) {
  // 240 sim-s of the test route with a throttled ego; after every step each
  // actor's cached projection must equal a fresh one.
  World w = make_world();
  ScenarioRuntime runtime{make_test_route_scenario(), w};
  VehicleControl throttle;
  throttle.throttle = 0.4;
  w.apply_ego_control(throttle);
  for (int i = 0; i < 24000 && !::testing::Test::HasFailure(); ++i) {
    w.step(Seconds{0.01});
    runtime.step();
    for (const auto& a : w.actors()) {
      const RoadProjection& cached = a->projection();
      const RoadProjection fresh =
          w.road().project(a->state().position, a->track_position().value());
      EXPECT_EQ(cached.s, fresh.s) << "actor " << a->id() << " step " << i;
      EXPECT_EQ(cached.lateral, fresh.lateral) << "actor " << a->id() << " step " << i;
      EXPECT_EQ(cached.lane, fresh.lane) << "actor " << a->id() << " step " << i;
    }
  }
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
