#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace rdsim::sim {
namespace {

using units::Meters;
using units::MetersPerSecond;
using units::Seconds;

TEST(Scenario, InstructionLookupPicksContainingWindow) {
  Scenario sc;
  sc.ego_start_lane = 0;
  sc.instructions.push_back(
      {Meters{0.0}, Meters{100.0}, 0, MetersPerSecond{10.0}, Meters{0.0}});
  sc.instructions.push_back(
      {Meters{100.0}, Meters{200.0}, 1, MetersPerSecond{8.0}, Meters{0.5}});
  EXPECT_EQ(sc.instruction_at(Meters{50.0}).target_lane, 0);
  EXPECT_EQ(sc.instruction_at(Meters{150.0}).target_lane, 1);
  EXPECT_DOUBLE_EQ(sc.instruction_at(Meters{150.0}).lateral_bias.value(), 0.5);
  // Outside all windows: defaults to the starting lane at 10 m/s.
  EXPECT_EQ(sc.instruction_at(Meters{500.0}).target_lane, 0);
  EXPECT_DOUBLE_EQ(sc.instruction_at(Meters{500.0}).target_speed.value(), 10.0);
}

TEST(ScenarioRuntime, SpawnsEgoAndPopulates) {
  World world{make_town05_route()};
  Scenario sc = make_test_route_scenario();
  ScenarioRuntime runtime{sc, world};
  EXPECT_NE(runtime.ego_id(), kInvalidActor);
  EXPECT_EQ(world.ego_id(), runtime.ego_id());
  // The test route starts with a lead vehicle, three parked cars and a
  // cyclist besides the ego.
  EXPECT_EQ(world.actor_count(), 6u);
}

TEST(ScenarioRuntime, TriggersFireOnceAtPosition) {
  World world{make_town05_route()};
  Scenario sc;
  sc.ego_start = Meters{0.0};
  sc.end = Meters{400.0};
  int fired = 0;
  sc.triggers.push_back({Meters{100.0}, "test", [&fired](World&) { ++fired; }});
  ScenarioRuntime runtime{sc, world};
  VehicleControl c;
  c.throttle = 0.8;
  for (int i = 0; i < 3000 && !runtime.complete(); ++i) {
    world.apply_ego_control(c);
    world.step(Seconds{0.02});
    runtime.step();
  }
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(runtime.complete());
}

TEST(ScenarioRuntime, TimeoutDetected) {
  World world{make_town05_route()};
  Scenario sc;
  sc.end = Meters{1000.0};
  sc.time_limit = Seconds{1.0};
  ScenarioRuntime runtime{sc, world};
  for (int i = 0; i < 60; ++i) world.step(Seconds{0.02});
  EXPECT_TRUE(runtime.timed_out());
  EXPECT_FALSE(runtime.complete());
}

TEST(TestRouteScenario, IsWellFormed) {
  const Scenario sc = make_test_route_scenario();
  EXPECT_EQ(sc.name, "test-route");
  EXPECT_GT(sc.end, Meters{2000.0});
  EXPECT_GE(sc.pois.size(), 10u);  // enough slots for 10-14 faults per run
  // POIs ordered and inside the route.
  for (std::size_t i = 0; i < sc.pois.size(); ++i) {
    EXPECT_LT(sc.pois[i].from, sc.pois[i].to);
    EXPECT_LE(sc.pois[i].to, sc.end);
    if (i > 0) {
      EXPECT_GE(sc.pois[i].from.value(), sc.pois[i - 1].to.value() - 1e-9);
    }
  }
  // Instructions cover the route without gaps up to the end position.
  for (double s = 0.0; s < sc.end.value(); s += 10.0) {
    const auto instr = sc.instruction_at(Meters{s});
    EXPECT_GE(instr.target_speed, MetersPerSecond{1.0}) << s;
    EXPECT_LT(instr.target_lane, 2) << s;
  }
}

TEST(ScenarioLibrary, FocusedScenariosWellFormed) {
  for (const Scenario& sc :
       {make_following_scenario(), make_slalom_scenario(), make_overtake_scenario()}) {
    EXPECT_FALSE(sc.name.empty());
    EXPECT_GT(sc.end, Meters{100.0});
    EXPECT_GT(sc.time_limit, Seconds{30.0});
  }
  // The slalom scenario must actually contain parked vehicles.
  World world{make_town05_route()};
  ScenarioRuntime runtime{make_slalom_scenario(), world};
  int parked = 0;
  for (const auto& a : world.actors()) {
    if (a->kind() == ActorKind::kStaticVehicle) ++parked;
  }
  EXPECT_EQ(parked, 3);
}

TEST(TestRouteScenario, FollowingPoisCoverBrakingZone) {
  const Scenario sc = make_test_route_scenario();
  bool covered = false;
  for (const auto& poi : sc.pois) {
    if (poi.from <= Meters{2240.0} && poi.to >= Meters{2250.0}) covered = true;
  }
  EXPECT_TRUE(covered);
}

}  // namespace
}  // namespace rdsim::sim
