#include "sim/scenario.hpp"

#include <algorithm>

namespace rdsim::sim {

namespace {
// The scenario library below is dense data entry; short aliases keep the
// typed literals readable.
using M = units::Meters;
using Mps = units::MetersPerSecond;
}  // namespace

DriveInstruction Scenario::instruction_at(units::Meters s) const {
  DriveInstruction current;
  current.target_lane = ego_start_lane;
  current.target_speed = Mps{10.0};
  for (const DriveInstruction& instr : instructions) {
    if (s >= instr.from && s < instr.to) current = instr;
  }
  return current;
}

ScenarioRuntime::ScenarioRuntime(Scenario scenario, World& world)
    : scenario_{std::move(scenario)}, world_{&world} {
  world_->set_weather(scenario_.weather);
  ego_id_ = world_->spawn_on_road(ActorKind::kVehicle, scenario_.ego_start,
                                  scenario_.ego_start_lane, {},
                                  scenario_.ego_initial_speed, "ego");
  world_->designate_ego(ego_id_);
  if (scenario_.populate) scenario_.populate(*world_);
  fired_.assign(scenario_.triggers.size(), false);
}

units::Meters ScenarioRuntime::ego_position() const {
  return world_->ego().track_position();
}

void ScenarioRuntime::step() {
  const units::Meters s = ego_position();
  for (std::size_t i = 0; i < scenario_.triggers.size(); ++i) {
    if (!fired_[i] && s >= scenario_.triggers[i].at) {
      scenario_.triggers[i].action(*world_);
      fired_[i] = true;
    }
  }
}

bool ScenarioRuntime::complete() const { return ego_position() >= scenario_.end; }

bool ScenarioRuntime::timed_out() const {
  return world_->now().to_seconds() >= scenario_.time_limit.value();
}

namespace {

/// Spawn the lead vehicle for a following leg: starts `gap` ahead of
/// `ego_anchor_s`, follows lane 0 with the given speed profile.
void spawn_lead(World& world, M s, std::vector<LaneFollowController::SpeedPoint> profile,
                Mps initial_speed, const std::string& role) {
  const ActorId id =
      world.spawn_on_road(ActorKind::kVehicle, s, 0, {}, initial_speed, role);
  auto ctl = std::make_unique<LaneFollowController>(0, initial_speed);
  ctl->set_speed_profile(std::move(profile));
  world.set_controller(id, std::move(ctl));
}

void spawn_parked(World& world, M s, int lane, const std::string& role,
                  double sloppy_offset = 0.0) {
  // Broken-down vehicles rarely sit dead-centre; `sloppy_offset` shifts
  // them toward the passing lane, tightening the gap the subject must
  // thread (positive = left).
  const double lateral = world.road().lane_center_offset(lane) + sloppy_offset;
  world.spawn_at_offset(ActorKind::kStaticVehicle, s, lateral, {}, Mps{}, role);
}

void spawn_cyclist(World& world, M s, const std::string& role) {
  // Near the right road edge: visible, uncomfortable, but no intervention
  // actually required — the §V.B "false test case".
  const ActorId id =
      world.spawn_at_offset(ActorKind::kCyclist, s, -1.45, {}, Mps{4.0}, role);
  world.set_controller(id,
                       std::make_unique<CyclistController>(Mps{4.0}, M{-1.45}));
}

}  // namespace

Scenario make_test_route_scenario() {
  Scenario sc;
  sc.name = "test-route";
  sc.ego_start = M{0.0};
  sc.ego_start_lane = 0;
  sc.ego_initial_speed = Mps{8.0};
  sc.end = M{2400.0};
  sc.time_limit = units::Seconds{420.0};

  // ---- instruction sheet ----
  // Leg 1 (0-600): follow the lead vehicle in lane 0.
  sc.instructions.push_back(
      {M{0.0}, M{600.0}, 0, Mps{11.0}, M{0.0}, "follow lead vehicle"});
  // Leg 2 (600-980): slalom between sloppily parked vehicles, 70 m apart —
  // one continuous weave, each obstacle passed mid-transition. Nominal
  // clearance ~1.3 m: comfortable with a live view, tight when the view
  // stalls mid-lane-change.
  sc.instructions.push_back(
      {M{600.0}, M{660.0}, 1, Mps{10.5}, M{0.0}, "left past parked #1"});
  sc.instructions.push_back(
      {M{660.0}, M{730.0}, 0, Mps{10.5}, M{0.0}, "right past parked #2"});
  sc.instructions.push_back(
      {M{730.0}, M{830.0}, 1, Mps{10.5}, M{0.0}, "left past parked #3"});
  sc.instructions.push_back(
      {M{830.0}, M{980.0}, 0, Mps{10.0}, M{0.0}, "back to lane 0"});
  // Leg 3 (980-1150): cruise; give cyclist #1 room.
  sc.instructions.push_back(
      {M{980.0}, M{1150.0}, 0, Mps{11.0}, M{0.8}, "pass cyclist with margin"});
  // Leg 4 (1150-1500): overtake the slow vehicle.
  sc.instructions.push_back(
      {M{1150.0}, M{1250.0}, 0, Mps{11.0}, M{0.0}, "approach slow vehicle"});
  sc.instructions.push_back(
      {M{1250.0}, M{1450.0}, 1, Mps{12.0}, M{0.0}, "overtake via lane 1"});
  sc.instructions.push_back(
      {M{1450.0}, M{1600.0}, 0, Mps{11.0}, M{0.0}, "merge back"});
  // Leg 5 (1600-2100): night section with cyclist #2.
  sc.instructions.push_back(
      {M{1600.0}, M{1950.0}, 0, Mps{10.0}, M{0.0}, "night cruise"});
  sc.instructions.push_back(
      {M{1950.0}, M{2100.0}, 0, Mps{10.0}, M{0.8}, "pass cyclist with margin"});
  // Leg 6 (2100-2400): second following leg with a braking lead.
  sc.instructions.push_back(
      {M{2100.0}, M{2400.0}, 0, Mps{10.0}, M{0.0}, "follow braking lead"});

  // ---- points of interest for fault injection ----
  sc.pois.push_back({"following-1", M{120.0}, M{280.0}});
  sc.pois.push_back({"following-2", M{300.0}, M{460.0}});
  sc.pois.push_back({"curve-1", M{460.0}, M{600.0}});
  sc.pois.push_back({"slalom-1", M{600.0}, M{700.0}});
  sc.pois.push_back({"slalom-2", M{700.0}, M{840.0}});
  sc.pois.push_back({"cyclist-1", M{1000.0}, M{1130.0}});
  sc.pois.push_back({"overtake-1", M{1180.0}, M{1330.0}});
  sc.pois.push_back({"overtake-2", M{1330.0}, M{1500.0}});
  sc.pois.push_back({"night-curve", M{1620.0}, M{1800.0}});
  sc.pois.push_back({"cyclist-2", M{1950.0}, M{2080.0}});
  sc.pois.push_back({"following-3", M{2120.0}, M{2230.0}});
  sc.pois.push_back({"following-4", M{2230.0}, M{2390.0}});

  // ---- world population ----
  sc.populate = [](World& world) {
    // Lead vehicle for leg 1: cruises at 10, dips to 6.5 (forces the subject
    // to modulate the gap), recovers, then accelerates away before the
    // slalom zone.
    spawn_lead(world, M{60.0},
               {{M{0.0}, Mps{10.0}},
                {M{250.0}, Mps{6.5}},
                {M{350.0}, Mps{11.0}},
                {M{480.0}, Mps{16.0}}},
               Mps{10.0}, "lead-1");
    // Parked vehicles for the slalom, shifted toward the passing lane.
    spawn_parked(world, M{645.0}, 0, "parked-1", +1.15);
    spawn_parked(world, M{715.0}, 1, "parked-2", -1.15);
    spawn_parked(world, M{785.0}, 0, "parked-3", +1.15);
    // Cyclist #1 rides ahead; the ego catches up in leg 3.
    spawn_cyclist(world, M{620.0}, "cyclist-1");
  };

  // ---- triggered events ----
  sc.triggers.push_back(
      {M{1100.0}, "spawn slow vehicle for the overtake leg", [](World& world) {
         spawn_lead(world, M{1260.0}, {{M{0.0}, Mps{5.0}}}, Mps{5.0}, "slow-lead");
       }});
  sc.triggers.push_back({M{1600.0}, "nightfall", [](World& world) {
                           WeatherConfig w = world.weather();
                           w.night = true;
                           world.set_weather(w);
                         }});
  sc.triggers.push_back(
      {M{1500.0}, "spawn cyclist #2 on the night section", [](World& world) {
         spawn_cyclist(world, M{1760.0}, "cyclist-2");
       }});
  sc.triggers.push_back(
      {M{2020.0}, "spawn braking lead for the final following leg", [](World& world) {
         // Dips hard to near-standstill — the leg that stresses braking
         // response the way a city shuttle stop would.
         // Staged braking, ~3 m/s^2 overall: hard enough to demand a prompt
         // response, soft enough that an undisturbed driver always stops.
         spawn_lead(world, M{2065.0},
                    {{M{0.0}, Mps{9.0}},
                     {M{2240.0}, Mps{6.0}},
                     {M{2244.0}, Mps{3.0}},
                     {M{2248.0}, Mps{0.8}},
                     {M{2252.0}, Mps{0.3}},
                     {M{2258.0}, Mps{12.0}}},
                    Mps{9.0}, "lead-2");
       }});
  return sc;
}

Scenario make_following_scenario() {
  Scenario sc;
  sc.name = "following";
  sc.ego_initial_speed = Mps{8.0};
  sc.end = M{500.0};
  sc.time_limit = units::Seconds{120.0};
  sc.instructions.push_back(
      {M{0.0}, M{500.0}, 0, Mps{11.0}, M{0.0}, "follow the lead vehicle"});
  sc.pois.push_back({"following", M{100.0}, M{450.0}});
  sc.populate = [](World& world) {
    spawn_lead(world, M{60.0},
               {{M{0.0}, Mps{10.0}}, {M{250.0}, Mps{6.5}}, {M{350.0}, Mps{11.0}}},
               Mps{10.0}, "lead");
  };
  return sc;
}

Scenario make_slalom_scenario() {
  Scenario sc;
  sc.name = "slalom";
  sc.ego_initial_speed = Mps{8.0};
  sc.end = M{450.0};
  sc.time_limit = units::Seconds{120.0};
  sc.instructions.push_back({M{0.0}, M{162.0}, 0, Mps{9.5}, M{0.0}, "approach"});
  sc.instructions.push_back(
      {M{162.0}, M{232.0}, 1, Mps{9.5}, M{0.0}, "left past parked #1"});
  sc.instructions.push_back(
      {M{232.0}, M{302.0}, 0, Mps{9.5}, M{0.0}, "right past parked #2"});
  sc.instructions.push_back(
      {M{302.0}, M{450.0}, 1, Mps{9.5}, M{0.0}, "left past parked #3"});
  sc.pois.push_back({"slalom", M{160.0}, M{420.0}});
  sc.populate = [](World& world) {
    spawn_parked(world, M{200.0}, 0, "parked-1", +0.3);
    spawn_parked(world, M{270.0}, 1, "parked-2", -0.3);
    spawn_parked(world, M{340.0}, 0, "parked-3", +0.3);
  };
  return sc;
}

Scenario make_overtake_scenario() {
  Scenario sc;
  sc.name = "overtake";
  sc.ego_initial_speed = Mps{10.0};
  sc.end = M{500.0};
  sc.time_limit = units::Seconds{120.0};
  sc.instructions.push_back(
      {M{0.0}, M{120.0}, 0, Mps{11.0}, M{0.0}, "approach slow vehicle"});
  sc.instructions.push_back(
      {M{120.0}, M{320.0}, 1, Mps{12.0}, M{0.0}, "overtake via lane 1"});
  sc.instructions.push_back({M{320.0}, M{500.0}, 0, Mps{11.0}, M{0.0}, "merge back"});
  sc.pois.push_back({"overtake", M{80.0}, M{350.0}});
  sc.populate = [](World& world) {
    spawn_lead(world, M{130.0}, {{M{0.0}, Mps{5.0}}}, Mps{5.0}, "slow-lead");
  };
  return sc;
}

Scenario make_pedestrian_crossing_scenario() {
  Scenario sc;
  sc.name = "pedestrian-crossing";
  sc.ego_initial_speed = Mps{8.0};
  sc.end = M{400.0};
  sc.time_limit = units::Seconds{120.0};
  sc.instructions.push_back(
      {M{0.0}, M{400.0}, 0, Mps{10.0}, M{0.0}, "watch for pedestrians"});
  sc.pois.push_back({"crossing", M{120.0}, M{260.0}});
  sc.populate = [](World& world) {
    // Waiting at the right kerb, 200 m in.
    const ActorId id =
        world.spawn_at_offset(ActorKind::kWalker, M{200.0}, -2.2, {}, Mps{}, "walker-1");
    world.set_controller(
        id, std::make_unique<WalkerController>(/*walk_speed=*/Mps{1.4},
                                               /*target_lateral=*/M{5.3}));
  };
  // The pedestrian commits when the ego is ~3.5 s away at the instructed
  // speed: a classic conflict the remote driver must brake for.
  sc.triggers.push_back({M{165.0}, "pedestrian steps off the kerb", [](World& world) {
                           for (const Actor* a : world.actors()) {
                             if (a->kind() != ActorKind::kWalker) continue;
                             // Controllers are owned by the actor; install a
                             // crossing controller in place of the waiting one.
                             auto ctl =
                                 std::make_unique<WalkerController>(Mps{1.4}, M{5.3});
                             ctl->start_crossing();
                             world.set_controller(a->id(), std::move(ctl));
                           }
                         }});
  return sc;
}

}  // namespace rdsim::sim
