// Driving scenarios.
//
// §V.B: scenarios were designed from Swedish driving-licence proficiency
// requirements — follow a vehicle, lane change past stationary vehicles
// (slalom), overtake — on a route with day and night conditions, one dynamic
// and a few static road users, plus two "false" cases (cyclists where the
// driver might think intervention is needed but it is not).
//
// A Scenario is data: where the ego starts, the instructions the test leader
// gives ("take the left lane now", §V.E.2), the points of interest where the
// fault injector may strike, and triggered events (spawns, weather changes,
// lead-vehicle braking). ScenarioRuntime executes the triggers against a
// World as the ego progresses.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/world.hpp"

namespace rdsim::sim {

/// One leg of the route instruction sheet: between arc positions `from` and
/// `to` the subject is asked to keep `target_lane` (with an optional lateral
/// bias for e.g. giving a cyclist room) at roughly `target_speed`.
struct DriveInstruction {
  units::Meters from{};
  units::Meters to{};
  int target_lane{0};
  units::MetersPerSecond target_speed{10.0};
  units::Meters lateral_bias{};  ///< + left of the lane centre
  std::string note{};
};

/// A point of interest where faults are injected (§V.C: "points of interest
/// while following a vehicle, and when performing lane change operations").
struct PoiWindow {
  std::string name;
  units::Meters from{};
  units::Meters to{};
};

/// Deferred world mutation fired when the ego reaches arc position `at`.
struct Trigger {
  units::Meters at{};
  std::string description;
  std::function<void(World&)> action;
};

struct Scenario {
  std::string name;
  units::Meters ego_start{};
  int ego_start_lane{0};
  units::MetersPerSecond ego_initial_speed{};
  units::Meters end{};              ///< run completes when the ego passes this
  units::Seconds time_limit{600.0}; ///< hard stop (subject lost / stuck)
  WeatherConfig weather{};
  std::vector<DriveInstruction> instructions;
  std::vector<PoiWindow> pois;
  std::vector<Trigger> triggers;
  /// Actors present from the start (the triggers add the rest).
  std::function<void(World&)> populate;

  /// Instruction in force at route position `s` (the latest one whose window
  /// contains s; defaults keep lane 0 at 10 m/s).
  DriveInstruction instruction_at(units::Meters s) const;
};

/// Executes a scenario against a world: spawns the ego and initial actors,
/// fires triggers, tracks completion.
class ScenarioRuntime {
 public:
  ScenarioRuntime(Scenario scenario, World& world);

  /// Fire any triggers due at the ego's current position. Call every step.
  void step();

  bool complete() const;
  bool timed_out() const;
  const Scenario& scenario() const { return scenario_; }
  ActorId ego_id() const { return ego_id_; }
  /// Ego arc position along the route.
  units::Meters ego_position() const;

 private:
  Scenario scenario_;
  World* world_;
  ActorId ego_id_{kInvalidActor};
  std::vector<bool> fired_;
};

// ----- scenario library -----

/// The full test route used in the experiments: following + slalom +
/// cyclists + overtake + night section + second following leg. ~2.4 km.
Scenario make_test_route_scenario();

/// Isolated legs, used by unit tests and the focused examples.
Scenario make_following_scenario();
Scenario make_slalom_scenario();
Scenario make_overtake_scenario();

/// Extension beyond the paper's operational domain: a pedestrian steps off
/// the kerb and crosses as the ego approaches. The paper's introduction
/// motivates exactly this risk ("environments with manual vehicles or
/// pedestrians"); its Town 5 OD contained no walkers.
Scenario make_pedestrian_crossing_scenario();

}  // namespace rdsim::sim
