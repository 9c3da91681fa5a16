// The simulated world: actors on a road network plus the CARLA-style sensor
// suite (collision sensor, lane-invasion sensor) whose events the paper's
// data logging records (§V.F).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/actor.hpp"
#include "sim/frame.hpp"
#include "util/time.hpp"

namespace rdsim::sim {

/// Collision sensor event. One event per contact episode: the sensor
/// re-arms only after the bodies separate, matching CARLA's behaviour of a
/// burst per impact rather than one event per physics tick.
struct CollisionEvent {
  util::TimePoint time{};
  std::uint32_t frame{0};
  ActorId other{kInvalidActor};
  ActorKind other_kind{ActorKind::kVehicle};
  double relative_speed{0.0};  ///< closing speed at impact, m/s
};

/// Lane-invasion sensor event: the ego crossed a lane marking.
struct LaneInvasionEvent {
  util::TimePoint time{};
  std::uint32_t frame{0};
  LaneMarking marking{LaneMarking::kBroken};
  int from_lane{0};
  int to_lane{0};
};

class World {
 public:
  explicit World(RoadNetwork road, VehicleParams default_params = {});

  const RoadNetwork& road() const { return road_; }

  // ----- actor management (CARLA spawn API analogue) -----

  /// Spawn at (s, lane) on the road, heading along the lane.
  ActorId spawn_on_road(ActorKind kind, units::Meters s, int lane,
                        std::optional<VehicleParams> params = {},
                        units::MetersPerSecond initial_speed = {},
                        std::string role = {});
  /// Spawn at an arbitrary offset from the reference line (road users that
  /// are not lane-centred, e.g. cyclists near the edge).
  ActorId spawn_at_offset(ActorKind kind, units::Meters s, double lateral,
                          std::optional<VehicleParams> params = {},
                          units::MetersPerSecond initial_speed = {},
                          std::string role = {});
  void set_controller(ActorId id, std::unique_ptr<ActorController> controller);

  Actor* find(ActorId id);
  const Actor* find(ActorId id) const;
  /// Every actor, in id order (ids are dense from 1; none is ever removed).
  std::span<const std::unique_ptr<Actor>> actors() const { return actors_; }
  std::size_t actor_count() const { return actors_.size(); }

  // ----- ego -----

  void designate_ego(ActorId id);
  ActorId ego_id() const { return ego_; }
  Actor& ego();
  const Actor& ego() const;
  void apply_ego_control(const VehicleControl& control);

  // ----- meta-commands -----

  void set_weather(const WeatherConfig& weather) { weather_ = weather; }
  const WeatherConfig& weather() const { return weather_; }

  // ----- stepping & sensing -----

  /// Advance physics and sensors by one step.
  void step(units::Seconds dt);

  util::TimePoint now() const { return now_; }
  std::uint32_t frame_counter() const { return physics_frame_; }

  /// Semantic camera frame of the current state.
  WorldFrame snapshot() const;

  /// The ego's road projection with heading_error filled in — the pose
  /// information a vehicle-side fallback controller (e.g. the mitigation
  /// MRM's in-lane stop) needs to hold its lane without the operator.
  RoadProjection project_ego() const;

  /// Events recorded since construction (the trace logger drains copies).
  const std::vector<CollisionEvent>& collisions() const { return collisions_; }
  const std::vector<LaneInvasionEvent>& lane_invasions() const { return invasions_; }

  /// True while the ego is in contact with another actor.
  bool ego_in_contact() const;

 private:
  /// The collision sensor's state for one actor, against the ego.
  struct Contact {
    bool touching{false};
    std::optional<util::TimePoint> last_collision;
  };

  void sense_collisions();
  void sense_lane_invasion();
  static ActorSnapshot snapshot_actor(const Actor& actor);

  RoadNetwork road_;
  VehicleParams default_params_;
  std::vector<std::unique_ptr<Actor>> actors_;  ///< actors_[id - 1]
  std::vector<Contact> contacts_;                ///< contacts_[id - 1]
  ActorId ego_{kInvalidActor};
  WeatherConfig weather_{};
  util::TimePoint now_{};
  std::uint32_t physics_frame_{0};

  std::vector<CollisionEvent> collisions_;
  std::vector<LaneInvasionEvent> invasions_;
  int last_ego_lane_{0};
  bool ego_lane_valid_{false};
};

}  // namespace rdsim::sim
