// Actors: every dynamic or static object in the world that the sensors can
// see and the ego vehicle can hit. Non-ego road users are driven by small
// behaviour controllers (CARLA's "autopilot" role in the paper's scenarios).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "sim/road.hpp"
#include "sim/vehicle.hpp"
#include "util/vec2.hpp"

namespace rdsim::sim {

class Actor;

/// Behaviour controller for scripted road users.
class ActorController {
 public:
  virtual ~ActorController() = default;
  virtual void update(Actor& actor, const RoadNetwork& road, units::Seconds dt) = 0;
};

class Actor {
 public:
  Actor(ActorId id, ActorKind kind, VehicleParams params)
      : id_{id}, kind_{kind}, vehicle_{params} {}

  ActorId id() const { return id_; }
  ActorKind kind() const { return kind_; }
  const std::string& role() const { return role_; }
  void set_role(std::string role) { role_ = std::move(role); }

  Vehicle& vehicle() { return vehicle_; }
  const Vehicle& vehicle() const { return vehicle_; }
  const KinematicState& state() const { return vehicle_.state(); }
  const BoundingBox& bbox() const { return vehicle_.params().bbox; }
  util::Pose pose() const { return vehicle_.state().pose(); }

  void set_controller(std::unique_ptr<ActorController> controller) {
    controller_ = std::move(controller);
  }
  bool has_controller() const { return controller_ != nullptr; }

  /// The actor's road projection at its current position (heading_error
  /// unset). The world computes it at spawn and after every move in
  /// World::step; code that moves an actor by hand between steps sees the
  /// projection from before the move.
  const RoadProjection& projection() const { return projection_; }
  void set_projection(const RoadProjection& projection) { projection_ = projection; }
  /// Arc length along the route, from the cached projection.
  units::Meters track_position() const { return units::Meters{projection_.s}; }

  void step(const RoadNetwork& road, units::Seconds dt) {
    if (controller_) controller_->update(*this, road, dt);
    // Static vehicles don't move; walkers are integrated by their
    // controller, not by the wheeled-plant dynamics.
    if (kind_ != ActorKind::kStaticVehicle && kind_ != ActorKind::kWalker) {
      vehicle_.step(dt);
    }
  }

 private:
  ActorId id_;
  ActorKind kind_;
  std::string role_;
  Vehicle vehicle_;
  std::unique_ptr<ActorController> controller_;
  RoadProjection projection_{};
};

/// Follows a lane at a scripted speed profile — the "dynamic vehicle" the
/// test subjects follow and overtake (§V.B). Speed breakpoints are linear in
/// the controller's own track position.
class LaneFollowController final : public ActorController {
 public:
  struct SpeedPoint {
    units::Meters s;              ///< breakpoint position along the route
    units::MetersPerSecond speed; ///< target from this position on
  };

  LaneFollowController(int lane, units::MetersPerSecond cruise_speed);

  /// Replace the constant cruise speed with a piecewise profile.
  void set_speed_profile(std::vector<SpeedPoint> profile);
  void set_lane(int lane) { lane_ = lane; }

  void update(Actor& actor, const RoadNetwork& road, units::Seconds dt) override;

 private:
  units::MetersPerSecond target_speed_at(units::Meters s) const;

  int lane_;
  units::MetersPerSecond cruise_speed_;
  std::vector<SpeedPoint> profile_;
};

/// A pedestrian crossing the carriageway at walking pace. Starts parked at
/// the roadside; once switched to crossing (typically by a scenario
/// trigger when the ego approaches) it walks laterally across the lanes and
/// stops on the far side. Motion is integrated directly — walkers are not
/// wheeled plants.
class WalkerController final : public ActorController {
 public:
  /// `target_lateral` is where the walker stops (far kerb).
  WalkerController(units::MetersPerSecond walk_speed, units::Meters target_lateral);

  void start_crossing() { crossing_ = true; }
  bool crossing() const { return crossing_; }
  bool done() const { return done_; }

  void update(Actor& actor, const RoadNetwork& road, units::Seconds dt) override;

 private:
  units::MetersPerSecond walk_speed_;
  units::Meters target_lateral_;
  bool crossing_{false};
  bool done_{false};
};

/// Rides near the right road edge at cycling speed with a gentle wobble —
/// the "false test case" road users a remote driver might misread (§V.B).
class CyclistController final : public ActorController {
 public:
  CyclistController(units::MetersPerSecond speed, units::Meters edge_offset,
                    double wobble_amp = 0.15,
                    units::Seconds wobble_period = units::Seconds{3.0});

  void update(Actor& actor, const RoadNetwork& road, units::Seconds dt) override;

 private:
  units::MetersPerSecond speed_;
  units::Meters edge_offset_;
  double wobble_amp_;
  units::Seconds wobble_period_;
  units::Seconds phase_{};
};

}  // namespace rdsim::sim
