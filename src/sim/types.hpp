// Fundamental simulator types, mirroring the CARLA client API surface the
// paper's test rig uses: actors with ids and bounding boxes, and the vehicle
// control tuple (steer / throttle / brake / reverse) that the remote station
// transmits (§II.B, §V.D).
#pragma once

#include <cstdint>
#include <string>

#include "util/vec2.hpp"

namespace rdsim::sim {

using ActorId = std::uint32_t;
inline constexpr ActorId kInvalidActor = 0;

enum class ActorKind : std::uint8_t {
  kVehicle,
  kStaticVehicle,  ///< parked / broken-down vehicles (lane-change scenario)
  kCyclist,        ///< the false-positive road users of §V.B
  kWalker,         ///< no scenario spawns one; kept as frame-codec value 3
};

std::string to_string(ActorKind kind);

/// The control tuple a CARLA client sends. Ranges follow CARLA:
/// throttle/brake in [0,1], steer in [-1,1] (fraction of max wheel angle).
struct VehicleControl {
  double throttle{0.0};
  double steer{0.0};
  double brake{0.0};
  bool reverse{false};
  bool hand_brake{false};

  VehicleControl clamped() const {
    return {util::clamp(throttle, 0.0, 1.0), util::clamp(steer, -1.0, 1.0),
            util::clamp(brake, 0.0, 1.0), reverse, hand_brake};
  }
  friend bool operator==(const VehicleControl&, const VehicleControl&) = default;
};

/// Full kinematic state logged for every actor (§V.F: x, y, z, v*, a*).
struct KinematicState {
  util::Vec2 position{};
  double z{0.0};
  double heading{0.0};    ///< radians, CCW from +x
  util::Vec2 velocity{};  ///< world frame, m/s
  util::Vec2 accel{};     ///< world frame, m/s^2

  double speed() const { return velocity.norm(); }
  util::Pose pose() const { return {position, heading}; }
};

/// Axis-aligned-in-body-frame bounding box (half extents), as CARLA exposes.
struct BoundingBox {
  double half_length{2.3};  ///< along heading
  double half_width{0.95};

  /// The four corners in world coordinates for a given pose.
  void corners(const util::Pose& pose, util::Vec2 out[4]) const;
};

/// Oriented-rectangle overlap via the separating axis theorem.
bool boxes_overlap(const BoundingBox& a, const util::Pose& pa, const BoundingBox& b,
                   const util::Pose& pb);

/// Weather / lighting configuration — a CARLA meta-command. Only visibility
/// matters to the operator model (night driving adds perceptual noise).
struct WeatherConfig {
  bool night{false};
  double fog_density{0.0};  ///< [0,1]

  /// Multiplier >= 1 applied to the operator's perceptual noise.
  double perception_noise_factor() const {
    return 1.0 + (night ? 0.25 : 0.0) + 0.5 * fog_density;
  }
};

}  // namespace rdsim::sim
