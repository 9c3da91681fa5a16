#include "core/config.hpp"

#include <cmath>

#include "net/reliable_stream.hpp"
#include "sim/vehicle.hpp"

namespace rdsim::core {

std::optional<std::string> RdsConfig::validate() const {
  const auto runnable_rate = [](double hz) { return std::isfinite(hz) && hz > 0.0; };
  if (!runnable_rate(physics_hz)) return "RdsConfig.physics_hz must be finite and > 0";
  if (!runnable_rate(comms_hz)) return "RdsConfig.comms_hz must be finite and > 0";
  if (transport.window_segments == 0) {
    return "RdsConfig.transport.window_segments must be > 0";
  }
  if (transport.mtu == 0) return "RdsConfig.transport.mtu must be > 0";
  if (transport.segments_for(video.frame_wire_bytes) > net::StreamConfig::kMaxSegments) {
    return "RdsConfig.transport.mtu is too small: video.frame_wire_bytes needs more "
           "than 65535 segments";
  }
  return std::nullopt;
}

RdsConfig RdsConfig::scaled_model_vehicle() {
  RdsConfig cfg;
  cfg.station.video_fps = 30.0;
  cfg.station.display_latency = units::Millis{8.0};
  cfg.station.command_rate_hz = 50.0;
  // Smartphone-class camera link (§II.A, Liu et al.): smaller frames, still
  // split into a couple of radio-sized packets.
  cfg.video.frame_wire_bytes = 60000;
  cfg.transport.mtu = 8000;        // radio-sized packets: 8 per frame
  cfg.transport.window_segments = 32;  // small radio link buffer
  cfg.vehicle = sim::VehicleParams::scaled_model_vehicle();
  cfg.road_scale = 0.25;  // quarter-scale course to match the vehicle
  return cfg;
}

}  // namespace rdsim::core
