// Configuration of the remote driving system under test.
//
// StationConfig captures Table I (the driving station) plus the timing
// characteristics that matter to the closed loop: video frame rate (the
// paper reports 25–30 fps), display latency, input-device latency and the
// command rate of the CARLA client. RdsConfig assembles the full system:
// transports, frame sizes and the loop rates of the testbed.
#pragma once

#include <optional>
#include <string>

#include "net/reliable_stream.hpp"
#include "sim/vehicle.hpp"
#include "util/units.hpp"

namespace rdsim::core {

/// Table I — Technical Specifications for Driving Station. The hardware
/// strings are documentation; the numeric fields feed the models.
struct StationConfig {
  std::string cpu_ram{"Intel Core i7-12700K (12-core), 16 Gb RAM"};
  std::string monitor{"34\" Samsung WQHD (3440x1440) curved"};
  std::string input_device{"Logitech G27 steering wheel and pedals"};
  std::string gpu{"NVIDIA GeForce RTX 3080, 10 Gb"};
  std::string operating_system{"Ubuntu 18.04"};
  std::string nvidia_driver{"470.103.01"};

  double video_fps{27.0};                  ///< §V.A: 25-30 fps
  units::Millis display_latency{12.0};     ///< scan-out + panel latency
  units::Millis input_latency{8.0};        ///< USB polling + driver
  double wheel_range_deg{900.0};           ///< G27 lock-to-lock
  double command_rate_hz{30.0};            ///< CARLA client control loop
};

/// Video encoding model: frames are semantic snapshots but their declared
/// wire size models the transported bitstream so the network treats them
/// like real traffic. CARLA's sensor stream ships *uncompressed* images, so
/// one camera frame is megabytes: ~6 MB here, i.e. ~92 TCP segments on a
/// 64 KB-MTU loopback. That multiplicity is what makes the paper's loss
/// grades so different: at loss rate p virtually every frame loses a
/// segment once 31p >~ 1 (brief fast-retransmit stutter), and a frame takes
/// a full RTO freeze (200 ms+) when a retransmission is lost too, at rate
/// ~92 p^2 per frame — negligible at 1 %, every few seconds at 2 %, several
/// times per second at 5 %, and continuous at 10 %.
struct VideoConfig {
  std::uint32_t frame_wire_bytes{6000000};
};

/// The full RDS assembly.
struct RdsConfig {
  StationConfig station{};
  VideoConfig video{};
  net::StreamConfig transport{};        ///< shared by video & command streams
  sim::VehicleParams vehicle{};
  double road_scale{1.0};               ///< world geometry scale (model rig: 0.25)

  double physics_hz{100.0};
  double comms_hz{400.0};               ///< network/operator sub-tick rate

  /// Use unreliable datagrams instead of the TCP-like stream (ablation).
  bool datagram_video{false};
  bool datagram_commands{false};

  /// Why this configuration cannot run, naming the field, or nullopt when it
  /// can: loop rates must be finite and positive (the session divides by
  /// them), the stream window must hold at least one segment, and the MTU
  /// must be positive and split a video frame into at most 65 535 segments
  /// (the segment count travels as a u16).
  std::optional<std::string> validate() const;

  /// Configuration approximating the remotely operated scaled-down model
  /// vehicle used for the §VIII validity comparison: faster plant, lower
  /// resolution / rate camera link, snappier control loop.
  static RdsConfig scaled_model_vehicle();
};

}  // namespace rdsim::core
