// CommandWatchdog + minimal-risk-maneuver controller.
//
// Runs on the *vehicle* side of the link, so it keeps working precisely
// when the network does not. Every physics tick it is fed the vehicle's own
// QoS view of the uplink (command age, §III.A) plus the ego's road
// projection; when commands go stale beyond the deadline it takes over with
// a deterministic controlled in-lane stop: service-level braking plus
// lane-hold steering from the road projection, holding the vehicle at
// standstill until the operator's commands flow again.
#pragma once

#include <optional>

#include "mitigate/mitigation.hpp"
#include "obs/metrics.hpp"
#include "sim/road.hpp"
#include "sim/types.hpp"
#include "util/time.hpp"

namespace rdsim::mitigate {

class MrmController {
 public:
  /// `max_brake_decel` is the plant's full-brake deceleration, used to map
  /// the configured MRM decel onto a pedal fraction.
  MrmController(WatchdogConfig config, units::MetersPerSecond2 max_brake_decel);

  /// One physics tick. `command_age` may be +inf before the first command
  /// (pre-handover grace: the watchdog only arms once the operator has ever
  /// been in control). `proj` must carry a caller-filled heading_error.
  /// Returns the override control while the MRM is engaged, nullopt when
  /// the operator is in control.
  std::optional<sim::VehicleControl> update(units::Seconds command_age,
                                            units::MetersPerSecond forward_speed,
                                            const sim::RoadProjection& proj,
                                            units::Seconds dt,
                                            util::TimePoint now);

  bool engaged() const { return engaged_; }
  std::uint64_t watchdog_firings() const { return firings_; }
  std::uint64_t activations() const { return activations_; }
  units::Seconds engaged_time() const { return engaged_time_; }
  bool reached_standstill() const { return reached_standstill_; }
  const WatchdogConfig& config() const { return config_; }

 private:
  sim::VehicleControl mrm_control(units::MetersPerSecond forward_speed,
                                  const sim::RoadProjection& proj) const;

  WatchdogConfig config_;
  units::MetersPerSecond2 max_brake_decel_;
  bool engaged_{false};
  bool was_stale_{false};
  bool stop_complete_{false};  ///< this MRM has reached standstill
  bool reached_standstill_{false};
  std::uint64_t firings_{0};
  std::uint64_t activations_{0};
  units::Seconds engaged_time_{};
  std::size_t mrm_span_{obs::kNoSpan};  ///< open MRM trace span
};

}  // namespace rdsim::mitigate
