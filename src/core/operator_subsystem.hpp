// Operator subsystem (§III.A): the remote control station. Presents the
// video feed to the driver (with display latency), samples the driver's
// wheel and pedals at the client command rate, and accumulates the Quality
// of Experience measures behind questionnaire question 4.
#pragma once

#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/protocol.hpp"
#include "sim/frame.hpp"
#include "util/time.hpp"

namespace rdsim::core {

/// QoE bookkeeping over a run: how often and how long the display froze.
struct QoeStats {
  units::Seconds watch_time{};
  units::Seconds frozen_time{};       ///< staleness beyond one frame period
  std::size_t freeze_episodes{0};     ///< freezes longer than 300 ms
  units::Seconds longest_freeze{};
  units::Seconds staleness_sum{};
  std::size_t staleness_samples{0};

  double frozen_fraction() const {
    return watch_time.value() > 0.0 ? frozen_time.value() / watch_time.value() : 0.0;
  }
  units::Seconds mean_staleness() const {
    return staleness_samples > 0
               ? units::Seconds{staleness_sum.value() /
                                static_cast<double>(staleness_samples)}
               : units::Seconds{};
  }

  /// 1..5 subjective score: 5 = indistinguishable from local driving.
  double score() const;
};

class OperatorSubsystem {
 public:
  OperatorSubsystem(const StationConfig& station, DriverModel driver);

  /// A decoded video frame arrived from the network at `now`; it reaches
  /// the driver's eyes after the display latency.
  void on_frame(const sim::WorldFrame& frame, util::TimePoint now);

  /// Sample the station at `now`: updates QoE accounting and, when a
  /// command is due, returns it for transmission.
  std::optional<CommandMsg> poll(util::TimePoint now);

  DriverModel& driver() { return driver_; }
  const QoeStats& qoe() const { return qoe_; }
  std::uint32_t displayed_frame_id() const { return displayed_frame_id_; }
  std::uint64_t frames_displayed() const { return frames_displayed_; }
  std::uint64_t frames_superseded() const { return frames_superseded_; }

 private:
  StationConfig station_;
  DriverModel driver_;

  std::uint32_t displayed_frame_id_{0};
  bool any_frame_{false};
  util::TimePoint last_display_update_{};
  std::uint64_t frames_displayed_{0};
  std::uint64_t frames_superseded_{0};

  util::TimePoint next_command_{};
  std::uint32_t next_seq_{1};
  util::TimePoint last_poll_{};
  bool first_poll_{true};
  units::Seconds current_freeze_{};

  QoeStats qoe_;
};

}  // namespace rdsim::core
