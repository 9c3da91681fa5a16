// LinkQualityEstimator: the operator-side view of how healthy the link is,
// computed purely from observables that already flow through the transports
// and the frame path — the transport's smoothed RTT, the retransmit
// fraction over the estimation window, and the displayed-frame staleness.
// No probe traffic, no RNG: estimation never perturbs the simulation.
#pragma once

#include "mitigate/mitigation.hpp"
#include "net/transport.hpp"
#include "util/time.hpp"

namespace rdsim::mitigate {

/// One smoothed link-quality estimate.
struct LinkQuality {
  units::Millis rtt{};         ///< EWMA over the transport SRTT
  double loss{0.0};            ///< EWMA retransmit fraction, [0, 1]
  units::Seconds staleness{};  ///< displayed-frame age (instantaneous)
  bool rtt_valid{false};       ///< any RTT sample folded yet
  bool staleness_valid{false}; ///< a frame has been displayed
};

class LinkQualityEstimator {
 public:
  explicit LinkQualityEstimator(EstimatorConfig config);

  /// Fold the current observables at `now`. A datagram transport reports
  /// all-zero stats (no SRTT / retransmit telemetry), which leaves RTT and
  /// loss untouched; with both directions on datagrams the governor acts on
  /// staleness alone. `staleness` is the displayed-frame age; pass +inf
  /// while no frame has been displayed yet. Samples are taken at the
  /// configured cadence; returns true when an estimate was refreshed.
  bool update(const net::StreamStats& video, const net::StreamStats& command,
              units::Seconds staleness, util::TimePoint now);

  const LinkQuality& quality() const { return quality_; }
  const EstimatorConfig& config() const { return config_; }

 private:
  EstimatorConfig config_;
  LinkQuality quality_{};
  util::TimePoint next_update_{};
  bool first_update_{true};
  bool rtt_seeded_{false};
  bool loss_seeded_{false};
  std::uint64_t prev_first_tx_{0};
  std::uint64_t prev_retx_{0};
};

}  // namespace rdsim::mitigate
