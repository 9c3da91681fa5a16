#include "mitigate/link_quality.hpp"

#include <algorithm>
#include <cmath>

#include "check/contracts.hpp"
#include "net/transport.hpp"
#include "util/time.hpp"

namespace rdsim::mitigate {

LinkQualityEstimator::LinkQualityEstimator(EstimatorConfig config)
    : config_{config} {
  RDSIM_REQUIRE(config_.update_period > units::Seconds{},
                "estimator update period must be positive");
  RDSIM_REQUIRE(config_.rtt_alpha > 0.0 && config_.rtt_alpha <= 1.0,
                "rtt_alpha must be in (0, 1]");
  RDSIM_REQUIRE(config_.loss_alpha > 0.0 && config_.loss_alpha <= 1.0,
                "loss_alpha must be in (0, 1]");
}

bool LinkQualityEstimator::update(const net::StreamStats& video,
                                  const net::StreamStats& command,
                                  units::Seconds staleness, util::TimePoint now) {
  if (first_update_) {
    next_update_ = now;
    first_update_ = false;
  }
  if (now < next_update_) return false;
  next_update_ += config_.update_period.to_duration();

  // Staleness is an instantaneous observable: +inf means no frame has been
  // displayed yet (cold start, not a network fault) — report it invalid so
  // the governor does not escalate before the pipeline has produced output.
  if (std::isfinite(staleness.value())) {
    RDSIM_REQUIRE(staleness >= units::Seconds{}, "staleness cannot be negative");
    quality_.staleness = staleness;
    quality_.staleness_valid = true;
  }

  // RTT: the transports already smooth their RTT estimate (RFC 6298 SRTT);
  // fold the worst live stream through a second, slower EWMA so the
  // governor sees a stable signal rather than per-ACK jitter.
  const units::Millis srtt_sample = std::max(video.srtt, command.srtt);
  if (srtt_sample > units::Millis{}) {
    quality_.rtt = rtt_seeded_
                       ? quality_.rtt + config_.rtt_alpha * (srtt_sample - quality_.rtt)
                       : srtt_sample;
    rtt_seeded_ = true;
    quality_.rtt_valid = true;
  }

  // Loss: retransmit fraction over this estimation window. Retransmissions
  // are the transport's own reaction to loss, so the fraction tracks the
  // injected loss rate without any second tally (one source of truth).
  const std::uint64_t first_tx = video.segments_sent + command.segments_sent;
  const std::uint64_t retx = video.retransmits_rto + video.retransmits_fast +
                             command.retransmits_rto + command.retransmits_fast;
  RDSIM_REQUIRE(first_tx >= prev_first_tx_ && retx >= prev_retx_,
                "stream counters must be monotone");
  const std::uint64_t d_first = first_tx - prev_first_tx_;
  const std::uint64_t d_retx = retx - prev_retx_;
  prev_first_tx_ = first_tx;
  prev_retx_ = retx;
  if (d_first + d_retx > 0) {
    const double sample = static_cast<double>(d_retx) /
                          static_cast<double>(d_first + d_retx);
    quality_.loss = loss_seeded_
                        ? quality_.loss + config_.loss_alpha * (sample - quality_.loss)
                        : sample;
    loss_seeded_ = true;
  }
  RDSIM_ENSURE(quality_.loss >= 0.0 && quality_.loss <= 1.0,
               "loss fraction must stay in [0, 1]");
  return true;
}

}  // namespace rdsim::mitigate
