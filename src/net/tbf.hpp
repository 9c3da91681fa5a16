// Token Bucket Filter qdisc (`tc qdisc add ... tbf rate ... burst ...`).
//
// Included because the paper's related work shapes bandwidth. No experiment,
// bench or example builds one: TrafficControl installs only netem rules, and
// only the unit tests construct a TbfQdisc directly.
#pragma once

#include <deque>
#include <optional>

#include "net/qdisc.hpp"
#include "util/units.hpp"

namespace rdsim::net {

struct TbfConfig {
  units::BytesPerSecond rate{125000.0};  ///< sustained rate (default 1 Mbit/s)
  double burst_bytes{16000.0};           ///< bucket depth
  std::size_t limit{1000};               ///< queue limit, packets
};

class TbfQdisc final : public Qdisc {
 public:
  explicit TbfQdisc(TbfConfig config) : config_{config}, tokens_{config.burst_bytes} {}

  const TbfConfig& config() const { return config_; }

  void enqueue(Packet packet, util::TimePoint now) override;
  void dequeue_ready(util::TimePoint now, PacketSink& sink) override;
  std::optional<util::TimePoint> next_event_at() const override;
  std::size_t backlog() const override { return queue_.size(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  void clear() override {
    queue_.clear();
    backlog_bytes_ = 0;
  }
  const QdiscStats& stats() const override { return stats_; }
  std::string kind() const override { return "tbf"; }

 private:
  void refill(util::TimePoint now);

  TbfConfig config_;
  double tokens_;
  util::TimePoint last_refill_{};
  std::deque<Packet> queue_;
  std::uint64_t backlog_bytes_{0};
  QdiscStats stats_;
};

}  // namespace rdsim::net
