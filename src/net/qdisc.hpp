// Queueing-discipline interface, modelled on Linux traffic control.
//
// A qdisc receives packets on enqueue and releases them at (virtual) times of
// its choosing. dequeue_ready() appends every packet whose release time has
// passed, in release order, to a caller-owned vector. The Channel drives this
// from the shared virtual clock into one release buffer that keeps its
// capacity, and early-outs on next_event_at(), so idle links cost one
// comparison per tick and busy links move packets without allocating.
//
// Every qdisc exposes the same introspection surface:
//   stats()          cumulative tc -s counters
//   backlog()        packets currently queued
//   backlog_bytes()  wire bytes currently queued (effective_wire_size sum)
//   next_event_at()  earliest pending release time, nullopt when idle
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"

namespace rdsim::net {

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  /// Hand a packet to the discipline at time `now`. The qdisc may drop it
  /// (loss model or over-limit), duplicate it, corrupt it, or schedule it.
  virtual void enqueue(Packet packet, util::TimePoint now) = 0;

  /// Append every packet whose scheduled release time is <= now to `out`,
  /// in release order.
  virtual void dequeue_ready(util::TimePoint now, std::vector<Packet>& out) = 0;

  /// Earliest pending release time, or nullopt when idle. The contract that
  /// makes event-driven stepping sound: while now < next_event_at(), a call
  /// to dequeue_ready() would release nothing and have no observable effect,
  /// so callers may skip it entirely.
  virtual std::optional<util::TimePoint> next_event_at() const = 0;

  /// Packets currently queued.
  virtual std::size_t backlog() const = 0;

  /// Wire bytes currently queued (sum of effective_wire_size).
  virtual std::uint64_t backlog_bytes() const = 0;

  virtual const QdiscStats& stats() const = 0;
  virtual std::string kind() const = 0;

  /// Convenience for tests and tooling: the ready packets in a fresh vector.
  std::vector<Packet> drain(util::TimePoint now);

  /// `tc -s qdisc show`-style one-liner: kind, counters, live backlog.
  std::string summary() const;
};

using QdiscPtr = std::unique_ptr<Qdisc>;

/// pfifo: plain FIFO with a packet-count limit and tail drop. This is the
/// Linux default qdisc the paper's loopback interface runs when no netem
/// rule is installed — packets pass through with zero added latency.
class FifoQdisc final : public Qdisc {
 public:
  explicit FifoQdisc(std::size_t limit_packets = 1000) : limit_{limit_packets} {}

  void enqueue(Packet packet, util::TimePoint now) override;
  void dequeue_ready(util::TimePoint now, std::vector<Packet>& out) override;
  std::optional<util::TimePoint> next_event_at() const override;
  std::size_t backlog() const override { return queue_.size(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  const QdiscStats& stats() const override { return stats_; }
  std::string kind() const override { return "pfifo"; }

 private:
  std::size_t limit_;
  std::vector<Packet> queue_;
  std::uint64_t backlog_bytes_{0};
  QdiscStats stats_;
};

}  // namespace rdsim::net
