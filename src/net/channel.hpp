// Bidirectional communication channel over the emulated loopback link.
//
// Mirrors the paper's setup (§V.D): CARLA server and client both run on the
// same host and exchange traffic over the loopback interface, so a single
// egress qdisc on `lo` disturbs *both* the downlink video and the uplink
// driving commands. A Channel therefore pushes packets from both directions
// through the TrafficControl's one root qdisc; delivered packets are routed
// to the destination endpoint's inbox.
//
// The packet path is allocation-free in steady state: senders build payloads
// in buffers leased from the channel's PayloadPool (acquire_payload), move
// the finished Packet into send(), and receivers hand parsed buffers back
// via recycle(). step() consults the qdisc's next_event_at() and returns
// without touching the queue while nothing can be released yet.
#pragma once

#include <optional>

#include "net/payload_pool.hpp"
#include "net/tc.hpp"
#include "util/ring_buffer.hpp"
#include "util/time.hpp"

namespace rdsim::net {

/// Per-direction delivery statistics.
struct DirectionStats {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_delivered{0};
  std::uint64_t bytes_sent{0};
  util::Duration total_latency{};  ///< sum over delivered packets

  units::Millis mean_latency() const {
    return packets_delivered > 0
               ? units::Millis{total_latency.to_millis() /
                               static_cast<double>(packets_delivered)}
               : units::Millis{};
  }
};

class Channel {
 public:
  /// `tc` is borrowed and must outlive the channel.
  explicit Channel(TrafficControl& tc);

  /// Queue `packet` for transmission at `now`. The channel assigns the
  /// packet id and flow from `dir`; everything else (payload, wire_size)
  /// is the caller's. This is the primary, allocation-free entry point.
  /// Returns the assigned packet id.
  std::uint64_t send(LinkDirection dir, Packet&& packet, util::TimePoint now);

  /// Convenience overload that wraps `payload` in a fresh Packet. Kept for
  /// tests and tooling; production senders should lease a buffer with
  /// acquire_payload() and use the Packet&& overload so buffers recycle.
  std::uint64_t send(LinkDirection dir, Payload payload, std::uint32_t wire_size,
                     util::TimePoint now);

  /// Move packets that have cleared the qdisc into the destination inboxes.
  /// Call once per simulation step (idempotent within a step). Early-outs
  /// without touching the qdisc while next_event_at() is in the future.
  void step(util::TimePoint now);

  /// Pop the next delivered packet travelling in `dir`, if any.
  std::optional<Packet> receive(LinkDirection dir);

  bool has_pending(LinkDirection dir) const;
  std::size_t inbox_size(LinkDirection dir) const;

  const DirectionStats& stats(LinkDirection dir) const;

  /// Packets still inside the qdisc (in flight).
  std::size_t in_flight() const { return (*root_)->backlog(); }

  /// Earliest instant the qdisc could release a packet; nullopt while idle.
  std::optional<util::TimePoint> next_event_at() const { return (*root_)->next_event_at(); }

  /// Lease a cleared payload buffer with capacity >= size_hint.
  Payload acquire_payload(std::size_t size_hint) { return pool_.acquire(size_hint); }

  /// Hand a parsed payload buffer back for reuse by future sends.
  void recycle(Payload&& payload) { pool_.release(std::move(payload)); }

  const PayloadPool& pool() const { return pool_; }

 private:
  class DeliverySink;

  void deliver(Packet&& packet, util::TimePoint now);
  util::SeqQueue<Packet>& inbox(LinkDirection dir);
  const util::SeqQueue<Packet>& inbox(LinkDirection dir) const;
  DirectionStats& mutable_stats(LinkDirection dir);

  /// The root slot of the borrowed TrafficControl, which tc add/del re-point.
  const QdiscPtr* root_;
  std::uint64_t next_id_{1};
  // Inboxes are rings, so a steady packet flow reuses their slots and does
  // not touch the heap.
  util::SeqQueue<Packet> to_operator_;  ///< downlink deliveries
  util::SeqQueue<Packet> to_vehicle_;   ///< uplink deliveries
  DirectionStats down_stats_;
  DirectionStats up_stats_;
  PayloadPool pool_;
};

}  // namespace rdsim::net
