// The emulated loopback link, both directions, from send to dispatch.
//
// Mirrors the paper's setup (§V.D): CARLA server and client both run on the
// same host and exchange traffic over the loopback interface, so a single
// egress qdisc on `lo` disturbs *both* the downlink video and the uplink
// driving commands. A Channel is that whole link. It owns its TrafficControl,
// whose one root qdisc takes the packets of both directions; tc verbs go
// through tc(). It also owns the delivery end: each stream id has at most one
// PacketEndpoint, and poll() hands each released packet, verified by its
// framing checksum, to the endpoint of its stream with one virtual call. The
// transports (ReliableStream, DatagramSocket) are those endpoints: each
// registers itself at construction and deregisters in its destructor, so a
// packet still on the link when its transport dies is counted unroutable.
// A Channel must outlive the transports registered on it.
//
// The packet path is allocation-free in steady state: senders build payloads
// in buffers leased from the channel's PayloadPool (acquire_payload) and move
// the finished Packet into send(), which recycles the buffer at once when the
// qdisc drops the packet. A leased buffer holds whatever bytes its last
// packet left: ByteWriter overwrites it and take() cuts it to the bytes
// written, so nothing stale reaches the wire. poll() has the qdisc append
// what it releases to one buffer that keeps its capacity, dispatches each
// packet where it sits, and recycles its payload buffer once the endpoint
// returns. So a pooled buffer is out of the pool only while its packet is on
// the link.
// poll() consults the qdisc's next_event_at() and leaves the queue untouched
// while nothing can be released yet.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/framing.hpp"
#include "net/payload_pool.hpp"
#include "net/tc.hpp"
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

/// The receiving end of one stream id on a Channel.
class PacketEndpoint {
 public:
  /// One verified packet of the endpoint's stream. `body` reads the packet
  /// payload in place and is only valid during the call; the endpoint copies
  /// out whatever must outlive it.
  virtual void on_packet(const ProtocolHeader& header, ByteReader& body,
                         LinkDirection arrived_via, util::TimePoint now) = 0;

 protected:
  ~PacketEndpoint() = default;
};

class Channel {
 public:
  /// `seed` seeds the random streams of the netem rules tc() installs.
  explicit Channel(std::uint64_t seed = 1) : tc_{seed} {}

  /// The link's traffic control: add, change and del its root qdisc here.
  TrafficControl& tc() { return tc_; }

  /// Queue `packet` for transmission at `now`. The channel assigns the
  /// packet id and flow from `dir`; everything else (payload, wire_size)
  /// is the caller's. This is the primary, allocation-free entry point.
  /// A packet the qdisc drops has its payload recycled. Returns the
  /// assigned packet id.
  std::uint64_t send(LinkDirection dir, Packet&& packet, util::TimePoint now);

  /// Convenience overload that wraps `payload` in a fresh Packet. Kept for
  /// tests and tooling: the payload joins the pool once it is delivered or
  /// dropped, so each call grows the pool by one buffer. Production senders
  /// lease a buffer with acquire_payload() and use the Packet&& overload.
  std::uint64_t send(LinkDirection dir, Payload payload, std::uint32_t wire_size,
                     util::TimePoint now);

  /// Route packets carrying `stream_id` to `endpoint`, replacing any earlier
  /// endpoint for that id. The endpoint must deregister before it dies.
  void register_stream(std::uint16_t stream_id, PacketEndpoint& endpoint);

  /// Stop routing `stream_id` to `endpoint`; its later packets count as
  /// unroutable. A no-op when another endpoint has replaced it.
  void deregister_stream(std::uint16_t stream_id, const PacketEndpoint& endpoint);

  /// Deliver what the qdisc releases by `now`: step the qdisc (skipped while
  /// next_event_at() is in the future), count every released packet as
  /// delivered, then dispatch the downlink packets and then the uplink ones,
  /// each in release order. Each packet is verified and handed to its
  /// stream's endpoint in place; a packet failing verification, or whose
  /// stream has no endpoint, is counted and dropped. Packets that endpoints
  /// send meanwhile go into the qdisc, so they leave at a later poll at the
  /// earliest.
  void poll(util::TimePoint now);

  const DirectionStats& stats(LinkDirection dir) const;
  std::uint64_t checksum_failures() const { return checksum_failures_; }
  std::uint64_t unroutable() const { return unroutable_; }

  /// Packets still inside the qdisc (in flight).
  std::size_t in_flight() const { return tc_.root().backlog(); }

  /// Earliest instant the qdisc could release a packet; nullopt while idle.
  std::optional<util::TimePoint> next_event_at() const { return tc_.root().next_event_at(); }

  /// Lease a payload buffer with capacity >= size_hint. Its length and
  /// contents are unspecified: write it through ByteWriter{lease, size}.
  Payload acquire_payload(std::size_t size_hint) { return pool_.acquire(size_hint); }

  /// Hand a payload buffer to the pool for reuse by future sends.
  void recycle(Payload&& payload) { pool_.release(std::move(payload)); }

  const PayloadPool& pool() const { return pool_; }

 private:
  void dispatch(LinkDirection dir, util::TimePoint now);
  DirectionStats& mutable_stats(LinkDirection dir);

  TrafficControl tc_;
  std::uint64_t next_id_{1};
  /// What the last poll released, in release order; empty between polls.
  /// Cleared, never shrunk, so a steady packet flow does not touch the heap.
  std::vector<Packet> released_;
  DirectionStats down_stats_;
  DirectionStats up_stats_;
  PayloadPool pool_;
  std::vector<PacketEndpoint*> endpoints_;  ///< indexed by stream id; null = none
  std::uint64_t checksum_failures_{0};
  std::uint64_t unroutable_{0};
};

}  // namespace rdsim::net
