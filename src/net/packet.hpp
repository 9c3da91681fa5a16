// Network packet model.
//
// Packets carry an opaque payload plus a declared wire size. The wire size is
// what the queueing disciplines account (serialization time under rate
// limiting, corruption probability scaling), which lets large video frames be
// modelled faithfully without megabytes of padding bytes.
//
// Packets are move-only: the Channel moves a packet from the sender into its
// root qdisc and from there into its release buffer, where the stream's
// endpoint reads it in place; the payload buffer is never copied, and the
// Channel recycles it through a PayloadPool once the endpoint returns, or at
// once when the qdisc drops the packet. The one legitimate copy, netem
// duplication, is spelled explicitly with clone().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace rdsim::net {

using Payload = std::vector<std::uint8_t>;

/// Direction of travel through the teleoperation link, for logging. The
/// paper's loopback setup makes fault injection bidirectional: the same
/// egress qdisc disturbs both.
enum class LinkDirection : std::uint8_t {
  kDownlink,  ///< vehicle -> operator (video/sensor frames)
  kUplink,    ///< operator -> vehicle (driving commands)
};

struct Packet {
  std::uint64_t id{0};             ///< globally unique, assigned by the link
  std::uint32_t flow{0};           ///< flow/classifier id (e.g. per stream)
  Payload payload{};               ///< protocol bytes
  std::uint32_t wire_size{0};      ///< bytes on the wire (>= payload size)
  util::TimePoint enqueued_at{};   ///< when the sender handed it to the link
  bool corrupted{false};           ///< payload damaged by the corrupt qdisc
  bool duplicate{false};           ///< this copy was created by duplication

  Packet() = default;
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;
  Packet(const Packet&) = delete;
  Packet& operator=(const Packet&) = delete;

  /// Deep copy, for netem duplication (the only place a packet forks).
  Packet clone() const {
    Packet copy;
    copy.id = id;
    copy.flow = flow;
    copy.payload = payload;
    copy.wire_size = wire_size;
    copy.enqueued_at = enqueued_at;
    copy.corrupted = corrupted;
    copy.duplicate = duplicate;
    return copy;
  }

  std::uint32_t effective_wire_size() const {
    const auto payload_bytes = static_cast<std::uint32_t>(payload.size());
    return wire_size > payload_bytes ? wire_size : payload_bytes;
  }
};

/// Counters exported by every qdisc and link, mirroring `tc -s qdisc show`.
struct QdiscStats {
  std::uint64_t enqueued{0};
  std::uint64_t dequeued{0};
  std::uint64_t dropped_overlimit{0};  ///< tail drops (queue limit)
  std::uint64_t dropped_loss{0};       ///< netem loss model drops
  std::uint64_t duplicated{0};
  std::uint64_t corrupted{0};
  std::uint64_t reordered{0};
  std::uint64_t bytes_sent{0};

  std::uint64_t total_dropped() const { return dropped_overlimit + dropped_loss; }
  std::string summary() const;
};

}  // namespace rdsim::net
