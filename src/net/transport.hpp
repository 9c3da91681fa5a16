// The message transport seam: what the teleop loop needs from a link.
//
// Two implementations sit behind it. ReliableStream is the TCP analogue the
// paper's CARLA link runs on (§II.B); DatagramSocket is the latest-wins UDP
// analogue used by the transport ablation (DESIGN decision #1). The session
// picks one per direction at construction and from then on drives both the
// same way each tick: send, step, drain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace rdsim::net {

/// A message handed up to the application by the receiver side.
struct DeliveredMessage {
  Payload bytes;
  std::uint32_t message_id{0};     ///< sender-assigned, dense from 0
  util::TimePoint sent_at{};       ///< when the sender queued the message
  util::TimePoint delivered_at{};  ///< when delivery completed
  util::Duration latency() const { return delivered_at - sent_at; }
};

/// Reliable-transport telemetry. A transport without retransmission or RTT
/// estimation (datagrams) reports all zeros, which consumers read as "no
/// telemetry".
struct StreamStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t segments_sent{0};      ///< first transmissions
  std::uint64_t retransmits_rto{0};
  std::uint64_t retransmits_fast{0};
  std::uint64_t acks_sent{0};
  std::uint64_t dup_acks_seen{0};
  std::uint64_t stale_segments{0};     ///< duplicates discarded by receiver
  units::Millis srtt{};                ///< smoothed RTT estimate
  units::Millis rto{};                 ///< current retransmission timeout
};

/// One direction of application traffic. The object serves both ends of
/// the link because the whole experiment runs in-process. Implementations
/// register `this` with the Channel, so they are never copied or moved.
class MessageTransport {
 public:
  MessageTransport() = default;
  MessageTransport(const MessageTransport&) = delete;
  MessageTransport& operator=(const MessageTransport&) = delete;
  virtual ~MessageTransport() = default;

  /// Queue or send a message. `declared_wire_size` is the size the link
  /// accounts for (e.g. the encoded video frame size); the payload itself
  /// can be much smaller. Returns the message id.
  virtual std::uint32_t send_message(Payload bytes, std::uint32_t declared_wire_size,
                                     util::TimePoint now) = 0;

  /// Work accepted by send_message() that has not reached the link yet, in
  /// the transport's own units (segments, for a stream); 0 when sends go
  /// straight out.
  virtual std::size_t send_backlog() const = 0;

  /// Drive timers. The channel's poll() must run first each step so incoming
  /// packets are processed.
  virtual void step(util::TimePoint now) = 0;

  /// Next message for the application, if any.
  virtual std::optional<DeliveredMessage> pop_delivered() = 0;

  virtual const StreamStats& stats() const = 0;
};

}  // namespace rdsim::net
