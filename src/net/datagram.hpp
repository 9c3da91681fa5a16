// Unreliable datagram transport (UDP analogue).
//
// Used by the ablation benches: some remote-driving stacks ship video and
// commands over UDP/RTP where a lost packet means a lost frame rather than a
// head-of-line stall. One message = one packet; no retransmission, no
// ordering guarantee beyond what the link provides. Delivery is latest-wins.
#pragma once

#include "net/channel.hpp"
#include "net/transport.hpp"
#include "util/seq_queue.hpp"
#include "util/time.hpp"

namespace rdsim::net {

class DatagramSocket final : public MessageTransport, private PacketEndpoint {
 public:
  /// Registers the socket with `channel`, which must outlive it.
  DatagramSocket(Channel& channel, std::uint16_t stream_id, LinkDirection send_direction);
  /// Deregisters the socket, so its packets still on the link go unroutable.
  ~DatagramSocket() override;

  /// Fire-and-forget. Returns the datagram sequence number.
  std::uint32_t send_message(Payload bytes, std::uint32_t declared_wire_size,
                             util::TimePoint now) override;

  /// Always 0: a datagram goes onto the link as it is sent.
  std::size_t send_backlog() const override { return 0; }

  /// No timers to drive.
  void step(util::TimePoint) override {}

  /// Drop everything older than the newest received sequence and return the
  /// newest message (its `message_id` is the datagram sequence number), if
  /// any arrived since the last call. Older arrivals count as stale.
  std::optional<DeliveredMessage> pop_delivered() override;

  /// All zero: datagrams keep no RTT or retransmit telemetry.
  const StreamStats& stats() const override { return stats_; }

  std::uint64_t sent_count() const { return sent_; }
  std::uint64_t received_count() const { return received_; }
  std::uint64_t stale_discarded() const { return stale_; }

 private:
  void on_packet(const ProtocolHeader& header, ByteReader& body, LinkDirection via,
                 util::TimePoint now) override;

  Channel* channel_;
  std::uint16_t stream_id_;
  LinkDirection send_dir_;
  std::uint32_t next_seq_{0};
  std::uint32_t newest_seen_{0};
  bool any_seen_{false};
  util::SeqQueue<DeliveredMessage> inbox_;
  const StreamStats stats_{};
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
  std::uint64_t stale_{0};
};

}  // namespace rdsim::net
