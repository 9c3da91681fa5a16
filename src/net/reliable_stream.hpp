// Reliable, ordered message stream — the testbed's TCP analogue.
//
// CARLA's client/server protocol runs over TCP (§II.B of the paper), so the
// user-visible symptom of packet loss is not a missing video frame but a
// *stall*: the lost segment is retransmitted after an RTO (Linux clamps the
// TCP RTO to a 200 ms minimum) or after three duplicate ACKs, and every
// later frame is head-of-line blocked behind it. This class reproduces those
// semantics on the virtual clock:
//
//   - messages are segmented into MTU-sized wire segments with a global
//     sequence number,
//   - the receiver cumulatively ACKs the next expected sequence (with
//     SACK-style hints for fast retransmit),
//   - the sender maintains an RFC 6298 RTT estimate, retransmits on RTO
//     with exponential backoff, and fast-retransmits on 3 dup-ACKs,
//   - delivery is strictly in order: a complete message is handed to the
//     application only after all earlier messages.
//
// Congestion control is deliberately omitted: the paper's transport runs on
// loopback where the congestion window never binds; netem disturbances, not
// queue buildup, are the object of study. ACKs travel the reverse direction
// of the same channel and suffer the same injected faults.
//
// Every sequence-keyed structure is a ring. Sequence numbers are dense and
// the sender never has more than `window_segments` unacknowledged, so the
// in-flight records and the receiver's out-of-order buffer are power-of-two
// slot arrays of at least that many slots, indexed by `seq & mask`:
//
//   - the sender keeps each queued message once, as the encoded bytes every
//     segment is sliced from, until its last segment is cumulatively ACKed;
//     in-flight segments are the contiguous range [last_cum_ack, next_tx_seq)
//     and each slot holds only timing and the owning message id;
//   - the receiver appends an in-order segment straight from the packet view
//     to the one message under reassembly (messages complete strictly in
//     sequence order) and copies only out-of-order segments, into slots
//     whose buffers keep their capacity.
//
// A DATA segment at or beyond rcv_next + ring size cannot come from this
// sender's window: only a corrupted packet that still passes the checksum
// could carry it, and it is dropped before any accounting. Likewise an ACK
// for a sequence never transmitted is dropped. The rings are allocated on
// first use, so an idle or one-way stream costs nothing for the direction
// it does not use.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "net/channel.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "util/seq_queue.hpp"
#include "util/units.hpp"

namespace rdsim::net {

struct StreamConfig {
  std::uint32_t mtu{65000};  ///< max payload bytes per segment
                             ///< (loopback-sized, as in the paper)
  util::Duration rto_min{util::Duration::millis(200)};  ///< Linux TCP_RTO_MIN
  /// Max unacked segments in flight. 128 segments x 64 KB ~= 8 MB, matching
  /// Linux's default TCP send-buffer autotuning ceiling. With megabyte video
  /// frames this window is what throttles the feed when injected delay
  /// stretches the RTT: at 100 ms RTT the stream can move ~80 MB/s — below
  /// the raw video rate — so frame latency grows and the sender starts
  /// dropping frames, reproducing the paper's observation that >100 ms
  /// delays made driving very hard and >200 ms stopped the feed entirely.
  std::uint32_t window_segments{128};
  util::Duration ack_delay{};  ///< 0 = ack immediately

  /// Segments carry a u16 count, so a message may span at most this many.
  static constexpr std::uint64_t kMaxSegments = 0xffff;

  /// Segments a message of `wire_bytes` takes: ceil(wire_bytes / mtu), at
  /// least one. Requires mtu > 0.
  std::uint64_t segments_for(std::uint32_t wire_bytes) const {
    return std::max<std::uint64_t>(1, (std::uint64_t{wire_bytes} + mtu - 1) / mtu);
  }
};

/// One reliable stream. A single object serves both halves because the whole
/// experiment runs in-process; the DATA direction is fixed at construction
/// and ACKs flow the opposite way through the same faulted channel.
class ReliableStream final : public MessageTransport, private PacketEndpoint {
 public:
  /// Registers the stream with `channel`, which must outlive it.
  ReliableStream(Channel& channel, std::uint16_t stream_id, LinkDirection data_direction,
                 StreamConfig config = {});
  /// Deregisters the stream, so its packets still on the link go unroutable.
  ~ReliableStream() override;

  /// Queue a message. `declared_wire_size` is the size the link should
  /// account for (e.g. the encoded video frame size); the actual payload
  /// can be much smaller. Returns the message id.
  std::uint32_t send_message(Payload bytes, std::uint32_t declared_wire_size,
                             util::TimePoint now) override;

  /// Drive timers: transmit window, retransmit on RTO. The channel's poll()
  /// must run first each step so incoming ACKs/DATA are processed.
  void step(util::TimePoint now) override;

  /// Next in-order message, if any has completed.
  std::optional<DeliveredMessage> pop_delivered() override;

  const StreamStats& stats() const override { return stats_; }
  std::size_t unacked_segments() const { return next_tx_seq_ - last_cum_ack_; }
  std::size_t send_backlog() const override { return next_seq_ - next_tx_seq_; }
  const StreamConfig& config() const { return config_; }
  /// Highest cumulative ACK the sender has seen (monotone non-decreasing).
  std::uint32_t last_cum_ack() const { return last_cum_ack_; }

 private:
  /// A queued or in-flight message; segment i carries the byte slice
  /// [size*i/seg_count, size*(i+1)/seg_count) of `bytes`.
  struct OutMessage {
    Payload bytes;
    std::uint32_t first_seq{0};
    std::uint16_t seg_count{0};
    std::uint32_t wire_size{0};
    std::uint64_t sent_us{0};
  };

  /// Transmission record of one in-flight sequence number.
  struct TxSlot {
    util::TimePoint first_sent{};
    util::TimePoint last_sent{};
    std::uint32_t transmissions{0};
    std::uint32_t message_id{0};
  };

  /// An out-of-order segment waiting for the gap before it to fill.
  struct RxSlot {
    bool occupied{false};
    std::uint32_t message_id{0};
    std::uint16_t seg_index{0};
    std::uint16_t seg_count{0};
    std::uint64_t sent_us{0};
    Payload chunk;  ///< keeps its capacity from one occupant to the next
  };

  void on_packet(const ProtocolHeader& header, ByteReader& body, LinkDirection via,
                 util::TimePoint now) override;
  void on_data(ByteReader& body, util::TimePoint now);
  void absorb(std::uint32_t message_id, std::uint16_t seg_index, std::uint16_t seg_count,
              std::uint64_t sent_us, std::span<const std::uint8_t> chunk,
              util::TimePoint now);
  void update_hol_obs(util::TimePoint now);
  void on_ack(ByteReader& body, util::TimePoint now);
  void transmit_segment(std::uint32_t seq, util::TimePoint now, bool retransmission);
  void send_ack(util::TimePoint now);
  void update_rtt(util::Duration sample);
  /// The cached base RTO doubled per backoff step, clamped to 2 s.
  util::Duration current_rto() const;
  TxSlot& tx_slot(std::uint32_t seq) { return tx_slots_[seq & ring_mask_]; }
  RxSlot& rx_slot(std::uint32_t seq) { return rx_slots_[seq & ring_mask_]; }

  Channel* channel_;
  std::uint16_t stream_id_;
  LinkDirection data_dir_;
  StreamConfig config_;
  std::uint32_t ring_mask_;  ///< ring size - 1; ring size = bit_ceil(window)

  // Sender state. Messages are queued by id (position == message id);
  // sequence numbers below next_tx_seq_ have been transmitted.
  util::SeqQueue<OutMessage> out_messages_;
  std::vector<TxSlot> tx_slots_;
  std::uint32_t next_seq_{0};      ///< one past the last queued segment
  std::uint32_t next_tx_seq_{0};   ///< next segment to transmit fresh
  std::uint32_t tx_message_{0};    ///< message of the latest fresh segment
  std::uint32_t last_cum_ack_{0};  ///< first unacknowledged sequence
  std::uint32_t dup_ack_count_{0};
  std::uint32_t rto_backoff_{0};
  units::Millis srtt_{};
  units::Millis rttvar_{};
  bool rtt_valid_{false};
  /// RTO before backoff, at least rto_min: 200 ms until the first RTT
  /// sample, then srtt + max(4 rttvar, 1 ms). Recomputed only by update_rtt.
  util::Duration rto_base_;

  // Receiver state.
  std::uint32_t rcv_next_{0};  ///< next expected seq
  std::vector<RxSlot> rx_slots_;
  std::uint32_t rx_buffered_{0};  ///< occupied rx slots
  Payload partial_;               ///< bytes of the message under reassembly
  std::uint32_t next_deliver_message_{0};
  util::SeqQueue<DeliveredMessage> delivered_;
  bool ack_pending_{false};
  util::TimePoint ack_due_{};
  std::uint64_t last_data_ts_us_{0};

  // Head-of-line stall tracking (observation only — never read by the
  // protocol). A stall is any period with out-of-order segments buffered;
  // the span and the microsecond counter are recorded together when the
  // stall closes, so the counter equals the span-duration sum exactly.
  bool hol_open_{false};
  util::TimePoint hol_begin_{};

  StreamStats stats_;
};

}  // namespace rdsim::net
