#include "net/reliable_stream.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "check/contracts.hpp"
#include "net/serialization.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"

namespace rdsim::net {

namespace {
LinkDirection reverse(LinkDirection dir) {
  return dir == LinkDirection::kDownlink ? LinkDirection::kUplink
                                         : LinkDirection::kDownlink;
}
/// Modelled wire bytes: an ACK, and the TCP/IP headers added to each DATA
/// segment's share of the message.
constexpr std::uint32_t kAckWireSize = 60;
constexpr std::uint32_t kSegmentHeaderWireSize = 40;
/// RFC 6298's initial RTO, kept at Linux's 200 ms floor, and the backoff cap.
constexpr util::Duration kInitialRto = util::Duration::millis(200);
constexpr util::Duration kMaxRto = util::Duration::millis(2000);
/// Fixed bytes of the DATA segment encoding before the chunk:
/// seq u32 + message_id u32 + seg_index u16 + seg_count u16 +
/// message_wire_size u32 + message_sent_us u64 + chunk length prefix u32.
constexpr std::size_t kDataEncodingBytes = 4 + 4 + 2 + 2 + 4 + 8 + 4;
/// ACK encoding: cum_ack u32 + sack count u32 + <=8 SACKs u32 + ts u64.
constexpr std::size_t kMaxSackHints = 8;
constexpr std::size_t ack_encoding_bytes(std::size_t sacks) { return 4 + 4 + sacks * 4 + 8; }
}  // namespace

ReliableStream::ReliableStream(Channel& channel, std::uint16_t stream_id,
                               LinkDirection data_direction, StreamConfig config)
    : channel_{&channel},
      stream_id_{stream_id},
      data_dir_{data_direction},
      config_{config},
      ring_mask_{std::bit_ceil(std::max<std::uint32_t>(config.window_segments, 1)) - 1},
      rto_base_{std::max(kInitialRto, config.rto_min)} {
  channel_->register_stream(stream_id_, *this);
}

ReliableStream::~ReliableStream() { channel_->deregister_stream(stream_id_, *this); }

std::uint32_t ReliableStream::send_message(Payload bytes, std::uint32_t declared_wire_size,
                                           util::TimePoint now) {
  if (tx_slots_.empty()) tx_slots_.resize(ring_mask_ + 1);
  const std::uint32_t message_id = out_messages_.tail();
  const std::uint32_t wire =
      std::max<std::uint32_t>(declared_wire_size, static_cast<std::uint32_t>(bytes.size()));
  // RdsConfig::validate() rejects the configurations that break this.
  const std::uint64_t segments = config_.mtu == 0 ? 0 : config_.segments_for(wire);
  RDSIM_REQUIRE(segments >= 1 && segments <= StreamConfig::kMaxSegments,
                "a message must fit 1..65535 segments of StreamConfig::mtu bytes");
  OutMessage& m = out_messages_.push_back();
  m.bytes = std::move(bytes);
  m.first_seq = next_seq_;
  m.seg_count = static_cast<std::uint16_t>(segments);
  m.wire_size = wire;
  m.sent_us = static_cast<std::uint64_t>(now.count_micros());
  next_seq_ += m.seg_count;
  ++stats_.messages_sent;
  return message_id;
}

void ReliableStream::transmit_segment(std::uint32_t seq, util::TimePoint now,
                                      bool retransmission) {
  TxSlot& slot = tx_slot(seq);
  if (!retransmission) {
    // Fresh segments go out in sequence order, so the owning message is the
    // first one (from the transmit cursor on) that has not ended yet.
    tx_message_ = std::max(tx_message_, out_messages_.head());
    while (out_messages_[tx_message_].first_seq + out_messages_[tx_message_].seg_count <=
           seq) {
      ++tx_message_;
    }
    slot = TxSlot{now, now, 0, tx_message_};
  }
  // Slice the payload evenly across segments so that losing any one segment
  // blocks the whole message, as with real TCP segmentation.
  const OutMessage& m = out_messages_[slot.message_id];
  const std::uint16_t index = static_cast<std::uint16_t>(seq - m.first_seq);
  const std::size_t total = m.bytes.size();
  const std::size_t lo = total * index / m.seg_count;
  const std::size_t hi = total * (index + 1) / m.seg_count;

  // Frame the segment directly in a pooled buffer, slicing the chunk straight
  // from the message: header placeholder, DATA fields, checksum back-patch.
  const std::size_t size = ProtocolHeader::kSize + kDataEncodingBytes + (hi - lo);
  ByteWriter w{channel_->acquire_payload(size), size};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kData);
  w.u32(seq);
  w.u32(slot.message_id);
  w.u16(index);
  w.u16(m.seg_count);
  w.u32(m.wire_size);
  w.u64(m.sent_us);
  w.u32(static_cast<std::uint32_t>(hi - lo));  // chunk length prefix, as bytes()
  w.raw(m.bytes.data() + lo, hi - lo);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = m.wire_size / m.seg_count + kSegmentHeaderWireSize;
  channel_->send(data_dir_, std::move(p), now);

  slot.last_sent = now;
  ++slot.transmissions;
  if (!retransmission) ++stats_.segments_sent;
  RDSIM_OBS_COUNT(obs::metric::kStreamSegmentsTx, 1);
  if (retransmission) {
    RDSIM_OBS_COUNT(obs::metric::kStreamRetransmittedSegments, 1);
  }
}

void ReliableStream::step(util::TimePoint now) {
  // Transmit fresh segments while the window allows.
  while (next_tx_seq_ < next_seq_ && unacked_segments() < config_.window_segments) {
    transmit_segment(next_tx_seq_++, now, /*retransmission=*/false);
  }

  // RTO: the timer runs on the earliest outstanding segment, per TCP. On
  // expiry we resend the head plus a small batch of other stale segments —
  // the practical effect of SACK-based recovery resuming after a timeout.
  if (unacked_segments() > 0) {
    const util::Duration rto = current_rto();
    if (now - tx_slot(last_cum_ack_).last_sent >= rto) {
      int budget = 4;
      for (std::uint32_t seq = last_cum_ack_; seq < next_tx_seq_ && budget > 0; ++seq) {
        if (now - tx_slot(seq).last_sent < rto) continue;
        transmit_segment(seq, now, /*retransmission=*/true);
        --budget;
      }
      ++stats_.retransmits_rto;
      RDSIM_OBS_COUNT(obs::metric::kStreamRtoEvents, 1);
      rto_backoff_ = std::min(rto_backoff_ + 1, 3u);
    }
  } else {
    rto_backoff_ = 0;
  }
}

util::Duration ReliableStream::current_rto() const {
  return std::min(rto_base_ * (std::int64_t{1} << rto_backoff_), kMaxRto);
}

void ReliableStream::update_rtt(util::Duration sample) {
  const units::Millis r = units::Millis::from_duration(sample);
  if (!rtt_valid_) {
    srtt_ = r;
    rttvar_ = r / 2.0;
    rtt_valid_ = true;
  } else {
    // RFC 6298 EWMA constants.
    rttvar_ = units::Millis{0.75 * rttvar_.value() +
                            0.25 * std::fabs(srtt_.value() - r.value())};
    srtt_ = 0.875 * srtt_ + 0.125 * r;
    // Equal samples decay rttvar as 0.75^k into the subnormal range, where
    // each update costs tens of times more. Flushing it to zero changes no
    // result: the RTO reads it only as max(4 rttvar, 1 ms), and against any
    // nonzero deviation a subnormal term is below half an ulp of the sum.
    if (rttvar_.value() < std::numeric_limits<double>::min()) rttvar_ = units::Millis{};
  }
  const units::Millis rto = srtt_ + units::Millis{std::max(4.0 * rttvar_.value(), 1.0)};
  rto_base_ = std::max(rto.to_duration(), config_.rto_min);
  stats_.srtt = srtt_;
  stats_.rto = units::Millis::from_duration(current_rto());
}

void ReliableStream::on_packet(const ProtocolHeader& header, ByteReader& body,
                               LinkDirection via, util::TimePoint now) {
  if (header.type == SegmentType::kData && via == data_dir_) {
    on_data(body, now);
  } else if (header.type == SegmentType::kAck && via == reverse(data_dir_)) {
    on_ack(body, now);
  }
  // Anything else (e.g. a duplicated packet that re-arrives on the wrong
  // path) is silently ignored, as a real socket would.
}

void ReliableStream::on_data(ByteReader& body, util::TimePoint now) {
  const std::uint32_t seq = body.u32();
  const std::uint32_t message_id = body.u32();
  const std::uint16_t seg_index = body.u16();
  const std::uint16_t seg_count = body.u16();
  body.u32();  // message wire size: the sender's link accounting only
  const std::uint64_t sent_us = body.u64();
  const std::span<const std::uint8_t> chunk = body.bytes_view();
  if (!body.ok() || seg_count == 0 || seg_index >= seg_count) return;
  // Beyond the ring: not from this sender's window (see header).
  if (std::uint64_t{seq} >= std::uint64_t{rcv_next_} + ring_mask_ + 1) return;
  RDSIM_OBS_COUNT(obs::metric::kStreamSegmentsRx, 1);

  if (seq < rcv_next_ || (rx_buffered_ > 0 && rx_slot(seq).occupied)) {
    // Duplicate (retransmission that raced the original, or netem duplicate).
    ++stats_.stale_segments;
    RDSIM_OBS_COUNT(obs::metric::kStreamStaleSegments, 1);
  } else if (seq == rcv_next_) {
    last_data_ts_us_ = sent_us;
    absorb(message_id, seg_index, seg_count, sent_us, chunk, now);
    ++rcv_next_;
    // Absorb the buffered segments the gap was holding back.
    while (rx_buffered_ > 0 && rx_slot(rcv_next_).occupied) {
      RxSlot& s = rx_slot(rcv_next_);
      absorb(s.message_id, s.seg_index, s.seg_count, s.sent_us, s.chunk, now);
      s.occupied = false;
      --rx_buffered_;
      ++rcv_next_;
    }
  } else {
    last_data_ts_us_ = sent_us;
    if (rx_slots_.empty()) rx_slots_.resize(ring_mask_ + 1);
    RxSlot& s = rx_slot(seq);
    s.occupied = true;
    s.message_id = message_id;
    s.seg_index = seg_index;
    s.seg_count = seg_count;
    s.sent_us = sent_us;
    s.chunk.assign(chunk.begin(), chunk.end());
    ++rx_buffered_;
  }

  update_hol_obs(now);

  send_ack(now);
}

void ReliableStream::absorb(std::uint32_t message_id, std::uint16_t seg_index,
                            std::uint16_t seg_count, std::uint64_t sent_us,
                            std::span<const std::uint8_t> chunk, util::TimePoint now) {
  // Segments arrive here in sequence order, and a message's segments are
  // consecutive sequence numbers, so its last segment completes it.
  partial_.insert(partial_.end(), chunk.begin(), chunk.end());
  if (seg_index + 1 < seg_count) return;
  RDSIM_INVARIANT(message_id == next_deliver_message_,
                  "reliable stream must deliver message ids contiguously");
  DeliveredMessage& msg = delivered_.push_back();
  msg.bytes.assign(partial_.begin(), partial_.end());
  msg.message_id = message_id;
  msg.sent_at = util::TimePoint::from_micros(static_cast<std::int64_t>(sent_us));
  msg.delivered_at = now;
  partial_.clear();
  ++next_deliver_message_;
  ++stats_.messages_delivered;
}

void ReliableStream::update_hol_obs(util::TimePoint now) {
  const bool stalled = rx_buffered_ > 0;
  if (stalled && !hol_open_) {
    hol_open_ = true;
    hol_begin_ = now;
  } else if (!stalled && hol_open_) {
    hol_open_ = false;
    if (obs::Context* ctx = obs::Context::current()) {
      // Record span and counter from the same endpoints, so the microsecond
      // total always equals the sum of traced stall-span durations.
      const std::size_t span =
          ctx->span_open(obs::metric::kStreamHolStallSpan, hol_begin_, stream_id_);
      ctx->span_close(span, now);
      ctx->count(obs::metric::kStreamHolStallMicros,
                 static_cast<std::uint64_t>((now - hol_begin_).count_micros()));
      ctx->count(obs::metric::kStreamHolStallSpan, 1);
    }
  }
}

void ReliableStream::send_ack(util::TimePoint now) {
  // SACK hints: the lowest (up to 8) buffered out-of-order sequences.
  const std::uint32_t sack_count =
      std::min<std::uint32_t>(rx_buffered_, kMaxSackHints);
  const std::size_t size = ProtocolHeader::kSize + ack_encoding_bytes(sack_count);
  ByteWriter w{channel_->acquire_payload(size), size};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kAck);
  w.u32(rcv_next_);
  w.u32(sack_count);
  for (std::uint32_t seq = rcv_next_ + 1, written = 0; written < sack_count; ++seq) {
    if (!rx_slot(seq).occupied) continue;
    w.u32(seq);
    ++written;
  }
  w.u64(last_data_ts_us_);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = kAckWireSize;
  channel_->send(reverse(data_dir_), std::move(p), now);
  ++stats_.acks_sent;
}

void ReliableStream::on_ack(ByteReader& r, util::TimePoint now) {
  const std::uint32_t cum_ack = r.u32();
  const std::uint32_t sack_count = r.u32();
  // Our sender never writes more than kMaxSackHints; a larger count is a
  // malformed packet, discarded just as a truncated one would be.
  if (sack_count > kMaxSackHints) return;
  std::array<std::uint32_t, kMaxSackHints> sack_buf{};
  for (std::uint32_t i = 0; i < sack_count && r.ok(); ++i) sack_buf[i] = r.u32();
  r.u64();  // echoed timestamp, unused: RTT comes from transmission records
  if (!r.ok()) return;
  const auto sacks_begin = sack_buf.begin();
  const auto sacks_end = sack_buf.begin() + sack_count;

  // A valid cumulative ACK never acknowledges a sequence not yet transmitted.
  if (cum_ack > next_tx_seq_) return;

  if (cum_ack > last_cum_ack_) {
    // New data acknowledged: sample RTT from every newly acked segment that
    // was transmitted exactly once (Karn's algorithm), then retire it.
    for (std::uint32_t seq = last_cum_ack_; seq < cum_ack; ++seq) {
      const TxSlot& slot = tx_slot(seq);
      if (slot.transmissions == 1) update_rtt(now - slot.first_sent);
    }
    last_cum_ack_ = cum_ack;
    dup_ack_count_ = 0;
    rto_backoff_ = 0;
    // Release every message whose last segment is now acknowledged.
    while (!out_messages_.empty()) {
      OutMessage& m = out_messages_.front();
      if (m.first_seq + m.seg_count > cum_ack) break;
      m.bytes = Payload{};
      out_messages_.pop_front();
    }
  } else if (cum_ack == last_cum_ack_ && unacked_segments() > 0) {
    ++dup_ack_count_;
    ++stats_.dup_acks_seen;
    RDSIM_OBS_COUNT(obs::metric::kStreamDupAcks, 1);
    // Re-arm every three further duplicate ACKs so multiple losses within a
    // window still recover without waiting for the RTO (SACK-era TCP).
    if (dup_ack_count_ % 3 == 0) {
      transmit_segment(cum_ack, now, /*retransmission=*/true);
      ++stats_.retransmits_fast;
      RDSIM_OBS_COUNT(obs::metric::kStreamFastRetransmits, 1);
    }
  }

  // SACK-based loss recovery: every in-flight segment below the highest
  // SACKed sequence that is not itself SACKed has very likely been lost —
  // retransmit a bounded number of them immediately instead of waiting for
  // serial RTOs (this is what keeps sustained-loss links usable).
  if (sack_count > 0) {
    const std::uint32_t max_sack = *std::max_element(sacks_begin, sacks_end);
    const util::Duration hold_off = current_rto() / 2;
    int budget = 4;
    for (std::uint32_t seq = last_cum_ack_;
         seq < next_tx_seq_ && seq < max_sack && budget > 0; ++seq) {
      TxSlot& slot = tx_slot(seq);
      if (std::find(sacks_begin, sacks_end, seq) != sacks_end) {
        // Keep SACKed segments from driving the RTO timer.
        slot.last_sent = std::max(slot.last_sent, now);
        continue;
      }
      if (now - slot.last_sent < hold_off) continue;
      transmit_segment(seq, now, /*retransmission=*/true);
      ++stats_.retransmits_fast;
      RDSIM_OBS_COUNT(obs::metric::kStreamFastRetransmits, 1);
      --budget;
    }
  }
}

std::optional<DeliveredMessage> ReliableStream::pop_delivered() {
  if (delivered_.empty()) return std::nullopt;
  std::optional<DeliveredMessage> msg{std::move(delivered_.front())};
  delivered_.pop_front();
  return msg;
}

}  // namespace rdsim::net
