#include "net/datagram.hpp"

#include <algorithm>
#include <span>

#include "net/serialization.hpp"
#include "util/time.hpp"

namespace rdsim::net {

DatagramSocket::DatagramSocket(Channel& channel, std::uint16_t stream_id,
                               LinkDirection send_direction)
    : channel_{&channel}, stream_id_{stream_id}, send_dir_{send_direction} {
  channel_->register_stream(stream_id_, *this);
}

DatagramSocket::~DatagramSocket() { channel_->deregister_stream(stream_id_, *this); }

std::uint32_t DatagramSocket::send_message(Payload bytes,
                                           std::uint32_t declared_wire_size,
                                           util::TimePoint now) {
  const std::uint32_t seq = next_seq_++;
  // One datagram = one packet, framed directly in a pooled buffer.
  const std::size_t size = ProtocolHeader::kSize + 4 + 8 + 4 + bytes.size();
  ByteWriter w{channel_->acquire_payload(size), size};
  ProtocolHeader::begin(w, stream_id_, SegmentType::kDatagram);
  w.u32(seq);
  w.u64(static_cast<std::uint64_t>(now.count_micros()));
  w.bytes(bytes);
  Packet p;
  p.payload = ProtocolHeader::finish(w);
  p.wire_size = std::max<std::uint32_t>(
      declared_wire_size, static_cast<std::uint32_t>(bytes.size()) + 28);
  channel_->send(send_dir_, std::move(p), now);
  ++sent_;
  return seq;
}

void DatagramSocket::on_packet(const ProtocolHeader& header, ByteReader& r,
                               LinkDirection via, util::TimePoint now) {
  if (header.type != SegmentType::kDatagram || via != send_dir_) return;
  const std::uint32_t seq = r.u32();
  const std::uint64_t sent_us = r.u64();
  const std::span<const std::uint8_t> body = r.bytes_view();
  if (!r.ok()) return;
  ++received_;
  DeliveredMessage& msg = inbox_.push_back();
  msg.bytes.assign(body.begin(), body.end());
  msg.message_id = seq;
  msg.sent_at = util::TimePoint::from_micros(static_cast<std::int64_t>(sent_us));
  msg.delivered_at = now;
}

std::optional<DeliveredMessage> DatagramSocket::pop_delivered() {
  std::optional<DeliveredMessage> newest;
  for (; !inbox_.empty(); inbox_.pop_front()) {
    DeliveredMessage& msg = inbox_.front();
    if (!any_seen_ || msg.message_id >= newest_seen_) {
      newest_seen_ = msg.message_id;
      any_seen_ = true;
      if (newest) ++stale_;
      newest = std::move(msg);
    } else {
      ++stale_;
    }
  }
  return newest;
}

}  // namespace rdsim::net
