#include "net/router.hpp"

#include "check/contracts.hpp"
#include "util/time.hpp"

namespace rdsim::net {

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t size, std::uint32_t seed) {
  std::uint32_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

namespace {

/// Checksum over everything the header protects: stream id, type, body —
/// like the TCP checksum, any single corrupted bit invalidates the packet.
/// The protected prefix {stream lo, stream hi, type} is exactly the first
/// three serialized header bytes, so a sealed packet can be verified (and
/// back-patched) straight from its buffer.
std::uint32_t packet_checksum(const std::uint8_t* packet, std::size_t size) {
  const std::uint32_t h = fnv1a(packet, ProtocolHeader::kChecksumOffset);
  return fnv1a(packet + ProtocolHeader::kSize, size - ProtocolHeader::kSize, h);
}

}  // namespace

void ProtocolHeader::begin(ByteWriter& w, std::uint16_t stream_id, SegmentType type) {
  RDSIM_REQUIRE(w.size() == 0, "ProtocolHeader::begin expects an empty writer");
  w.u16(stream_id);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(0);  // checksum placeholder, patched by finish()
}

Payload ProtocolHeader::finish(ByteWriter& w) {
  RDSIM_REQUIRE(w.size() >= kSize, "ProtocolHeader::finish before begin");
  w.patch_u32(kChecksumOffset, packet_checksum(w.data().data(), w.size()));
  return w.take();
}

Payload ProtocolHeader::seal(std::uint16_t stream_id, SegmentType type,
                             const Payload& body) {
  ByteWriter w;
  begin(w, stream_id, type);
  w.raw(body.data(), body.size());
  return finish(w);
}

std::optional<PacketView> open_packet_view(const Payload& packet_payload) {
  if (packet_payload.size() < ProtocolHeader::kSize) return std::nullopt;
  ByteReader r{packet_payload};
  PacketView view;
  view.header.stream_id = r.u16();
  const std::uint8_t type = r.u8();
  const std::uint32_t checksum = r.u32();
  if (!r.ok()) return std::nullopt;
  if (packet_checksum(packet_payload.data(), packet_payload.size()) != checksum) {
    return std::nullopt;
  }
  if (type > static_cast<std::uint8_t>(SegmentType::kDatagram)) return std::nullopt;
  view.header.type = static_cast<SegmentType>(type);
  view.body = ByteReader{packet_payload.data() + ProtocolHeader::kSize,
                         packet_payload.size() - ProtocolHeader::kSize};
  return view;
}

void PacketRouter::register_stream(std::uint16_t stream_id, Handler handler) {
  handlers_[stream_id] = std::move(handler);
}

void PacketRouter::poll(util::TimePoint now) {
  channel_->step(now);
  drain(LinkDirection::kDownlink, now);
  drain(LinkDirection::kUplink, now);
}

void PacketRouter::drain(LinkDirection dir, util::TimePoint now) {
  while (auto packet = channel_->receive(dir)) {
    if (const auto view = open_packet_view(packet->payload); !view) {
      ++checksum_failures_;
    } else if (const auto it = handlers_.find(view->header.stream_id);
               it == handlers_.end()) {
      ++unroutable_;
    } else {
      it->second(view->header, view->body, dir, now);
    }
    // The view above reads from packet->payload; recycle only after handling.
    channel_->recycle(std::move(packet->payload));
  }
}

}  // namespace rdsim::net
