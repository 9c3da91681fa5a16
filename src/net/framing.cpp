#include "net/framing.hpp"

#include <cstring>

#include "check/contracts.hpp"

namespace rdsim::net {

namespace {

/// The 32-bit ones'-complement sum of a packet of at least
/// ProtocolHeader::kSize bytes, with the checksum field read as zero. Eight
/// bytes are loaded at a time straight from the packet and split into their
/// two 32-bit words: the first load is masked to drop the checksum bytes, and
/// a short tail is one load of the packet's last eight bytes shifted right,
/// which zero-pads it. Every load has a fixed size and reads packet memory
/// only. The carries out of bit 31 are folded back in at the end
/// (end-around carry), so the result is the integer sum of the words modulo
/// 2^32 - 1.
std::uint32_t packet_checksum(const std::uint8_t* packet, std::size_t size) {
  constexpr std::uint64_t kLow = 0xffffffffu;
  // Keeps header bytes 0-2 (stream id, type) and byte 7; 3-6 are the checksum.
  constexpr std::uint64_t kHeaderMask = 0xff00000000ffffffu;
  static_assert(ProtocolHeader::kChecksumOffset == 3 && ProtocolHeader::kSize == 7);
  const auto load = [packet](std::size_t at) {
    std::uint64_t word = 0;
    std::memcpy(&word, packet + at, sizeof word);
    return word;
  };
  if (size < sizeof(std::uint64_t)) {  // a bare header
    std::uint32_t head = 0;
    std::memcpy(&head, packet, sizeof head);
    return head & 0x00ffffffu;
  }
  std::uint64_t word = load(0) & kHeaderMask;
  std::uint64_t sum = (word & kLow) + (word >> 32);
  std::size_t i = sizeof word;
  for (; i + sizeof word <= size; i += sizeof word) {
    word = load(i);
    sum += (word & kLow) + (word >> 32);
  }
  if (i < size) {
    word = load(size - sizeof word) >> (8 * (sizeof word - (size - i)));
    sum += (word & kLow) + (word >> 32);
  }
  while (sum > kLow) sum = (sum & kLow) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
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
  ByteWriter w{kSize + body.size()};
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

}  // namespace rdsim::net
