// Wire framing shared by the transports.
//
// Both endpoints of the channel receive mixed traffic (the video stream's
// DATA and the command stream's ACKs both arrive at the operator, for
// instance), so every protocol packet starts with a common header:
//   u16 stream_id | u8 type | u32 checksum
// The checksum is the TCP checksum's ones'-complement sum (RFC 1071),
// widened to 32-bit words: it covers the whole packet with the checksum
// field read as zero. netem's corrupt flips exactly one bit, which moves
// the sum by ±2^k modulo 2^32 - 1 and so always fails verification. Such
// packets are treated as lost, which reproduces the paper's observation
// (§V.C) that corruption faults have no distinct user-visible effect under
// a reliable transport.
//
// Parsing is zero-copy: open_packet_view() returns a bounds-checked
// ByteReader view into the packet payload instead of an owning copy of the
// body.
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "net/serialization.hpp"

namespace rdsim::net {

enum class SegmentType : std::uint8_t { kData = 0, kAck = 1, kDatagram = 2 };

/// Common header helpers shared by the transports.
struct ProtocolHeader {
  std::uint16_t stream_id{0};
  SegmentType type{SegmentType::kData};

  static constexpr std::size_t kSize = 2 + 1 + 4;  // stream, type, checksum
  static constexpr std::size_t kChecksumOffset = 3;

  /// In-place framing for pooled buffers: begin() writes the header with a
  /// zero checksum placeholder, the caller appends the body to the same
  /// writer, and finish() back-patches the checksum and releases the buffer.
  /// Byte-for-byte identical to seal() without the intermediate body copy.
  static void begin(ByteWriter& w, std::uint16_t stream_id, SegmentType type);
  static Payload finish(ByteWriter& w);

  /// Serialize header + body, computing the checksum over `body`.
  static Payload seal(std::uint16_t stream_id, SegmentType type, const Payload& body);
};

/// A verified packet viewed in place: `body` reads directly from the packet
/// payload and is valid only while that payload is alive.
struct PacketView {
  ProtocolHeader header;
  ByteReader body;
};

/// Parse and verify without copying; nullopt on checksum failure/truncation.
std::optional<PacketView> open_packet_view(const Payload& packet_payload);

}  // namespace rdsim::net
