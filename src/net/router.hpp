// Demultiplexes packets arriving at the two channel endpoints to the
// transport streams that own them.
//
// Both endpoints' inboxes carry mixed traffic (the video stream's DATA and
// the command stream's ACKs both arrive at the operator, for instance), so
// every protocol packet starts with a common header:
//   u16 stream_id | u8 type | u32 checksum-of-rest
// The checksum models the TCP checksum: packets damaged by the corrupt
// qdisc fail verification and are treated as lost, which reproduces the
// paper's observation (§V.C) that corruption faults have no distinct
// user-visible effect under a reliable transport.
//
// Parsing is zero-copy: handlers receive a bounds-checked ByteReader view
// into the packet payload instead of an owning copy of the body, and the
// router hands the payload buffer back to the channel's pool after the
// handler returns.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "net/channel.hpp"
#include "net/serialization.hpp"
#include "util/time.hpp"

namespace rdsim::net {

enum class SegmentType : std::uint8_t { kData = 0, kAck = 1, kDatagram = 2 };

/// FNV-1a over a byte range; the protocol's checksum primitive. Pass a
/// previous result as `seed` to continue hashing across discontiguous ranges.
std::uint32_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed = 2166136261u);

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

/// Polls a channel and routes verified packets to registered streams.
class PacketRouter {
 public:
  explicit PacketRouter(Channel& channel) : channel_{&channel} {}

  /// `body` views the packet payload and is only valid during the call;
  /// handlers copy out whatever must outlive it.
  using Handler = std::function<void(const ProtocolHeader&, ByteReader body,
                                     LinkDirection arrived_via, util::TimePoint now)>;

  void register_stream(std::uint16_t stream_id, Handler handler);

  /// Steps the channel, then drains both inboxes. Packets failing checksum
  /// verification are counted and dropped. Payload buffers are recycled to
  /// the channel pool once handled.
  void poll(util::TimePoint now);

  std::uint64_t checksum_failures() const { return checksum_failures_; }
  std::uint64_t unroutable() const { return unroutable_; }
  Channel& channel() { return *channel_; }

 private:
  void drain(LinkDirection dir, util::TimePoint now);

  Channel* channel_;
  std::map<std::uint16_t, Handler> handlers_;
  std::uint64_t checksum_failures_{0};
  std::uint64_t unroutable_{0};
};

}  // namespace rdsim::net
