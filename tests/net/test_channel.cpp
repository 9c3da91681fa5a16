// Channel delivery, dispatch and checksum semantics.
#include <gtest/gtest.h>

#include <vector>

#include "callback_endpoint.hpp"
#include "net/channel.hpp"
#include "net/datagram.hpp"
#include "net/reliable_stream.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Channel, DeliversBothDirections) {
  Channel ch;
  struct Arrival {
    LinkDirection via;
    Payload body;
  };
  std::vector<Arrival> got;
  CallbackEndpoint endpoint{
      [&](const ProtocolHeader&, ByteReader& body, LinkDirection via, TimePoint) {
        Arrival a{via, Payload(body.remaining())};
        for (auto& b : a.body) b = body.u8();
        got.push_back(a);
      }};
  ch.register_stream(1, endpoint);
  // Uplink is sent first, but poll dispatches the downlink packets first.
  ch.send(LinkDirection::kUplink, ProtocolHeader::seal(1, SegmentType::kData, {4, 5}), 50,
          TimePoint{});
  ch.send(LinkDirection::kDownlink, ProtocolHeader::seal(1, SegmentType::kData, {1, 2, 3}),
          100, TimePoint{});
  ch.poll(TimePoint{});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].via, LinkDirection::kDownlink);
  EXPECT_EQ(got[0].body, (Payload{1, 2, 3}));
  EXPECT_EQ(got[1].via, LinkDirection::kUplink);
  EXPECT_EQ(got[1].body, (Payload{4, 5}));
  ch.poll(TimePoint{});
  EXPECT_EQ(got.size(), 2u);  // each packet is dispatched once
}

TEST(Channel, SharedQdiscAffectsBothDirections) {
  // The paper's loopback setup: one netem rule disturbs video *and* commands.
  Channel ch;
  ch.tc().add(parse_netem("delay 30ms"));
  ch.send(LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ch.send(LinkDirection::kUplink, {2}, 10, TimePoint{});
  ch.poll(TimePoint::from_micros(29000));
  EXPECT_EQ(ch.stats(LinkDirection::kDownlink).packets_delivered, 0u);
  EXPECT_EQ(ch.stats(LinkDirection::kUplink).packets_delivered, 0u);
  ch.poll(TimePoint::from_micros(30000));
  EXPECT_EQ(ch.stats(LinkDirection::kDownlink).packets_delivered, 1u);
  EXPECT_EQ(ch.stats(LinkDirection::kUplink).packets_delivered, 1u);
}

TEST(Channel, TracksLatencyStats) {
  Channel ch;
  ch.tc().add(parse_netem("delay 10ms"));
  ch.send(LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ch.poll(TimePoint::from_micros(10000));
  const auto& stats = ch.stats(LinkDirection::kDownlink);
  EXPECT_EQ(stats.packets_sent, 1u);
  EXPECT_EQ(stats.packets_delivered, 1u);
  EXPECT_NEAR(stats.mean_latency().value(), 10.0, 1e-9);
}

TEST(Channel, InFlightCountsQueuedPackets) {
  Channel ch;
  ch.tc().add(parse_netem("delay 1000ms"));
  ch.send(LinkDirection::kDownlink, {1}, 10, TimePoint{});
  ch.send(LinkDirection::kDownlink, {2}, 10, TimePoint{});
  ch.poll(TimePoint{});
  EXPECT_EQ(ch.in_flight(), 2u);
}

TEST(ProtocolHeader, SealAndOpenRoundTrip) {
  const Payload body{10, 20, 30};
  const Payload sealed = ProtocolHeader::seal(7, SegmentType::kAck, body);
  auto view = open_packet_view(sealed);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header.stream_id, 7);
  EXPECT_EQ(view->header.type, SegmentType::kAck);
  // The body is read in place, byte for byte, and ends where the packet does.
  ASSERT_EQ(view->body.remaining(), body.size());
  for (const std::uint8_t expected : body) EXPECT_EQ(view->body.u8(), expected);
  EXPECT_TRUE(view->body.ok());
  EXPECT_EQ(view->body.remaining(), 0u);
}

TEST(ProtocolHeader, DetectsCorruption) {
  Payload sealed = ProtocolHeader::seal(1, SegmentType::kData, {1, 2, 3, 4});
  sealed[ProtocolHeader::kSize + 1] ^= 0x10;  // flip a payload bit
  EXPECT_FALSE(open_packet_view(sealed).has_value());
}

TEST(ProtocolHeader, DetectsHeaderDamage) {
  Payload sealed = ProtocolHeader::seal(1, SegmentType::kData, {1, 2, 3, 4});
  sealed[3] ^= 0x01;  // flip a checksum bit
  EXPECT_FALSE(open_packet_view(sealed).has_value());
  EXPECT_FALSE(open_packet_view({1, 2}).has_value());  // truncated
}

/// Corruption flips exactly one bit (netem's corrupt), so the checksum must
/// catch every single-bit flip anywhere in a packet, checksum field included,
/// at every packet size the transports produce: 7..80 bytes (ACKs, commands,
/// small segments) and the 1 038-byte largest datagram.
TEST(ProtocolHeader, RejectsEverySingleBitFlip) {
  std::uint32_t lcg = 0x9e3779b9u;
  std::vector<std::size_t> body_sizes;
  for (std::size_t n = 0; n + ProtocolHeader::kSize <= 80; ++n) body_sizes.push_back(n);
  body_sizes.push_back(1038 - ProtocolHeader::kSize);
  std::size_t flips = 0;
  for (const std::size_t n : body_sizes) {
    Payload body(n);
    for (auto& b : body) {
      lcg = lcg * 1664525u + 1013904223u;
      b = static_cast<std::uint8_t>(lcg >> 24);
    }
    const auto stream = static_cast<std::uint16_t>(lcg >> 8);
    Payload packet = ProtocolHeader::seal(stream, SegmentType::kData, body);
    ASSERT_EQ(packet.size(), ProtocolHeader::kSize + n);
    ASSERT_TRUE(open_packet_view(packet).has_value()) << "size " << packet.size();
    for (std::size_t byte = 0; byte < packet.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        packet[byte] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(open_packet_view(packet).has_value())
            << "size " << packet.size() << " byte " << byte << " bit " << bit;
        packet[byte] ^= static_cast<std::uint8_t>(1u << bit);
        ++flips;
      }
    }
  }
  EXPECT_EQ(flips, 8u * ((7u + 80u) * 74u / 2u + 1038u));  // every bit of every size
}

TEST(Channel, RoutesByStreamId) {
  Channel ch;
  int got_a = 0;
  int got_b = 0;
  CallbackEndpoint a{[&](const ProtocolHeader&, ByteReader&, LinkDirection, TimePoint) {
    ++got_a;
  }};
  CallbackEndpoint b{[&](const ProtocolHeader&, ByteReader&, LinkDirection, TimePoint) {
    ++got_b;
  }};
  ch.register_stream(1, a);
  ch.register_stream(2, b);
  ch.send(LinkDirection::kDownlink, ProtocolHeader::seal(1, SegmentType::kData, {1}), 10,
          TimePoint{});
  ch.send(LinkDirection::kUplink, ProtocolHeader::seal(2, SegmentType::kData, {2}), 10,
          TimePoint{});
  ch.send(LinkDirection::kDownlink, ProtocolHeader::seal(9, SegmentType::kData, {3}), 10,
          TimePoint{});
  ch.poll(TimePoint{});
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(ch.unroutable(), 1u);
}

TEST(Channel, DropsCorruptedPacketsLikeTcpChecksum) {
  // A corrupt qdisc plus the framing checksum turns corruption into loss —
  // the §V.C observation that corruption has no distinct user-visible effect.
  Channel ch;
  int delivered = 0;
  CallbackEndpoint endpoint{
      [&](const ProtocolHeader&, ByteReader&, LinkDirection, TimePoint) { ++delivered; }};
  ch.register_stream(1, endpoint);
  ch.tc().add(parse_netem("corrupt 100%"));
  for (int i = 0; i < 50; ++i) {
    ch.send(LinkDirection::kDownlink,
            ProtocolHeader::seal(1, SegmentType::kData, {1, 2, 3, 4, 5}), 10, TimePoint{});
  }
  ch.poll(TimePoint{});
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.checksum_failures(), 50u);
}

TEST(Channel, DeregisteredStreamIsUnroutableAndReplacedOneStays) {
  Channel ch;
  int got_a = 0;
  int got_b = 0;
  CallbackEndpoint a{[&](const ProtocolHeader&, ByteReader&, LinkDirection, TimePoint) {
    ++got_a;
  }};
  CallbackEndpoint b{[&](const ProtocolHeader&, ByteReader&, LinkDirection, TimePoint) {
    ++got_b;
  }};
  ch.register_stream(1, a);
  ch.register_stream(1, b);     // b replaces a ...
  ch.deregister_stream(1, a);   // ... so a's deregistration leaves b in place
  ch.deregister_stream(40, a);  // an id never registered
  ch.send(LinkDirection::kDownlink, ProtocolHeader::seal(1, SegmentType::kData, {1}), 10,
          TimePoint{});
  ch.poll(TimePoint{});
  EXPECT_EQ(got_a, 0);
  EXPECT_EQ(got_b, 1);
  ch.deregister_stream(1, b);
  ch.send(LinkDirection::kDownlink, ProtocolHeader::seal(1, SegmentType::kData, {2}), 10,
          TimePoint{});
  ch.poll(TimePoint{});
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(ch.unroutable(), 1u);
}

/// A transport dies with its packets still on the link: the channel must not
/// call into it, and counts those packets as unroutable.
TEST(Channel, PacketsOfADestroyedTransportAreUnroutable) {
  Channel ch;
  {
    ReliableStream stream{ch, 1, LinkDirection::kDownlink};
    DatagramSocket socket{ch, 2, LinkDirection::kUplink};
    stream.send_message(Payload(64, 1), 64, TimePoint{});
    stream.step(TimePoint{});  // one DATA segment onto the link
    socket.send_message(Payload(8, 2), 8, TimePoint{});
    ASSERT_EQ(ch.in_flight(), 2u);
  }
  ch.poll(TimePoint{});
  EXPECT_EQ(ch.stats(LinkDirection::kDownlink).packets_delivered, 1u);
  EXPECT_EQ(ch.stats(LinkDirection::kUplink).packets_delivered, 1u);
  EXPECT_EQ(ch.unroutable(), 2u);
  EXPECT_EQ(ch.checksum_failures(), 0u);
}

}  // namespace
}  // namespace rdsim::net
