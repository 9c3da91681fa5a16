#include <gtest/gtest.h>

#include "net/datagram.hpp"
#include "net/serialization.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

struct DgramFixture : public ::testing::Test {
  DgramFixture()
      : sock{channel, 3, LinkDirection::kUplink} {}

  Channel channel;
  DatagramSocket sock;
};

TEST_F(DgramFixture, DeliversInSendOrderOnCleanLink) {
  for (int i = 0; i < 5; ++i) {
    const TimePoint t = TimePoint::from_micros(i * 1000);
    EXPECT_EQ(sock.send_message({static_cast<std::uint8_t>(i)}, 50, t),
              static_cast<std::uint32_t>(i));
    channel.poll(t);
    const auto m = sock.pop_delivered();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->bytes, (Payload{static_cast<std::uint8_t>(i)}));
    EXPECT_EQ(m->message_id, static_cast<std::uint32_t>(i));
    EXPECT_EQ(m->sent_at, t);
    EXPECT_EQ(m->delivered_at, t);
    EXPECT_FALSE(sock.pop_delivered().has_value());
  }
  EXPECT_EQ(sock.received_count(), 5u);
  EXPECT_EQ(sock.stale_discarded(), 0u);
}

TEST_F(DgramFixture, LossIsSilent) {
  channel.tc().add(parse_netem("loss 100%"));
  sock.send_message({1}, 50, TimePoint{});
  channel.poll(TimePoint::from_seconds(1.0));
  EXPECT_FALSE(sock.pop_delivered().has_value());
  EXPECT_EQ(sock.sent_count(), 1u);
  EXPECT_EQ(sock.received_count(), 0u);
}

TEST_F(DgramFixture, ReceiveLatestSkipsBacklog) {
  for (int i = 0; i < 10; ++i) {
    sock.send_message({static_cast<std::uint8_t>(i)}, 50, TimePoint{});
  }
  channel.poll(TimePoint{});
  const auto m = sock.pop_delivered();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->bytes[0], 9);
  EXPECT_EQ(sock.stale_discarded(), 9u);
  EXPECT_FALSE(sock.pop_delivered().has_value());
}

TEST_F(DgramFixture, KeepsNoStreamTelemetry) {
  // The transport seam's stats() is all zero for datagrams, which the link
  // quality estimator reads as "no RTT / retransmit telemetry".
  channel.tc().add(parse_netem("delay 10ms loss 20%"));
  for (int i = 0; i < 50; ++i) {
    const TimePoint t = TimePoint::from_micros(i * 2000);
    sock.send_message({static_cast<std::uint8_t>(i)}, 1200, t);
    EXPECT_EQ(sock.send_backlog(), 0u);
    channel.poll(t);
    sock.step(t);
    sock.pop_delivered();
  }
  channel.poll(TimePoint::from_seconds(1.0));
  sock.pop_delivered();
  ASSERT_GT(sock.received_count(), 0u);
  ASSERT_LT(sock.received_count(), 50u);
  EXPECT_EQ(sock.send_backlog(), 0u);
  const StreamStats& s = sock.stats();
  EXPECT_EQ(s.messages_sent, 0u);
  EXPECT_EQ(s.messages_delivered, 0u);
  EXPECT_EQ(s.segments_sent, 0u);
  EXPECT_EQ(s.retransmits_rto, 0u);
  EXPECT_EQ(s.retransmits_fast, 0u);
  EXPECT_EQ(s.acks_sent, 0u);
  EXPECT_EQ(s.dup_acks_seen, 0u);
  EXPECT_EQ(s.stale_segments, 0u);
  EXPECT_EQ(s.srtt.value(), 0.0);
  EXPECT_EQ(s.rto.value(), 0.0);
}

TEST_F(DgramFixture, DropsDatagramWhoseLengthRunsPastThePacket) {
  // A checksum-valid datagram whose body length prefix claims more bytes
  // than the packet holds: the parser must reject it, not read past the end.
  ByteWriter w;
  w.u32(0);     // sequence
  w.u64(0);     // sent_at
  w.u32(1000);  // body length prefix
  w.u8(7);      // ...but only one body byte follows
  channel.send(LinkDirection::kUplink,
               ProtocolHeader::seal(3, SegmentType::kDatagram, w.take()), 50, TimePoint{});
  channel.poll(TimePoint{});
  EXPECT_EQ(channel.checksum_failures(), 0u);
  EXPECT_FALSE(sock.pop_delivered().has_value());
  EXPECT_EQ(sock.received_count(), 0u);
  EXPECT_EQ(sock.stale_discarded(), 0u);
}

TEST_F(DgramFixture, ReceiveLatestIgnoresReorderedOldPackets) {
  // Reordering makes an old datagram arrive after a newer one; latest-wins
  // must not step backwards.
  channel.tc().add(parse_netem("delay 50ms reorder 50% gap 2"));
  for (int i = 0; i < 30; ++i) {
    sock.send_message({static_cast<std::uint8_t>(i)}, 50,
                      TimePoint::from_micros(i * 1000));
  }
  std::uint32_t last_seq = 0;
  bool any = false;
  for (int ms = 0; ms < 120; ms += 5) {
    channel.poll(TimePoint::from_micros(ms * 1000));
    if (const auto m = sock.pop_delivered()) {
      if (any) {
        EXPECT_GE(m->message_id, last_seq);
      }
      last_seq = m->message_id;
      any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(DgramFixture, WrongDirectionPacketsIgnored) {
  // A datagram with our stream id arriving from the *receive* direction
  // (i.e. looped back) must not be delivered as incoming data.
  ByteWriter w;
  w.u32(0);
  w.u64(0);
  w.bytes({1});
  channel.send(LinkDirection::kDownlink,
               ProtocolHeader::seal(3, SegmentType::kDatagram, w.take()), 50, TimePoint{});
  channel.poll(TimePoint{});
  EXPECT_FALSE(sock.pop_delivered().has_value());
}

}  // namespace
}  // namespace rdsim::net
