// TCP-analogue semantics: ordering, retransmission, head-of-line blocking.
#include <gtest/gtest.h>

#include "check/contracts.hpp"
#include "net/reliable_stream.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

struct StreamFixture : public ::testing::Test {
  StreamFixture()
      : stream{channel, 1, LinkDirection::kDownlink, config()} {}

  static StreamConfig config() {
    StreamConfig cfg;
    cfg.mtu = 1000;
    return cfg;
  }

  /// Run the virtual clock forward, polling every millisecond.
  void run_for(Duration d) {
    const TimePoint end = now + d;
    while (now < end) {
      now += Duration::millis(1);
      channel.poll(now);
      stream.step(now);
    }
  }

  Payload make_message(std::size_t bytes) {
    Payload p(bytes);
    for (std::size_t i = 0; i < bytes; ++i) p[i] = static_cast<std::uint8_t>(i * 7);
    return p;
  }

  Channel channel;
  ReliableStream stream;
  TimePoint now;
};

TEST_F(StreamFixture, DeliversSingleMessage) {
  const Payload msg = make_message(100);
  stream.send_message(msg, 100, now);
  run_for(Duration::millis(5));
  const auto delivered = stream.pop_delivered();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->bytes, msg);
  EXPECT_EQ(stream.stats().messages_delivered, 1u);
}

TEST_F(StreamFixture, SegmentsLargeMessages) {
  // 10 KB at MTU 1000 = 10 segments.
  stream.send_message(make_message(500), 10000, now);
  run_for(Duration::millis(5));
  EXPECT_EQ(stream.stats().segments_sent, 10u);
  const auto delivered = stream.pop_delivered();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(delivered->bytes.size(), 500u);  // payload reassembled exactly
}

TEST_F(StreamFixture, InOrderDeliveryOfManyMessages) {
  for (int i = 0; i < 20; ++i) {
    Payload msg{static_cast<std::uint8_t>(i)};
    stream.send_message(msg, 100, now);
  }
  run_for(Duration::millis(10));
  for (int i = 0; i < 20; ++i) {
    const auto d = stream.pop_delivered();
    ASSERT_TRUE(d.has_value()) << i;
    EXPECT_EQ(d->bytes[0], static_cast<std::uint8_t>(i));
  }
}

TEST_F(StreamFixture, RecoversFromLossViaRetransmission) {
  channel.tc().add(parse_netem("loss 30%"));
  for (int i = 0; i < 50; ++i) {
    stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  }
  run_for(Duration::seconds(10.0));
  int received = 0;
  while (auto d = stream.pop_delivered()) {
    EXPECT_EQ(d->bytes[0], static_cast<std::uint8_t>(received));
    ++received;
  }
  EXPECT_EQ(received, 50);
  EXPECT_GT(stream.stats().retransmits_rto + stream.stats().retransmits_fast, 0u);
}

TEST_F(StreamFixture, LossCausesHeadOfLineStall) {
  // With 200 ms min RTO, a lost segment stalls delivery of everything behind
  // it for on the order of the RTO.
  channel.tc().add(parse_netem("loss 100%"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(50));
  channel.tc().del();
  stream.send_message({2}, 100, now);
  run_for(Duration::millis(50));
  // Message 2's segment arrived, but message 1 blocks delivery.
  EXPECT_FALSE(stream.pop_delivered().has_value());
  run_for(Duration::millis(400));  // let the RTO fire and retransmit
  auto first = stream.pop_delivered();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->bytes[0], 1);
  auto second = stream.pop_delivered();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->bytes[0], 2);
  EXPECT_GE(first->latency(), Duration::millis(200));  // paid at least one RTO
}

TEST_F(StreamFixture, FastRetransmitBeatsRtoWhenTrafficFlows) {
  // Drop exactly one segment, then keep sending: dup-ACKs should trigger a
  // fast retransmit well before the 200 ms RTO.
  channel.tc().add(parse_netem("loss 100%"));
  stream.send_message({9}, 100, now);
  run_for(Duration::millis(2));
  channel.tc().del();
  for (int i = 0; i < 6; ++i) {
    stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
    run_for(Duration::millis(5));
  }
  run_for(Duration::millis(60));
  EXPECT_GE(stream.stats().retransmits_fast, 1u);
  auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->bytes[0], 9);
  EXPECT_LT(d->latency(), Duration::millis(150));
}

TEST_F(StreamFixture, DelayInflatesMessageLatency) {
  channel.tc().add(parse_netem("delay 50ms"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(200));
  const auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(d->latency(), Duration::millis(50));
  EXPECT_LT(d->latency(), Duration::millis(60));
}

TEST_F(StreamFixture, DuplicatesAreDiscardedByReceiver) {
  channel.tc().add(parse_netem("duplicate 100%"));
  for (int i = 0; i < 10; ++i) stream.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  run_for(Duration::millis(20));
  int received = 0;
  while (stream.pop_delivered()) ++received;
  EXPECT_EQ(received, 10);
  EXPECT_GT(stream.stats().stale_segments, 0u);
}

TEST_F(StreamFixture, CorruptionBehavesAsLoss) {
  channel.tc().add(parse_netem("corrupt 100%"));
  stream.send_message({42}, 100, now);
  run_for(Duration::millis(100));
  EXPECT_FALSE(stream.pop_delivered().has_value());  // every copy mangled
  channel.tc().del();
  run_for(Duration::millis(500));  // retransmission over the clean link
  const auto d = stream.pop_delivered();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->bytes[0], 42);
}

TEST_F(StreamFixture, WindowLimitsInFlightSegments) {
  StreamConfig cfg = config();
  cfg.window_segments = 4;
  ReliableStream small{channel, 2, LinkDirection::kDownlink, cfg};
  channel.tc().add(parse_netem("delay 500ms"));  // keep ACKs away
  for (int i = 0; i < 20; ++i) small.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  small.step(now);
  EXPECT_EQ(small.unacked_segments(), 4u);
  EXPECT_EQ(small.send_backlog(), 16u);
}

TEST_F(StreamFixture, RtoBacksOffExponentially) {
  channel.tc().add(parse_netem("loss 100%"));
  stream.send_message({1}, 100, now);
  run_for(Duration::seconds(3.0));
  // With min RTO 200 ms, max 2 s and doubling, ~5-7 attempts fit in 3 s;
  // without backoff there would be ~15.
  EXPECT_LE(stream.stats().retransmits_rto, 8u);
  EXPECT_GE(stream.stats().retransmits_rto, 3u);
}

TEST_F(StreamFixture, SrttTracksPathDelay) {
  channel.tc().add(parse_netem("delay 20ms"));
  for (int i = 0; i < 20; ++i) {
    stream.send_message({1}, 100, now);
    run_for(Duration::millis(60));
    stream.pop_delivered();
  }
  EXPECT_NEAR(stream.stats().srtt.value(), 40.0, 10.0);  // both directions delayed
}

TEST_F(StreamFixture, BidirectionalFaultHitsAcks) {
  // Even if only data gets through untouched, delayed ACKs stretch the
  // sender's RTT estimate — both directions share the device.
  channel.tc().add(parse_netem("delay 100ms"));
  stream.send_message({1}, 100, now);
  run_for(Duration::millis(500));
  EXPECT_GE(stream.stats().srtt.value(), 190.0);
}

// Forged packets: checksum-valid segments the sender never produced. The
// corrupt qdisc flips one bit, which the ones'-complement sum always
// catches, so these only arise from multi-bit damage; the stream must still
// stay sane.

Payload forge_data(std::uint16_t stream_id, std::uint32_t seq) {
  ByteWriter w;
  ProtocolHeader::begin(w, stream_id, SegmentType::kData);
  w.u32(seq);
  w.u32(0);    // message id
  w.u16(0);    // segment index
  w.u16(1);    // segment count
  w.u32(100);  // message wire size
  w.u64(0);    // message sent_us
  w.bytes({7});
  return ProtocolHeader::finish(w);
}

Payload forge_ack(std::uint16_t stream_id, std::uint32_t cum_ack) {
  ByteWriter w;
  ProtocolHeader::begin(w, stream_id, SegmentType::kAck);
  w.u32(cum_ack);
  w.u32(0);  // no SACK hints
  w.u64(0);  // echoed timestamp
  return ProtocolHeader::finish(w);
}

TEST_F(StreamFixture, ForgedDataBeyondTheRingIsDropped) {
  StreamConfig cfg = config();
  cfg.window_segments = 100;  // rounds up to a 128-slot ring
  ReliableStream s{channel, 2, LinkDirection::kDownlink, cfg};
  auto run = [&](Duration d) {
    for (const TimePoint end = now + d; now < end;) {
      now += Duration::millis(1);
      channel.poll(now);
      s.step(now);
    }
  };

  // rcv_next is 0: sequence 128 lies one past the ring and is dropped
  // before any accounting — no ACK, no stale count, nothing buffered.
  channel.send(LinkDirection::kDownlink, forge_data(2, 128), 100, now);
  run(Duration::millis(5));
  EXPECT_EQ(s.stats().acks_sent, 0u);
  EXPECT_EQ(s.stats().stale_segments, 0u);
  EXPECT_FALSE(s.pop_delivered().has_value());

  // Real traffic is unaffected.
  for (int i = 0; i < 5; ++i) s.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  run(Duration::millis(50));
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto d = s.pop_delivered();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->message_id, i);
    EXPECT_EQ(d->bytes, Payload{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(s.stats().stale_segments, 0u);

  // rcv_next is now 5: 5 + 128 is still out, 5 + 127 is the last slot in.
  const std::uint64_t acks = s.stats().acks_sent;
  channel.send(LinkDirection::kDownlink, forge_data(2, 5 + 128), 100, now);
  run(Duration::millis(5));
  EXPECT_EQ(s.stats().acks_sent, acks);
  channel.send(LinkDirection::kDownlink, forge_data(2, 5 + 127), 100, now);
  run(Duration::millis(5));
  EXPECT_EQ(s.stats().acks_sent, acks + 1);  // buffered out of order, ACKed
  EXPECT_FALSE(s.pop_delivered().has_value());
}

TEST_F(StreamFixture, ForgedAckForUnsentDataIsDropped) {
  StreamConfig cfg = config();
  cfg.window_segments = 4;
  ReliableStream s{channel, 2, LinkDirection::kDownlink, cfg};
  for (int i = 0; i < 20; ++i) s.send_message({static_cast<std::uint8_t>(i)}, 100, now);
  s.step(now);  // four segments in flight, sixteen queued
  channel.send(LinkDirection::kUplink, forge_ack(2, 1000), 60, now);
  for (int t = 0; t < 300; ++t) {
    now += Duration::millis(1);
    channel.poll(now);
    s.step(now);
    EXPECT_LE(s.last_cum_ack(), 20u);
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    const auto d = s.pop_delivered();
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->message_id, i);
  }
  EXPECT_EQ(s.last_cum_ack(), 20u);
  EXPECT_EQ(s.unacked_segments(), 0u);
}

/// The u16 segment count must not wrap: a message needing more than 65 535
/// segments, or any message at mtu 0, breaks send_message's contract.
TEST_F(StreamFixture, SegmentCountBeyondU16BreaksTheContract) {
  const auto saved = check::Registry::instance().policy();
  check::Registry::instance().set_policy(check::Policy::kThrow);
  StreamConfig cfg = config();
  cfg.mtu = 1;
  ReliableStream tiny{channel, 2, LinkDirection::kDownlink, cfg};
  EXPECT_NO_THROW(tiny.send_message({1}, 65535, now));
  EXPECT_THROW(tiny.send_message({1}, 65536, now), check::ContractViolation);
  cfg.mtu = 0;
  ReliableStream zero{channel, 3, LinkDirection::kDownlink, cfg};
  EXPECT_THROW(zero.send_message({1}, 100, now), check::ContractViolation);
  check::Registry::instance().set_policy(saved);
}

}  // namespace
}  // namespace rdsim::net
