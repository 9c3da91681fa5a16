#include <gtest/gtest.h>

#include "net/channel.hpp"
#include "net/tc.hpp"

namespace rdsim::net {
namespace {

using util::TimePoint;

TEST(QdiscStats, SummaryMentionsAllCounters) {
  QdiscStats s;
  s.enqueued = 10;
  s.dequeued = 7;
  s.dropped_loss = 2;
  s.dropped_overlimit = 1;
  s.duplicated = 3;
  s.corrupted = 4;
  s.reordered = 5;
  s.bytes_sent = 700;
  const std::string text = s.summary();
  EXPECT_NE(text.find("sent 7"), std::string::npos);
  EXPECT_NE(text.find("700 bytes"), std::string::npos);
  EXPECT_NE(text.find("dropped 3"), std::string::npos);
  EXPECT_NE(text.find("loss 2"), std::string::npos);
  EXPECT_NE(text.find("duplicated 3"), std::string::npos);
  EXPECT_NE(text.find("corrupted 4"), std::string::npos);
  EXPECT_NE(text.find("reordered 5"), std::string::npos);
  EXPECT_EQ(s.total_dropped(), 3u);
}

TEST(NetemDescribe, RoundTripsThroughParser) {
  // describe() must emit a string parse_netem accepts, with the same
  // semantics — the property that makes fault logs replayable.
  for (const char* spec :
       {"delay 50ms", "delay 100ms 10ms 25%", "loss 5%", "loss 2% 50%",
        "delay 20ms loss 1% duplicate 2% corrupt 0.5%",
        "delay 10ms 2ms distribution normal", "delay 10ms 2ms distribution pareto",
        "delay 10ms 2ms distribution paretonormal"}) {
    const NetemConfig original = parse_netem(spec);
    const NetemConfig reparsed = parse_netem(original.describe());
    EXPECT_EQ(reparsed.delay, original.delay) << spec;
    EXPECT_EQ(reparsed.jitter, original.jitter) << spec;
    EXPECT_DOUBLE_EQ(reparsed.loss_probability.value(), original.loss_probability.value()) << spec;
    EXPECT_DOUBLE_EQ(reparsed.duplicate_probability.value(),
                     original.duplicate_probability.value())
        << spec;
    EXPECT_DOUBLE_EQ(reparsed.corrupt_probability.value(),
                     original.corrupt_probability.value())
        << spec;
    EXPECT_EQ(reparsed.distribution, original.distribution) << spec;
  }
}

TEST(Channel, StatsSeparatedByDirection) {
  Channel ch;
  for (int i = 0; i < 3; ++i) ch.send(LinkDirection::kDownlink, {1}, 100, TimePoint{});
  ch.send(LinkDirection::kUplink, {2}, 50, TimePoint{});
  ch.poll(TimePoint{});
  EXPECT_EQ(ch.stats(LinkDirection::kDownlink).packets_sent, 3u);
  EXPECT_EQ(ch.stats(LinkDirection::kUplink).packets_sent, 1u);
  EXPECT_EQ(ch.stats(LinkDirection::kDownlink).bytes_sent, 300u);
  EXPECT_EQ(ch.stats(LinkDirection::kUplink).bytes_sent, 50u);
}

TEST(Packet, EffectiveWireSizeUsesMax) {
  Packet p;
  p.payload.assign(500, 0);
  p.wire_size = 100;  // declared smaller than the actual payload
  EXPECT_EQ(p.effective_wire_size(), 500u);
  p.wire_size = 9000;
  EXPECT_EQ(p.effective_wire_size(), 9000u);
}

}  // namespace
}  // namespace rdsim::net
