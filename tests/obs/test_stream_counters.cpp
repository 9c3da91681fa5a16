// Property tests for the ReliableStream instrumentation: conservation laws
// that must hold for *any* loss pattern, checked across several netem seeds
// and loss rates. These are the counters the paper-facing reports aggregate,
// so their semantics are pinned here rather than in prose.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/reliable_stream.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

/// StreamFixture from test_reliable_stream.cpp, parameterized on the netem
/// seed and wrapped in an obs context so every instrument records.
struct ObservedStream {
  explicit ObservedStream(std::uint64_t tc_seed)
      : channel{tc_seed},
        stream{channel, 1, LinkDirection::kDownlink, config()},
        scope{&ctx} {}

  static StreamConfig config() {
    StreamConfig cfg;
    cfg.mtu = 1000;
    return cfg;
  }

  void run_for(Duration d) {
    const TimePoint end = now + d;
    while (now < end) {
      now += Duration::millis(1);
      channel.poll(now);
      stream.step(now);
      // Cumulative-ack monotonicity, sampled every virtual millisecond.
      const std::uint32_t ack = stream.last_cum_ack();
      EXPECT_GE(ack, last_seen_ack) << "cum-ack went backwards";
      last_seen_ack = ack;
    }
  }

  std::uint64_t counter(obs::MetricId id) const { return ctx.counter(id); }

  obs::Context ctx;
  Channel channel;
  ReliableStream stream;
  obs::ContextScope scope;
  TimePoint now;
  std::uint32_t last_seen_ack{0};
};

TEST(ObsStreamCounters, CleanLinkCountsTxEqualsRxAndNoRetransmits) {
  ObservedStream s{1};
  for (int i = 0; i < 30; ++i) {
    s.stream.send_message({static_cast<std::uint8_t>(i)}, 100, s.now);
  }
  s.run_for(Duration::seconds(2.0));
  const std::uint64_t tx = s.counter(obs::metric::kStreamSegmentsTx);
  EXPECT_GE(tx, 30u);
  EXPECT_EQ(tx, s.counter(obs::metric::kStreamSegmentsRx));
  EXPECT_EQ(s.counter(obs::metric::kStreamRetransmittedSegments), 0u);
  EXPECT_EQ(s.counter(obs::metric::kStreamHolStallMicros), 0u);
  EXPECT_TRUE(s.ctx.spans().empty());
}

TEST(ObsStreamCounters, RetransmitsCoverLossesUnderNetemLoss) {
  // Conservation argument: tx = unique + retransmitted, rx = tx - lost.
  // Completion requires rx >= unique, hence retransmitted >= lost, i.e.
  //   retransmitted >= tx - rx
  // for every seed and loss rate — not just on average.
  for (const char* loss : {"loss 2%", "loss 5%", "loss 20%"}) {
    for (const std::uint64_t seed : {7ull, 11ull, 42ull}) {
      ObservedStream s{seed};
      s.channel.tc().add(parse_netem(loss));
      constexpr int kMessages = 40;
      for (int i = 0; i < kMessages; ++i) {
        s.stream.send_message({static_cast<std::uint8_t>(i)}, 100, s.now);
      }
      s.run_for(Duration::seconds(30.0));

      int received = 0;
      while (s.stream.pop_delivered()) ++received;
      ASSERT_EQ(received, kMessages) << loss << " seed " << seed;

      const std::uint64_t tx = s.counter(obs::metric::kStreamSegmentsTx);
      const std::uint64_t rx = s.counter(obs::metric::kStreamSegmentsRx);
      const std::uint64_t retx =
          s.counter(obs::metric::kStreamRetransmittedSegments);
      ASSERT_GE(tx, rx) << loss << " seed " << seed;
      EXPECT_GE(retx, tx - rx) << loss << " seed " << seed;

      // The obs counters and the stream's own stats must agree where they
      // count the same thing. (stats_.retransmits_rto counts RTO *events*,
      // which can each retransmit several segments, so it only lower-bounds
      // the segment counter.)
      EXPECT_EQ(s.counter(obs::metric::kStreamFastRetransmits),
                s.stream.stats().retransmits_fast);
      EXPECT_EQ(s.counter(obs::metric::kStreamRtoEvents),
                s.stream.stats().retransmits_rto);
      EXPECT_GE(retx, s.stream.stats().retransmits_fast);
    }
  }
}

TEST(ObsStreamCounters, HolStallMicrosEqualsSumOfTracedStallSpans) {
  // The stall counter and the stall spans are recorded from the same
  // endpoints, so the microsecond total must equal the span-duration sum
  // exactly — and the span count must match the windows counter.
  ObservedStream s{42};
  s.channel.tc().add(parse_netem("loss 30%"));
  for (int i = 0; i < 40; ++i) {
    s.stream.send_message({static_cast<std::uint8_t>(i)}, 100, s.now);
  }
  s.run_for(Duration::seconds(30.0));

  const std::uint64_t stall_us = s.counter(obs::metric::kStreamHolStallMicros);
  const std::uint64_t windows = s.counter(obs::metric::kStreamHolStallSpan);
  ASSERT_GT(windows, 0u) << "30% loss should have produced HOL stalls";

  std::uint64_t span_sum_us = 0;
  std::uint64_t span_count = 0;
  for (const obs::Span& span : s.ctx.spans()) {
    if (span.metric != obs::metric::kStreamHolStallSpan) continue;
    ASSERT_GE(span.end_us, span.begin_us) << "stall span left open";
    span_sum_us += static_cast<std::uint64_t>(span.end_us - span.begin_us);
    ++span_count;
  }
  EXPECT_EQ(span_count, windows);
  EXPECT_EQ(span_sum_us, stall_us);
}

TEST(ObsStreamCounters, RtoEventsMatchStreamStats) {
  ObservedStream s{7};
  // Total blackout long enough that only RTO can recover the segment.
  s.channel.tc().add(parse_netem("loss 100%"));
  s.stream.send_message({1}, 100, s.now);
  s.run_for(Duration::millis(300));
  s.channel.tc().del();
  s.run_for(Duration::seconds(2.0));
  ASSERT_TRUE(s.stream.pop_delivered().has_value());
  EXPECT_GT(s.counter(obs::metric::kStreamRtoEvents), 0u);
  EXPECT_EQ(s.counter(obs::metric::kStreamRtoEvents),
            s.stream.stats().retransmits_rto);
}

}  // namespace
}  // namespace rdsim::net
