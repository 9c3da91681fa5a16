// Semantics of the NETEM queueing-discipline reimplementation.
#include <gtest/gtest.h>

#include "check/contracts.hpp"
#include "net/netem.hpp"

namespace rdsim::net {

// Names parameterized tests by the distribution's tc keyword, so their ctest
// names read ".../normal" rather than "1-byte object <01>". Outside the
// anonymous namespace: gtest finds it by argument-dependent lookup.
void PrintTo(DelayDistribution d, std::ostream* os) {
  switch (d) {
    case DelayDistribution::kUniform: *os << "uniform"; break;
    case DelayDistribution::kNormal: *os << "normal"; break;
    case DelayDistribution::kPareto: *os << "pareto"; break;
    case DelayDistribution::kParetoNormal: *os << "paretonormal"; break;
  }
}

namespace {

using util::Duration;
using util::TimePoint;

Packet make_packet(std::uint64_t id, std::uint32_t bytes = 100) {
  Packet p;
  p.id = id;
  p.payload.assign(bytes, static_cast<std::uint8_t>(id & 0xff));
  p.wire_size = bytes;
  return p;
}

// A NetemQdisc with no rule is the kernel's default pfifo.
TEST(Pfifo, PassesThroughImmediately) {
  NetemQdisc q;
  EXPECT_EQ(q.kind(), "pfifo");
  q.enqueue(make_packet(1), TimePoint{});
  auto out = q.drain(TimePoint{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(q.stats().dequeued, 1u);
}

TEST(Pfifo, TailDropsOverLimit) {
  NetemQdisc q;
  EXPECT_EQ(q.config().limit, 1000u);
  for (int i = 0; i < 1003; ++i) {
    q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  }
  EXPECT_EQ(q.stats().dropped_overlimit, 3u);
  const auto out = q.drain(TimePoint{});
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].id, i);
}

TEST(Netem, FixedDelayHoldsPacket) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  NetemQdisc q{cfg};
  q.enqueue(make_packet(1), TimePoint{});
  EXPECT_TRUE(q.drain(TimePoint::from_micros(49999)).empty());
  auto out = q.drain(TimePoint::from_micros(50000));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(q.backlog(), 0u);
}

TEST(Netem, NextEventReportsRelease) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(5);
  NetemQdisc q{cfg};
  EXPECT_FALSE(q.next_event_at().has_value());
  q.enqueue(make_packet(1), TimePoint::from_micros(1000));
  ASSERT_TRUE(q.next_event_at().has_value());
  EXPECT_EQ(q.next_event_at()->count_micros(), 6000);
}

TEST(Netem, PreservesFifoOrderForEqualDelay) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(10);
  NetemQdisc q{cfg};
  for (std::uint64_t i = 0; i < 20; ++i) q.enqueue(make_packet(i), TimePoint{});
  const auto out = q.drain(TimePoint::from_micros(10000));
  ASSERT_EQ(out.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(out[i].id, i);
}

TEST(Netem, JitterStaysWithinBounds) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(20);
  cfg.jitter = Duration::millis(5);
  NetemQdisc q{cfg, /*seed=*/3};
  for (std::uint64_t i = 0; i < 500; ++i) q.enqueue(make_packet(i), TimePoint{});
  // Nothing before 15 ms, everything by 25 ms.
  EXPECT_TRUE(q.drain(TimePoint::from_micros(14999)).empty());
  const auto out = q.drain(TimePoint::from_micros(25000));
  EXPECT_EQ(out.size(), 500u);
}

TEST(Netem, LossRateApproximatesConfiguration) {
  NetemConfig cfg;
  cfg.loss_probability = units::Probability{0.2};
  NetemQdisc q{cfg, 7};
  const int n = 20000;
  for (int i = 0; i < n; ++i) q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  const double loss_rate = static_cast<double>(q.stats().dropped_loss) / n;
  EXPECT_NEAR(loss_rate, 0.2, 0.015);
  EXPECT_EQ(q.stats().enqueued, static_cast<std::uint64_t>(n));
}

TEST(Netem, ZeroLossDropsNothing) {
  NetemConfig cfg;
  NetemQdisc q{cfg, 7};
  for (int i = 0; i < 1000; ++i) q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  EXPECT_EQ(q.stats().dropped_loss, 0u);
  EXPECT_EQ(q.drain(TimePoint{}).size(), 1000u);
}

TEST(Netem, CorrelatedLossClustersBursts) {
  NetemConfig cfg;
  cfg.loss_probability = units::Probability{0.2};
  cfg.loss_correlation = units::Probability{0.9};
  NetemQdisc q{cfg, 11};
  int transitions = 0;
  bool prev_dropped = false;
  std::uint64_t prev_count = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
    const bool dropped = q.stats().dropped_loss > prev_count;
    prev_count = q.stats().dropped_loss;
    if (i > 0 && dropped != prev_dropped) ++transitions;
    prev_dropped = dropped;
  }
  // Independent losses at p=0.2 would transition ~2*0.2*0.8*n = 6400 times;
  // strong correlation should produce far fewer, longer bursts, while the
  // marginal rate stays at p.
  EXPECT_LT(transitions, 3000);
  EXPECT_NEAR(static_cast<double>(q.stats().dropped_loss) / n, 0.2, 0.03);
}

TEST(Netem, GilbertElliottProducesBurstyLoss) {
  NetemConfig cfg;
  GilbertElliott ge;
  ge.p = units::Probability{0.02};  // rarely enter the bad state
  ge.r = units::Probability{0.2};  // stay there for ~5 packets
  ge.h = units::Probability{0.0};  // lossless when good
  ge.k = units::Probability{1.0};  // everything lost when bad
  cfg.gemodel = ge;
  NetemQdisc q{cfg, 5};
  const int n = 50000;
  for (int i = 0; i < n; ++i) q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  // Stationary loss rate = p / (p + r) ~= 0.0909.
  const double rate = static_cast<double>(q.stats().dropped_loss) / n;
  EXPECT_NEAR(rate, 0.02 / 0.22, 0.02);
}

TEST(Netem, DuplicationCreatesCopies) {
  NetemConfig cfg;
  cfg.duplicate_probability = units::Probability{0.5};
  cfg.limit = 10000;
  NetemQdisc q{cfg, 13};
  const int n = 2000;
  for (int i = 0; i < n; ++i) q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  const auto out = q.drain(TimePoint{});
  EXPECT_NEAR(static_cast<double>(out.size()), n * 1.5, n * 0.06);
  EXPECT_GT(q.stats().duplicated, 0u);
  std::size_t dup_flagged = 0;
  for (const auto& p : out) {
    if (p.duplicate) ++dup_flagged;
  }
  EXPECT_EQ(dup_flagged, q.stats().duplicated);
}

TEST(Netem, CorruptionFlipsExactlyOneBit) {
  NetemConfig cfg;
  cfg.corrupt_probability = units::Probability{1.0};
  NetemQdisc q{cfg, 17};
  Packet p = make_packet(1, 64);
  const Payload original = p.payload;
  q.enqueue(std::move(p), TimePoint{});
  auto out = q.drain(TimePoint{});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].corrupted);
  int bit_diffs = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::uint8_t x = static_cast<std::uint8_t>(original[i] ^ out[0].payload[i]);
    while (x != 0) {
      bit_diffs += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(bit_diffs, 1);
}

TEST(Netem, ReorderSendsSelectedPacketsImmediately) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  cfg.reorder_probability = units::Probability{1.0};
  cfg.reorder_gap = 5;  // every 5th packet jumps the queue
  NetemQdisc q{cfg, 19};
  for (std::uint64_t i = 1; i <= 10; ++i) q.enqueue(make_packet(i), TimePoint{});
  const auto early = q.drain(TimePoint{});
  ASSERT_EQ(early.size(), 2u);  // packets 5 and 10
  EXPECT_EQ(early[0].id, 5u);
  EXPECT_EQ(early[1].id, 10u);
  const auto late = q.drain(TimePoint::from_micros(100000));
  EXPECT_EQ(late.size(), 8u);
}

TEST(Netem, RateControlSpacesPackets) {
  NetemConfig cfg;
  cfg.rate = units::BytesPerSecond{1000.0};  // 1 KB/s; 100-byte packet = 100 ms each
  NetemQdisc q{cfg, 23};
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(make_packet(i, 100), TimePoint{});
  EXPECT_EQ(q.drain(TimePoint::from_micros(99000)).size(), 0u);
  EXPECT_EQ(q.drain(TimePoint::from_micros(100000)).size(), 1u);
  EXPECT_EQ(q.drain(TimePoint::from_micros(200000)).size(), 1u);
  EXPECT_EQ(q.drain(TimePoint::from_micros(300000)).size(), 1u);
}

TEST(Netem, LimitDropsWhenFull) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(1000);
  cfg.limit = 10;
  NetemQdisc q{cfg, 29};
  for (std::uint64_t i = 0; i < 20; ++i) q.enqueue(make_packet(i), TimePoint{});
  EXPECT_EQ(q.backlog(), 10u);
  EXPECT_EQ(q.stats().dropped_overlimit, 10u);
}

TEST(Netem, ChangeKeepsQueuedReleaseTimes) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(100);
  NetemQdisc q{cfg};
  q.enqueue(make_packet(1), TimePoint{});
  NetemConfig faster;
  faster.delay = Duration::millis(1);
  q.change(faster);
  // The queued packet keeps its 100 ms schedule...
  EXPECT_TRUE(q.drain(TimePoint::from_micros(50000)).empty());
  // ...while new packets use the new delay.
  q.enqueue(make_packet(2), TimePoint::from_micros(50000));
  const auto out = q.drain(TimePoint::from_micros(51000));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, 2u);
}

TEST(Netem, DeterministicForSameSeed) {
  NetemConfig cfg;
  cfg.loss_probability = units::Probability{0.3};
  cfg.delay = Duration::millis(10);
  cfg.jitter = Duration::millis(5);
  NetemQdisc q1{cfg, 99};
  NetemQdisc q2{cfg, 99};
  for (std::uint64_t i = 0; i < 500; ++i) {
    q1.enqueue(make_packet(i), TimePoint{});
    q2.enqueue(make_packet(i), TimePoint{});
  }
  EXPECT_EQ(q1.stats().dropped_loss, q2.stats().dropped_loss);
  const auto o1 = q1.drain(TimePoint::from_micros(7000));
  const auto o2 = q2.drain(TimePoint::from_micros(7000));
  ASSERT_EQ(o1.size(), o2.size());
  for (std::size_t i = 0; i < o1.size(); ++i) EXPECT_EQ(o1[i].id, o2[i].id);
}

TEST(Netem, DescribeRendersConfiguration) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(50);
  EXPECT_EQ(cfg.describe(), "netem delay 50ms");
  NetemConfig loss;
  loss.loss_probability = units::Probability{0.05};
  EXPECT_EQ(loss.describe(), "netem loss 5%");
}

class JitterDistributionTest : public ::testing::TestWithParam<DelayDistribution> {};

TEST_P(JitterDistributionTest, DelaysNeverNegativeAndMeanNearBase) {
  NetemConfig cfg;
  cfg.delay = Duration::millis(20);
  cfg.jitter = Duration::millis(4);
  cfg.distribution = GetParam();
  cfg.limit = 10000;
  NetemQdisc q{cfg, 31};
  const int n = 2000;
  for (int i = 0; i < n; ++i) q.enqueue(make_packet(static_cast<std::uint64_t>(i)), TimePoint{});
  // All packets released eventually, none before t=0.
  std::size_t total = 0;
  double sum_ms = 0.0;
  for (int ms = 0; ms <= 60; ++ms) {
    const auto out = q.drain(TimePoint::from_micros(ms * 1000));
    total += out.size();
    sum_ms += static_cast<double>(out.size()) * ms;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(n));
  EXPECT_NEAR(sum_ms / n, 20.0, 3.0);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, JitterDistributionTest,
                         ::testing::Values(DelayDistribution::kUniform,
                                           DelayDistribution::kNormal,
                                           DelayDistribution::kPareto,
                                           DelayDistribution::kParetoNormal));

// Every probability/correlation knob on NetemConfig is a units::Probability:
// an out-of-range value is rejected when the field is built, not when a
// packet eventually rolls the bad dice mid-campaign.
TEST(NetemConfig, OutOfRangeProbabilityRejectedAtConstruction) {
  const auto saved = check::Registry::instance().policy();
  check::Registry::instance().set_policy(check::Policy::kThrow);
  NetemConfig cfg;
  EXPECT_THROW(cfg.loss_probability = units::Probability{1.5},
               check::ContractViolation);
  EXPECT_THROW(cfg.loss_correlation = units::Probability{-0.25},
               check::ContractViolation);
  EXPECT_THROW(cfg.duplicate_probability = units::Probability{2.0},
               check::ContractViolation);
  EXPECT_THROW(cfg.corrupt_probability = units::Probability{1.01},
               check::ContractViolation);
  EXPECT_THROW(cfg.reorder_correlation = units::Probability{-1e-9},
               check::ContractViolation);
  GilbertElliott ge;
  EXPECT_THROW(ge.p = units::Probability{1.5}, check::ContractViolation);
  EXPECT_THROW(ge.k = units::Probability{100.0}, check::ContractViolation);
  // In-range assignments still work, including the boundaries.
  cfg.loss_probability = units::Probability{0.0};
  cfg.delay_correlation = units::Probability{1.0};
  check::Registry::instance().set_policy(saved);
}

}  // namespace
}  // namespace rdsim::net
