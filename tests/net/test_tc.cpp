// The tc rule language and the loopback link's root qdisc.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "net/tc.hpp"

namespace rdsim::net {
namespace {

using util::Duration;

TEST(ParseDuration, Units) {
  EXPECT_EQ(parse_duration("50ms"), Duration::millis(50));
  EXPECT_EQ(parse_duration("5"), Duration::millis(5));  // bare = ms, tc style
  EXPECT_EQ(parse_duration("200us"), Duration::micros(200));
  EXPECT_EQ(parse_duration("1.5s"), Duration::seconds(1.5));
  EXPECT_EQ(parse_duration("2.5ms"), Duration::micros(2500));
  EXPECT_THROW(parse_duration("10parsecs"), TcParseError);
  EXPECT_THROW(parse_duration("fast"), TcParseError);
}

TEST(ParseDuration, RejectsOutOfRangeValues) {
  for (const char* token : {"1e30us", "1e30ms", "1e30s", "-1e30s", "infms", "nanms"}) {
    try {
      parse_duration(token);
      ADD_FAILURE() << token << " parsed";
    } catch (const TcParseError& e) {
      EXPECT_NE(std::string{e.what()}.find(token), std::string::npos) << e.what();
    }
  }
  // The largest values that still fit keep parsing.
  EXPECT_EQ(parse_duration("9e18us"), Duration::micros(9'000'000'000'000'000'000));
  EXPECT_EQ(parse_duration("9e12s"), Duration::seconds(9e12));
}

TEST(ParsePercent, Forms) {
  EXPECT_DOUBLE_EQ(parse_percent("5%").value(), 0.05);
  EXPECT_DOUBLE_EQ(parse_percent("2.5%").value(), 0.025);
  EXPECT_DOUBLE_EQ(parse_percent("0.05").value(), 0.05);  // bare fraction
  EXPECT_DOUBLE_EQ(parse_percent("100%").value(), 1.0);
  EXPECT_THROW(parse_percent("150%"), TcParseError);
  EXPECT_THROW(parse_percent("-1%"), TcParseError);
  EXPECT_THROW(parse_percent("5pc"), TcParseError);
  EXPECT_THROW(parse_percent("nan%"), TcParseError);  // NaN is outside [0, 1] too
}

TEST(ParseRate, Units) {
  EXPECT_DOUBLE_EQ(parse_rate("1mbit").value(), 125000.0);
  EXPECT_DOUBLE_EQ(parse_rate("8kbit").value(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_rate("1gbit").value(), 125000000.0);
  EXPECT_DOUBLE_EQ(parse_rate("500bps").value(), 500.0);
  EXPECT_DOUBLE_EQ(parse_rate("2kbps").value(), 2000.0);
  EXPECT_THROW(parse_rate("1lightyear"), TcParseError);
}

// Every rate suffix tc accepts round-trips: the parsed value matches the
// corresponding units::BytesPerSecond constructor, and converting back to
// the suffix's own unit reproduces the input numeral.
TEST(ParseRate, RoundTripEverySuffix) {
  EXPECT_EQ(parse_rate("320bit"), units::BytesPerSecond::from_bit(320.0));
  EXPECT_DOUBLE_EQ(parse_rate("320bit").to_bit(), 320.0);

  EXPECT_EQ(parse_rate("7kbit"), units::BytesPerSecond::from_kbit(7.0));
  EXPECT_DOUBLE_EQ(parse_rate("7kbit").to_kbit(), 7.0);

  EXPECT_EQ(parse_rate("3mbit"), units::BytesPerSecond::from_mbit(3.0));
  EXPECT_DOUBLE_EQ(parse_rate("3mbit").to_bit(), 3e6);

  EXPECT_EQ(parse_rate("2gbit"), units::BytesPerSecond::from_gbit(2.0));
  EXPECT_DOUBLE_EQ(parse_rate("2gbit").to_bit(), 2e9);

  EXPECT_EQ(parse_rate("640bps"), units::BytesPerSecond::from_bps(640.0));
  EXPECT_DOUBLE_EQ(parse_rate("640bps").value(), 640.0);

  EXPECT_EQ(parse_rate("5kbps"), units::BytesPerSecond::from_kbps(5.0));
  EXPECT_DOUBLE_EQ(parse_rate("5kbps").value(), 5000.0);

  EXPECT_EQ(parse_rate("4mbps"), units::BytesPerSecond::from_mbps(4.0));
  EXPECT_DOUBLE_EQ(parse_rate("4mbps").value(), 4e6);

  // Bare numbers are bytes per second, tc style.
  EXPECT_EQ(parse_rate("1500"), units::BytesPerSecond{1500.0});
}

TEST(ParseNetem, DelayOnly) {
  const auto cfg = parse_netem("netem delay 50ms");
  EXPECT_EQ(cfg.delay, Duration::millis(50));
  EXPECT_TRUE(cfg.jitter.is_zero());
  EXPECT_FALSE(cfg.has_loss());
}

TEST(ParseNetem, DelayWithJitterAndCorrelation) {
  const auto cfg = parse_netem("delay 100ms 10ms 25%");
  EXPECT_EQ(cfg.delay, Duration::millis(100));
  EXPECT_EQ(cfg.jitter, Duration::millis(10));
  EXPECT_DOUBLE_EQ(cfg.delay_correlation.value(), 0.25);
}

TEST(ParseNetem, Distribution) {
  EXPECT_EQ(parse_netem("delay 10ms 2ms distribution normal").distribution,
            DelayDistribution::kNormal);
  EXPECT_EQ(parse_netem("delay 10ms 2ms distribution pareto").distribution,
            DelayDistribution::kPareto);
  EXPECT_EQ(parse_netem("delay 10ms 2ms distribution paretonormal").distribution,
            DelayDistribution::kParetoNormal);
  EXPECT_THROW(parse_netem("delay 10ms distribution cauchy"), TcParseError);
}

TEST(ParseNetem, Loss) {
  const auto cfg = parse_netem("loss 5%");
  EXPECT_DOUBLE_EQ(cfg.loss_probability.value(), 0.05);
  const auto corr = parse_netem("loss 5% 25%");
  EXPECT_DOUBLE_EQ(corr.loss_correlation.value(), 0.25);
}

TEST(ParseNetem, LossGemodel) {
  const auto cfg = parse_netem("loss gemodel 1% 10%");
  ASSERT_TRUE(cfg.gemodel.has_value());
  EXPECT_DOUBLE_EQ(cfg.gemodel->p.value(), 0.01);
  EXPECT_DOUBLE_EQ(cfg.gemodel->r.value(), 0.10);
}

TEST(ParseNetem, CombinedRule) {
  const auto cfg = parse_netem(
      "delay 50ms 10ms loss 2% duplicate 1% corrupt 0.5% reorder 25% gap 5 "
      "rate 10mbit limit 500");
  EXPECT_EQ(cfg.delay, Duration::millis(50));
  EXPECT_DOUBLE_EQ(cfg.loss_probability.value(), 0.02);
  EXPECT_DOUBLE_EQ(cfg.duplicate_probability.value(), 0.01);
  EXPECT_DOUBLE_EQ(cfg.corrupt_probability.value(), 0.005);
  EXPECT_DOUBLE_EQ(cfg.reorder_probability.value(), 0.25);
  EXPECT_EQ(cfg.reorder_gap, 5u);
  EXPECT_DOUBLE_EQ(cfg.rate.value(), 1250000.0);
  EXPECT_EQ(cfg.limit, 500u);
}

TEST(ParseNetem, UnknownKeywordThrows) {
  EXPECT_THROW(parse_netem("warp 9"), TcParseError);
  EXPECT_THROW(parse_netem("delay"), TcParseError);  // missing value
}

// A negative or non-finite time or rate is refused, naming the token, rather
// than silently becoming no delay, no jitter, no shaper or a zero transmit
// time.
TEST(ParseNetem, RejectsNegativeAndNonFiniteValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"rate -5mbit", "-5mbit"},
      {"rate nanmbit", "nanmbit"},
      {"rate infkbit", "infkbit"},
      {"delay -5ms", "-5ms"},
      {"delay 5ms -3ms", "-3ms"},
  };
  for (const auto& [spec, token] : cases) {
    try {
      parse_netem(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const TcParseError& e) {
      EXPECT_NE(std::string{e.what()}.find(std::string{"'"} + token + "'"), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  EXPECT_EQ(parse_netem("rate 0kbit").rate.value(), 0.0);  // zero still disables the shaper
  EXPECT_EQ(parse_netem("delay 0ms").delay, Duration{});
}

TEST(ParseNetem, GapAndLimitTakeWholeUnsignedIntegers) {
  EXPECT_EQ(parse_netem("delay 10ms reorder 25% gap 7").reorder_gap, 7u);
  EXPECT_EQ(parse_netem("delay 10ms reorder 25% gap 0").reorder_gap, 1u);  // 0 acts as 1
  EXPECT_EQ(parse_netem("limit 12").limit, 12u);
  // The whole token must be an integer in the field's range: no suffix,
  // fraction, exponent or sign.
  for (const char* spec : {"gap 5abc", "gap 2.7", "gap 1e12", "gap -1", "gap 4294967296",
                           "limit 12xyz", "limit 1e30", "limit 2.5", "limit -3",
                           "limit 99999999999999999999999"}) {
    EXPECT_THROW(parse_netem(spec), TcParseError) << spec;
  }
  try {
    parse_netem("delay 5ms limit 12xyz");
    ADD_FAILURE() << "limit 12xyz was accepted";
  } catch (const TcParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("limit"), std::string::npos) << what;
    EXPECT_NE(what.find("'12xyz'"), std::string::npos) << what;
  }
}

TEST(TrafficControl, DefaultDeviceIsPfifo) {
  TrafficControl tc;
  EXPECT_EQ(tc.root().kind(), "pfifo");
  EXPECT_FALSE(tc.has_netem());
}

TEST(TrafficControl, AddInstallsNetem) {
  TrafficControl tc;
  tc.add(parse_netem("delay 50ms"));
  EXPECT_TRUE(tc.has_netem());
  EXPECT_EQ(tc.root().kind(), "netem");
  ASSERT_TRUE(tc.netem_config().has_value());
  EXPECT_EQ(tc.netem_config()->delay, Duration::millis(50));
}

TEST(TrafficControl, DoubleAddFails) {
  TrafficControl tc;
  tc.add(parse_netem("delay 5ms"));
  EXPECT_THROW(tc.add(parse_netem("delay 10ms")), TcParseError);
}

TEST(TrafficControl, ChangeRequiresExistingRule) {
  TrafficControl tc;
  EXPECT_THROW(tc.change(parse_netem("delay 5ms")), TcParseError);
  tc.add(parse_netem("delay 5ms"));
  tc.change(parse_netem("loss 5%"));
  EXPECT_DOUBLE_EQ(tc.netem_config()->loss_probability.value(), 0.05);
}

TEST(TrafficControl, DelRevertsToPfifoAndDropsQueue) {
  TrafficControl tc;
  tc.add(parse_netem("delay 1000ms"));
  Packet p;
  p.id = 1;
  p.wire_size = 10;
  tc.root().enqueue(std::move(p), util::TimePoint{});
  EXPECT_EQ(tc.root().backlog(), 1u);
  tc.del();
  EXPECT_FALSE(tc.has_netem());
  EXPECT_EQ(tc.root().backlog(), 0u);  // kernel drops queued packets
  EXPECT_THROW(tc.del(), TcParseError);
}

// add installs a fresh qdisc, as the kernel does: what the default pfifo
// still held is dropped, and the rule's counters start at zero.
TEST(TrafficControl, AddDropsWhatPfifoHeld) {
  TrafficControl tc;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Packet p;
    p.id = id;
    p.wire_size = 10;
    tc.root().enqueue(std::move(p), util::TimePoint::from_micros(5));
  }
  ASSERT_EQ(tc.root().backlog(), 3u);
  ASSERT_EQ(tc.root().stats().enqueued, 3u);
  tc.add(parse_netem("delay 10ms"));
  EXPECT_EQ(tc.root().kind(), "netem");
  EXPECT_EQ(tc.root().backlog(), 0u);
  EXPECT_EQ(tc.root().backlog_bytes(), 0u);
  EXPECT_FALSE(tc.root().next_event_at().has_value());
  const QdiscStats& s = tc.root().stats();
  EXPECT_EQ(s.enqueued, 0u);
  EXPECT_EQ(s.dequeued, 0u);
  EXPECT_EQ(s.bytes_sent, 0u);
  EXPECT_TRUE(tc.root().drain(util::TimePoint::from_seconds(1.0)).empty());
}

TEST(TrafficControl, ExecuteFullCommandStrings) {
  TrafficControl tc;
  tc.execute("tc qdisc add dev lo root netem delay 50ms");
  EXPECT_TRUE(tc.has_netem());
  tc.execute("qdisc change dev lo root netem loss 5%");
  EXPECT_DOUBLE_EQ(tc.netem_config()->loss_probability.value(), 0.05);
  tc.execute("tc qdisc del dev lo root");
  EXPECT_FALSE(tc.has_netem());
}

TEST(TrafficControl, ExecuteRejectsMalformedCommands) {
  TrafficControl tc;
  EXPECT_THROW(tc.execute("qdisc add dev"), TcParseError);
  EXPECT_THROW(tc.execute("qdisc frobnicate dev lo root netem delay 1ms"), TcParseError);
  EXPECT_THROW(tc.execute("tc filter add dev lo"), TcParseError);
}

// The emulated host has one interface, `lo`; like tc on a host without the
// named device, a rule for any other device is refused and changes nothing.
TEST(TrafficControl, RejectsCommandForAnotherDevice) {
  TrafficControl tc;
  try {
    tc.execute("qdisc add dev eth0 root netem delay 5ms");
    FAIL() << "a rule for eth0 was accepted";
  } catch (const TcParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("eth0"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(tc.has_netem());
  EXPECT_EQ(tc.root().kind(), "pfifo");
}

}  // namespace
}  // namespace rdsim::net
