#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <vector>

#include "net/fault_injector.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

TEST(FaultSpec, LabelsMatchPaperTables) {
  EXPECT_EQ((FaultSpec{FaultKind::kDelay, 5.0}).label(), "5ms");
  EXPECT_EQ((FaultSpec{FaultKind::kDelay, 25.0}).label(), "25ms");
  EXPECT_EQ((FaultSpec{FaultKind::kPacketLoss, 0.02}).label(), "2%");
  EXPECT_EQ((FaultSpec{FaultKind::kPacketLoss, 0.05}).label(), "5%");
}

TEST(FaultSpec, ConfigRoundTrip) {
  const auto cfg = FaultSpec{FaultKind::kDelay, 25.0}.to_config();
  EXPECT_EQ(cfg.delay, Duration::millis(25));
  const auto loss = FaultSpec{FaultKind::kPacketLoss, 0.02}.to_config();
  EXPECT_DOUBLE_EQ(loss.loss_probability.value(), 0.02);
}

TEST(FaultSpec, ConfigKeepsTheExactValue) {
  // No round trip through a 6-significant-digit string: the delay equals
  // parse_netem's for the full decimal, and the loss is the value itself.
  const auto delay = FaultSpec{FaultKind::kDelay, 1234567.89}.to_config();
  EXPECT_EQ(delay.delay, parse_netem("delay 1234567.89ms").delay);
  const auto loss = FaultSpec{FaultKind::kPacketLoss, 0.123456789}.to_config();
  EXPECT_EQ(loss.loss_probability.value(), 0.123456789);
  // The paper's faults give the configs their tc strings give.
  const std::vector<FaultSpec> model = paper_fault_model();
  const char* const tc_args[] = {"delay 5ms", "delay 25ms", "delay 50ms", "loss 2%", "loss 5%"};
  ASSERT_EQ(model.size(), std::size(tc_args));
  for (std::size_t i = 0; i < model.size(); ++i) {
    const NetemConfig direct = model[i].to_config();
    const NetemConfig parsed = parse_netem(tc_args[i]);
    EXPECT_EQ(direct.delay, parsed.delay) << tc_args[i];
    EXPECT_EQ(direct.loss_probability.value(), parsed.loss_probability.value()) << tc_args[i];
  }
}

TEST(FaultSpec, ConfigRejectsWhatTcRejects) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double p : {-0.01, 1.01, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((FaultSpec{FaultKind::kPacketLoss, p}.to_config()), TcParseError) << p;
  }
  for (const double ms : {kInf, -kInf, std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    EXPECT_THROW((FaultSpec{FaultKind::kDelay, ms}.to_config()), TcParseError) << ms;
  }
  EXPECT_EQ((FaultSpec{FaultKind::kPacketLoss, 1.0}.to_config()).loss_probability.value(),
            1.0);
  EXPECT_THROW(parse_netem("loss nan%"), TcParseError);
  EXPECT_THROW(parse_netem("delay infms"), TcParseError);
}

TEST(PaperFaultModel, HasTheFivePaperFaults) {
  const auto model = paper_fault_model();
  ASSERT_EQ(model.size(), 5u);
  EXPECT_EQ(model[0].label(), "5ms");
  EXPECT_EQ(model[1].label(), "25ms");
  EXPECT_EQ(model[2].label(), "50ms");
  EXPECT_EQ(model[3].label(), "2%");
  EXPECT_EQ(model[4].label(), "5%");
}

TEST(FaultInjector, InjectAndRemoveLogsEvents) {
  TrafficControl tc;
  FaultInjector inj{tc};
  EXPECT_FALSE(inj.active());
  inj.inject({FaultKind::kDelay, 50.0}, TimePoint::from_seconds(1.0));
  EXPECT_TRUE(inj.active());
  EXPECT_TRUE(tc.has_netem());
  inj.remove(TimePoint::from_seconds(2.0));
  EXPECT_FALSE(inj.active());
  EXPECT_FALSE(tc.has_netem());

  ASSERT_EQ(inj.log().size(), 2u);
  EXPECT_TRUE(inj.log()[0].added);
  EXPECT_DOUBLE_EQ(inj.log()[0].timestamp.to_seconds(), 1.0);
  EXPECT_FALSE(inj.log()[1].added);
  EXPECT_EQ(inj.injections(), 1u);
}

TEST(FaultInjector, InjectReplacesActiveFault) {
  TrafficControl tc;
  FaultInjector inj{tc};
  inj.inject({FaultKind::kDelay, 5.0}, TimePoint{});
  inj.inject({FaultKind::kPacketLoss, 0.05}, TimePoint::from_seconds(1.0));
  EXPECT_EQ(inj.active_fault()->kind, FaultKind::kPacketLoss);
  EXPECT_DOUBLE_EQ(tc.netem_config()->loss_probability.value(), 0.05);
  EXPECT_EQ(inj.injections(), 2u);
  // Log shows: add(5ms), delete(5ms), add(5%).
  ASSERT_EQ(inj.log().size(), 3u);
  EXPECT_FALSE(inj.log()[1].added);
  EXPECT_EQ(inj.log()[1].fault.kind, FaultKind::kDelay);
}

TEST(FaultInjector, RemoveWithoutActiveIsNoOp) {
  TrafficControl tc;
  FaultInjector inj{tc};
  inj.remove(TimePoint{});
  EXPECT_TRUE(inj.log().empty());
}

}  // namespace
}  // namespace rdsim::net
