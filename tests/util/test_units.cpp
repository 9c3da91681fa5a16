// Known-answer tests for the dimensional-unit strong types. Each case pins a
// conversion factor the paper's analysis depends on (ms-vs-s, km/h-vs-m/s,
// kbit-vs-bytes/s); getting one of these wrong is exactly the bug class the
// units layer exists to make impossible.
#include <gtest/gtest.h>

#include "check/contracts.hpp"
#include "util/units.hpp"

namespace rdsim::units {
namespace {

TEST(Units, DistanceOverSpeedIsTime) {
  EXPECT_EQ(Meters{100.0} / MetersPerSecond{25.0}, Seconds{4.0});
  EXPECT_EQ(MetersPerSecond{25.0} * Seconds{4.0}, Meters{100.0});
  EXPECT_EQ(Seconds{4.0} * MetersPerSecond{25.0}, Meters{100.0});
  EXPECT_EQ(Meters{100.0} / Seconds{4.0}, MetersPerSecond{25.0});
}

TEST(Units, AccelerationRelations) {
  EXPECT_EQ(MetersPerSecond2{2.5} * Seconds{4.0}, MetersPerSecond{10.0});
  EXPECT_EQ(Seconds{4.0} * MetersPerSecond2{2.5}, MetersPerSecond{10.0});
  EXPECT_EQ(MetersPerSecond{10.0} / Seconds{4.0}, MetersPerSecond2{2.5});
  // Braking from 20 m/s at 8 m/s^2 takes 2.5 s.
  EXPECT_EQ(MetersPerSecond{20.0} / MetersPerSecond2{8.0}, Seconds{2.5});
}

TEST(Units, KmhRoundTrip) {
  EXPECT_EQ(MetersPerSecond::from_kmh(36.0), MetersPerSecond{10.0});
  EXPECT_DOUBLE_EQ(MetersPerSecond{10.0}.to_kmh(), 36.0);
  // The paper's 30 km/h urban speed limit.
  EXPECT_NEAR(MetersPerSecond::from_kmh(30.0).value(), 8.3333333333, 1e-9);
}

TEST(Units, MillisSecondsRoundTrip) {
  EXPECT_EQ(Millis{250.0}.to_seconds(), Seconds{0.25});
  EXPECT_EQ(Seconds{0.25}.to_millis(), Millis{250.0});
  EXPECT_EQ(Millis{1.0}.to_seconds().to_millis(), Millis{1.0});
  // Integration with the integer-microsecond virtual clock.
  EXPECT_EQ(Millis{12.0}.to_duration(), util::Duration::millis(12));
  EXPECT_EQ(Seconds{1.5}.to_duration(), util::Duration::millis(1500));
  EXPECT_EQ(Seconds::from_duration(util::Duration::millis(1500)), Seconds{1.5});
  EXPECT_EQ(Millis::from_duration(util::Duration::micros(2500)), Millis{2.5});
}

TEST(Units, BitRateConversions) {
  // tc's kbit is decimal: 8 kbit/s = 1000 bytes/s.
  EXPECT_EQ(BytesPerSecond::from_kbit(8.0), BytesPerSecond{1000.0});
  EXPECT_EQ(BytesPerSecond::from_bit(8.0), BytesPerSecond{1.0});
  EXPECT_EQ(BytesPerSecond::from_mbit(1.0), BytesPerSecond{125000.0});
  EXPECT_EQ(BytesPerSecond::from_gbit(1.0), BytesPerSecond{125000000.0});
  // ... while the bps family is bytes per second already.
  EXPECT_EQ(BytesPerSecond::from_bps(500.0), BytesPerSecond{500.0});
  EXPECT_EQ(BytesPerSecond::from_kbps(2.0), BytesPerSecond{2000.0});
  EXPECT_EQ(BytesPerSecond::from_mbps(3.0), BytesPerSecond{3000000.0});
  EXPECT_DOUBLE_EQ(BytesPerSecond{1000.0}.to_kbit(), 8.0);
  EXPECT_DOUBLE_EQ(BytesPerSecond{1.0}.to_bit(), 8.0);
}

TEST(Units, TransmitTime) {
  // A 1250-byte frame over 10 mbit/s serializes in 1 ms.
  EXPECT_EQ(transmit_time(1250.0, BytesPerSecond::from_mbit(10.0)),
            Seconds{0.001});
}

TEST(Units, SameUnitArithmetic) {
  Seconds t{1.0};
  t += Seconds{0.5};
  EXPECT_EQ(t, Seconds{1.5});
  t -= Seconds{1.0};
  EXPECT_EQ(t, Seconds{0.5});
  t *= 4.0;
  EXPECT_EQ(t, Seconds{2.0});
  t /= 2.0;
  EXPECT_EQ(t, Seconds{1.0});
  EXPECT_EQ(-t, Seconds{-1.0});
  EXPECT_EQ(Seconds{3.0} - Seconds{1.0}, Seconds{2.0});
  EXPECT_EQ(2.0 * Seconds{3.0}, Seconds{6.0});
  EXPECT_EQ(Seconds{3.0} * 2.0, Seconds{6.0});
  EXPECT_EQ(Seconds{3.0} / 2.0, Seconds{1.5});
  // Ratio of like quantities is dimensionless.
  EXPECT_DOUBLE_EQ(Meters{100.0} / Meters{25.0}, 4.0);
  EXPECT_LT(Seconds{1.0}, Seconds{2.0});
  EXPECT_GE(Meters{2.0}, Meters{2.0});
}

// ---- Probability range contract ---------------------------------------------

class ProbabilityContract : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = check::Registry::instance().policy();
    check::Registry::instance().set_policy(check::Policy::kThrow);
  }
  void TearDown() override { check::Registry::instance().set_policy(saved_); }

 private:
  check::Policy saved_{};
};

TEST_F(ProbabilityContract, InRangeAccepted) {
  EXPECT_DOUBLE_EQ(Probability{0.0}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Probability{1.0}.value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability{0.05}.value(), 0.05);
  EXPECT_DOUBLE_EQ(Probability{0.05}.percent(), 5.0);
  EXPECT_DOUBLE_EQ(Probability::from_percent(25.0).value(), 0.25);
  EXPECT_DOUBLE_EQ(Probability{0.25}.complement().value(), 0.75);
}

TEST_F(ProbabilityContract, OutOfRangeRejectedAtConstruction) {
  EXPECT_THROW(Probability{1.5}, check::ContractViolation);
  EXPECT_THROW(Probability{-0.01}, check::ContractViolation);
  EXPECT_THROW(Probability::from_percent(150.0), check::ContractViolation);
}

TEST_F(ProbabilityContract, NonThrowingPoliciesClampIntoRange) {
  check::Registry::instance().set_policy(check::Policy::kCount);
  EXPECT_DOUBLE_EQ(Probability{1.5}.value(), 1.0);
  EXPECT_DOUBLE_EQ(Probability{-0.5}.value(), 0.0);
}

}  // namespace
}  // namespace rdsim::units
