#include <gtest/gtest.h>

#include <limits>

#include "mitigate/link_quality.hpp"

namespace rdsim::mitigate {
namespace {

using util::TimePoint;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// What a datagram transport reports: no RTT or retransmit telemetry.
const net::StreamStats kNoTelemetry{};

TEST(LinkQualityEstimator, ColdStartIsInvalidAndQuiet) {
  LinkQualityEstimator est{{}};
  // No streams, no frame displayed yet: the estimate refreshes but carries
  // nothing the governor could act on.
  EXPECT_TRUE(est.update(kNoTelemetry, kNoTelemetry, units::Seconds{kInf},
                         TimePoint::from_seconds(0.0)));
  EXPECT_FALSE(est.quality().rtt_valid);
  EXPECT_FALSE(est.quality().staleness_valid);
  EXPECT_DOUBLE_EQ(est.quality().loss, 0.0);
}

TEST(LinkQualityEstimator, SamplesAtTheConfiguredCadenceOnly) {
  EstimatorConfig cfg;
  cfg.update_period = units::Seconds{0.05};
  LinkQualityEstimator est{cfg};
  EXPECT_TRUE(est.update(kNoTelemetry, kNoTelemetry, units::Seconds{0.1},
                         TimePoint::from_seconds(0.0)));
  // Calls between refresh instants are no-ops.
  EXPECT_FALSE(est.update(kNoTelemetry, kNoTelemetry, units::Seconds{0.2},
                          TimePoint::from_seconds(0.01)));
  EXPECT_FALSE(est.update(kNoTelemetry, kNoTelemetry, units::Seconds{0.2},
                          TimePoint::from_seconds(0.049)));
  EXPECT_DOUBLE_EQ(est.quality().staleness.value(), 0.1);
  EXPECT_TRUE(est.update(kNoTelemetry, kNoTelemetry, units::Seconds{0.2},
                         TimePoint::from_seconds(0.05)));
  EXPECT_DOUBLE_EQ(est.quality().staleness.value(), 0.2);
}

TEST(LinkQualityEstimator, RttSeedsThenSmoothsTowardTheWorstStream) {
  EstimatorConfig cfg;
  cfg.rtt_alpha = 0.25;
  LinkQualityEstimator est{cfg};
  net::StreamStats video, command;
  video.srtt = units::Millis{20.0};
  command.srtt = units::Millis{60.0};

  est.update(video, command, units::Seconds{0.0}, TimePoint::from_seconds(0.0));
  ASSERT_TRUE(est.quality().rtt_valid);
  // First sample seeds the EWMA with the worst of the two streams.
  EXPECT_DOUBLE_EQ(est.quality().rtt.value(), 60.0);

  command.srtt = units::Millis{100.0};
  est.update(video, command, units::Seconds{0.0}, TimePoint::from_seconds(0.05));
  EXPECT_DOUBLE_EQ(est.quality().rtt.value(), 60.0 + 0.25 * (100.0 - 60.0));
}

TEST(LinkQualityEstimator, LossIsTheRetransmitFractionOfTheWindow) {
  EstimatorConfig cfg;
  cfg.loss_alpha = 1.0;  // no smoothing: expose the per-window sample
  LinkQualityEstimator est{cfg};
  net::StreamStats video;

  video.segments_sent = 90;
  video.retransmits_rto = 6;
  video.retransmits_fast = 4;
  est.update(video, kNoTelemetry, units::Seconds{0.0}, TimePoint::from_seconds(0.0));
  EXPECT_DOUBLE_EQ(est.quality().loss, 10.0 / 100.0);

  // Next window: 100 more firsts, no new retransmits.
  video.segments_sent = 190;
  est.update(video, kNoTelemetry, units::Seconds{0.0}, TimePoint::from_seconds(0.05));
  EXPECT_DOUBLE_EQ(est.quality().loss, 0.0);
}

TEST(LinkQualityEstimator, EmptyWindowKeepsThePreviousLossEstimate) {
  LinkQualityEstimator est{{}};
  net::StreamStats video;
  video.segments_sent = 50;
  video.retransmits_rto = 50;
  est.update(video, kNoTelemetry, units::Seconds{0.0}, TimePoint::from_seconds(0.0));
  const double seeded = est.quality().loss;
  EXPECT_GT(seeded, 0.0);
  // No traffic at all in the next window: the estimate must hold, not decay
  // toward a fabricated zero sample.
  est.update(video, kNoTelemetry, units::Seconds{0.0}, TimePoint::from_seconds(0.05));
  EXPECT_DOUBLE_EQ(est.quality().loss, seeded);
}

TEST(LinkQualityEstimator, DatagramOnlySessionsActOnStalenessAlone) {
  LinkQualityEstimator est{{}};
  est.update(kNoTelemetry, kNoTelemetry, units::Seconds{0.8},
             TimePoint::from_seconds(0.0));
  EXPECT_FALSE(est.quality().rtt_valid);
  ASSERT_TRUE(est.quality().staleness_valid);
  EXPECT_DOUBLE_EQ(est.quality().staleness.value(), 0.8);
  EXPECT_DOUBLE_EQ(est.quality().loss, 0.0);
}

}  // namespace
}  // namespace rdsim::mitigate
