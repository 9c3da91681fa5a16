#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/road.hpp"
#include "util/rng.hpp"

namespace rdsim::sim {
namespace {

TEST(PathBuilder, StraightLength) {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 1.0};
  b.straight(100.0);
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 100.0, 1e-9);
  EXPECT_NEAR(s.points.back().x, 100.0, 1e-9);
  EXPECT_NEAR(s.points.back().y, 0.0, 1e-9);
}

TEST(PathBuilder, ArcGeometry) {
  // Quarter circle of radius 100 turning left: ends at (100, 100) heading
  // +90 degrees, length pi*50.
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 0.5};
  b.arc(100.0, util::deg_to_rad(90.0));
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 100.0 * std::numbers::pi / 2.0, 0.1);
  EXPECT_NEAR(s.points.back().x, 100.0, 0.5);
  EXPECT_NEAR(s.points.back().y, 100.0, 0.5);
  EXPECT_NEAR(s.headings.back(), util::deg_to_rad(90.0), 1e-6);
}

TEST(PathBuilder, RightTurnCurvesNegative) {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 0.5};
  b.arc(50.0, util::deg_to_rad(-90.0));
  const auto s = b.build();
  EXPECT_NEAR(s.points.back().y, -50.0, 0.5);
}

TEST(PathBuilder, IgnoresDegenerateSegments) {
  PathBuilder b{util::Pose{}, 1.0};
  b.straight(-5.0).arc(0.0, 1.0).arc(10.0, 0.0).straight(10.0);
  const auto s = b.build();
  EXPECT_NEAR(s.arclength.back(), 10.0, 1e-9);
}

RoadNetwork simple_road() {
  PathBuilder b{util::Pose{{0, 0}, 0.0}, 1.0};
  b.straight(200.0).arc(100.0, util::deg_to_rad(45.0)).straight(200.0);
  return RoadNetwork{b.build(), 2, 3.5};
}

TEST(RoadNetwork, RejectsMalformedInput) {
  PathBuilder b{util::Pose{}, 1.0};
  b.straight(10.0);
  EXPECT_THROW(RoadNetwork(b.build(), 0, 3.5), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(b.build(), 2, 0.0), std::invalid_argument);
  EXPECT_THROW(RoadNetwork(PathBuilder::Sampled{}, 2, 3.5), std::invalid_argument);
}

TEST(RoadNetwork, SampleOnStraight) {
  const auto road = simple_road();
  const auto p = road.sample(50.0, 0);
  EXPECT_NEAR(p.position.x, 50.0, 1e-6);
  EXPECT_NEAR(p.position.y, 0.0, 1e-6);
  const auto lane1 = road.sample(50.0, 1);
  EXPECT_NEAR(lane1.position.y, 3.5, 1e-6);  // lane 1 centre is 3.5 m left
}

TEST(RoadNetwork, SampleClampsOutOfRange) {
  const auto road = simple_road();
  const auto before = road.sample(-10.0, 0);
  EXPECT_NEAR(before.position.x, 0.0, 1e-6);
  const auto at_end = road.sample(road.length(), 0);
  const auto after = road.sample(road.length() + 50.0, 0);
  EXPECT_NEAR((after.position - at_end.position).norm(), 0.0, 1e-6);
}

TEST(RoadNetwork, CurvatureSigns) {
  const auto road = simple_road();
  EXPECT_NEAR(road.curvature_at(100.0), 0.0, 1e-4);          // straight
  EXPECT_NEAR(road.curvature_at(230.0), 1.0 / 100.0, 2e-3);  // left arc
}

class ProjectionRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ProjectionRoundTrip, RecoversArcLengthAndLateral) {
  const auto road = simple_road();
  const auto [s, lateral] = GetParam();
  const util::Pose pose = road.sample_offset(s, lateral);
  const auto proj = road.project(pose.position);
  EXPECT_NEAR(proj.s, s, 0.6);
  EXPECT_NEAR(proj.lateral, lateral, 0.06);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProjectionRoundTrip,
    ::testing::Combine(::testing::Values(10.0, 100.0, 220.0, 300.0, 400.0),
                       ::testing::Values(-1.5, 0.0, 1.75, 3.5, 5.0)));

TEST(RoadNetwork, ProjectionLaneAssignment) {
  const auto road = simple_road();
  EXPECT_EQ(road.project(road.sample(100.0, 0).position).lane, 0);
  EXPECT_EQ(road.project(road.sample(100.0, 1).position).lane, 1);
  // Beyond the last lane the index clamps.
  const auto far_left = road.sample_offset(100.0, 9.0);
  EXPECT_EQ(road.project(far_left.position).lane, 1);
}

TEST(RoadNetwork, HintAcceleratedProjectionMatchesGlobal) {
  const auto road = simple_road();
  for (double s = 5.0; s < road.length(); s += 13.0) {
    const auto pose = road.sample_offset(s, 1.0);
    const auto global = road.project(pose.position);
    const auto hinted = road.project(pose.position, s - 3.0);
    EXPECT_NEAR(global.s, hinted.s, 0.6) << s;
    EXPECT_NEAR(global.lateral, hinted.lateral, 0.06) << s;
  }
}

TEST(RoadNetwork, StaleHintStillFindsTruePosition) {
  const auto road = simple_road();
  const auto pose = road.sample_offset(350.0, 0.0);
  const auto proj = road.project(pose.position, /*badly stale hint=*/5.0);
  EXPECT_NEAR(proj.s, 350.0, 1.0);
}

/// A point `lateral` to the left of the reference line at arc length `s`,
/// extrapolated along the end headings for `s` outside [0, length].
util::Vec2 point_along(const RoadNetwork& road, double s, double lateral) {
  const double clamped = util::clamp(s, 0.0, road.length());
  const util::Pose base = road.sample_offset(clamped, lateral);
  return base.position + base.forward() * (s - clamped);
}

// Differential oracle: a hinted projection must land on exactly the sample
// the unhinted global scan picks, for points along, beside and beyond the
// route and for fresh, slightly stale and badly stale hints.
class HintedProjectionOracle : public ::testing::TestWithParam<double> {};

TEST_P(HintedProjectionOracle, MatchesGlobalScanBitForBit) {
  const double scale = GetParam();
  const auto road = make_town05_route(scale);
  util::Random rng{0x6f7261636c65ULL};
  constexpr int kPoints = 20000;
  for (int i = 0; i < kPoints && !HasFailure(); ++i) {
    const double s = rng.uniform(-100.0, road.length() + 100.0);
    const double lateral = rng.uniform(-20.0, 25.0) * scale;
    const util::Vec2 point = point_along(road, s, lateral);
    const double staleness[] = {0.0, 4.0, 200.0};
    const double stale = staleness[i % 3] * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    const auto global = road.project(point);
    const auto hinted = road.project(point, s + stale);
    EXPECT_EQ(hinted.s, global.s) << "s=" << s << " lateral=" << lateral
                                  << " hint=" << s + stale;
    EXPECT_EQ(hinted.lateral, global.lateral) << "s=" << s << " lateral=" << lateral
                                              << " hint=" << s + stale;
  }
}

INSTANTIATE_TEST_SUITE_P(Town05, HintedProjectionOracle, ::testing::Values(1.0, 0.25));

TEST(RoadNetwork, Markings) {
  const auto road = simple_road();
  EXPECT_EQ(road.marking_right_of(0), LaneMarking::kSolid);  // road edge
  EXPECT_EQ(road.marking_left_of(0), LaneMarking::kBroken);  // between lanes
  EXPECT_EQ(road.marking_left_of(1), LaneMarking::kSolid);   // far edge
  EXPECT_DOUBLE_EQ(road.right_edge_offset(), -1.75);
  EXPECT_DOUBLE_EQ(road.left_edge_offset(), 5.25);
}

TEST(Town05Route, HasExpectedScale) {
  const auto road = make_town05_route();
  EXPECT_GT(road.length(), 2400.0);
  EXPECT_LT(road.length(), 3000.0);
  EXPECT_EQ(road.lane_count(), 2);
  EXPECT_DOUBLE_EQ(road.lane_width(), 3.5);
  bool has_curve = false;
  bool has_straight = false;
  for (double s = 10.0; s < road.length(); s += 20.0) {
    const double k = std::fabs(road.curvature_at(s));
    if (k > 1e-3) has_curve = true;
    if (k < 1e-5) has_straight = true;
  }
  EXPECT_TRUE(has_curve);
  EXPECT_TRUE(has_straight);
}

TEST(Town05Route, ScaledVariantShrinksEverything) {
  const auto full = make_town05_route();
  const auto quarter = make_town05_route(0.25);
  EXPECT_NEAR(quarter.length(), full.length() * 0.25, full.length() * 0.01);
  EXPECT_DOUBLE_EQ(quarter.lane_width(), full.lane_width() * 0.25);
  EXPECT_EQ(quarter.lane_count(), full.lane_count());
  // Curvature scales inversely with length.
  EXPECT_NEAR(quarter.curvature_at(550.0 * 0.25),
              4.0 * full.curvature_at(550.0), 6e-3);
  // Nonsense scale falls back to full size.
  EXPECT_NEAR(make_town05_route(-3.0).length(), full.length(), 1.0);
}

}  // namespace
}  // namespace rdsim::sim
