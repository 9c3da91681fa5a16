#include <gtest/gtest.h>

#include <ostream>

#include "sim/types.hpp"

namespace rdsim::sim {
namespace {

TEST(ActorKind, Names) {
  EXPECT_EQ(to_string(ActorKind::kVehicle), "vehicle");
  EXPECT_EQ(to_string(ActorKind::kStaticVehicle), "static_vehicle");
  EXPECT_EQ(to_string(ActorKind::kCyclist), "cyclist");
  EXPECT_EQ(to_string(ActorKind::kWalker), "walker");
}

TEST(VehicleControl, ClampedRanges) {
  VehicleControl c;
  c.throttle = 2.0;
  c.steer = -5.0;
  c.brake = 1.5;
  const auto cl = c.clamped();
  EXPECT_DOUBLE_EQ(cl.throttle, 1.0);
  EXPECT_DOUBLE_EQ(cl.steer, -1.0);
  EXPECT_DOUBLE_EQ(cl.brake, 1.0);
}

TEST(BoundingBox, CornersAxisAligned) {
  BoundingBox box{2.0, 1.0};
  util::Vec2 corners[4];
  box.corners(util::Pose{{10.0, 5.0}, 0.0}, corners);
  EXPECT_NEAR(corners[0].x, 12.0, 1e-12);  // front-left
  EXPECT_NEAR(corners[0].y, 6.0, 1e-12);
  EXPECT_NEAR(corners[2].x, 8.0, 1e-12);  // rear-right
  EXPECT_NEAR(corners[2].y, 4.0, 1e-12);
}

struct OverlapCase {
  double dx, dy, heading_b;
  bool expect_overlap;
};

// Names each case by its fields ("dx4.5_dy0_h0_overlap"); without it gtest
// prints the struct's raw bytes, padding included, and the ctest names that
// discovery derives from them change from build to build.
void PrintTo(const OverlapCase& c, std::ostream* os) {
  *os << "dx" << c.dx << "_dy" << c.dy << "_h" << c.heading_b
      << (c.expect_overlap ? "_overlap" : "_clear");
}

class BoxOverlapTest : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(BoxOverlapTest, Sat) {
  const auto& c = GetParam();
  const BoundingBox box{2.3, 0.95};  // default car
  const util::Pose a{{0.0, 0.0}, 0.0};
  const util::Pose b{{c.dx, c.dy}, c.heading_b};
  EXPECT_EQ(boxes_overlap(box, a, box, b), c.expect_overlap);
  EXPECT_EQ(boxes_overlap(box, b, box, a), c.expect_overlap);  // symmetric
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BoxOverlapTest,
    ::testing::Values(
        OverlapCase{0.0, 0.0, 0.0, true},     // coincident
        OverlapCase{4.5, 0.0, 0.0, true},     // nose-to-tail touching
        OverlapCase{4.7, 0.0, 0.0, false},    // just clear ahead
        OverlapCase{0.0, 1.8, 0.0, true},     // side-by-side overlapping
        OverlapCase{0.0, 2.0, 0.0, false},    // side-by-side clear
        OverlapCase{3.0, 1.5, 0.0, true},     // corner clip
        OverlapCase{10.0, 10.0, 0.0, false},  // far away
        OverlapCase{0.0, 2.6, 1.5708, true},  // T-bone within reach
        OverlapCase{0.0, 3.4, 1.5708, false},  // T-bone clear
        OverlapCase{3.2, 2.2, 0.7854, true},    // rotated corner reaches in
        OverlapCase{4.4, 3.2, 0.7854, false}    // rotated but clear
        ));

TEST(Weather, PerceptionNoiseFactor) {
  WeatherConfig clear;
  EXPECT_DOUBLE_EQ(clear.perception_noise_factor(), 1.0);
  WeatherConfig night;
  night.night = true;
  EXPECT_GT(night.perception_noise_factor(), 1.0);
  WeatherConfig foggy;
  foggy.fog_density = 1.0;
  EXPECT_GT(foggy.perception_noise_factor(), night.perception_noise_factor());
}

}  // namespace
}  // namespace rdsim::sim
