// Road network: a multi-lane carriageway along a curved reference line.
//
// The paper's operational domain is CARLA Town 5 — "a highway and multi-lane
// road network" (§V.B). We model the test route as one continuous multi-lane
// road whose reference line is built from straight and circular-arc segments,
// densely sampled so that arc-length parameterisation, lane projection and
// lane-marking queries are cheap and exact enough for control and metrics.
//
// Conventions: lane 0 is the rightmost driving lane; lane centre offsets grow
// to the left. Arc length `s` runs from 0 at the route start.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/vec2.hpp"

namespace rdsim::sim {

/// Lane-marking classes, as reported by CARLA's lane-invasion sensor.
enum class LaneMarking : std::uint8_t {
  kBroken,      ///< between same-direction lanes, legal to cross
  kSolid,       ///< road edge / opposing separation
};

/// Builds the reference line from primitive segments.
class PathBuilder {
 public:
  /// Start pose of the path.
  explicit PathBuilder(util::Pose start = {}, double sample_step_m = 1.0);

  PathBuilder& straight(double length_m);
  /// Circular arc; positive `angle_rad` curves left, radius > 0.
  PathBuilder& arc(double radius_m, double angle_rad);

  /// Sampled points and headings, one per ~sample_step.
  struct Sampled {
    std::vector<util::Vec2> points;
    std::vector<double> headings;
    std::vector<double> arclength;  ///< cumulative, same size
  };
  Sampled build() const;

 private:
  struct Segment {
    bool is_arc{false};
    double length{0.0};
    double radius{0.0};
    double angle{0.0};
  };
  util::Pose start_;
  double step_;
  std::vector<Segment> segments_;
};

/// Result of projecting a world point onto the road.
struct RoadProjection {
  double s{0.0};               ///< arc length along the reference line
  double lateral{0.0};         ///< signed offset, + to the left of lane 0 centre
  int lane{0};                 ///< nearest lane index (clamped to valid lanes)
  double lane_offset{0.0};     ///< lateral offset from that lane's centre
  double heading_error{0.0};   ///< vehicle heading minus road heading (set by caller)
};

class RoadNetwork {
 public:
  /// `reference` is the centreline of lane 0.
  RoadNetwork(PathBuilder::Sampled reference, int lane_count, double lane_width_m);

  int lane_count() const { return lane_count_; }
  double lane_width() const { return lane_width_; }
  double length() const { return arclength_.empty() ? 0.0 : arclength_.back(); }

  /// World pose of (s, lane) on the lane centre; s clamped to [0, length].
  util::Pose sample(double s, int lane) const;
  /// World pose at arbitrary lateral offset from the lane-0 centreline.
  util::Pose sample_offset(double s, double lateral) const;
  double heading_at(double s) const;
  /// Signed curvature at s (1/m, + left).
  double curvature_at(double s) const;

  /// Project a world point. Without a hint this scans every sample. With
  /// `hint_s` it descends from the sample at the hint to the nearest local
  /// minimum of distance, so the cost is bounded by how far the point lies
  /// from the hint; on a route that never bends back toward the point (such
  /// as the Town05 route, for points on or beside it) that minimum is the
  /// global one.
  RoadProjection project(util::Vec2 point, std::optional<double> hint_s = {}) const;

  /// Lateral offset of the centre of lane `lane` from the reference line.
  double lane_center_offset(int lane) const {
    return static_cast<double>(lane) * lane_width_;
  }

  /// The marking to the left/right of `lane`. Right edge of lane 0 and left
  /// edge of the last lane are solid; interior markings are broken.
  LaneMarking marking_left_of(int lane) const {
    return lane == lane_count_ - 1 ? LaneMarking::kSolid : LaneMarking::kBroken;
  }
  LaneMarking marking_right_of(int lane) const {
    return lane == 0 ? LaneMarking::kSolid : LaneMarking::kBroken;
  }

  /// Lateral bounds of the drivable surface relative to the reference line.
  double right_edge_offset() const { return -lane_width_ / 2.0; }
  double left_edge_offset() const {
    return lane_width_ * (static_cast<double>(lane_count_) - 0.5);
  }

 private:
  std::size_t nearest_index(util::Vec2 point, std::optional<double> hint_s) const;

  std::vector<util::Vec2> points_;
  std::vector<double> headings_;
  std::vector<double> arclength_;
  int lane_count_;
  double lane_width_;
};

/// The test route used in our experiments: a Town05-like course with long
/// straights, sweeping curves and two same-direction lanes, 2 841.9 m long
/// (710.5 m at scale 0.25).
/// `scale` shrinks every length (segment lengths, radii, lane width) —
/// scale 0.25 gives the kind of course a scaled-down model vehicle drives.
RoadNetwork make_town05_route(double scale = 1.0);

}  // namespace rdsim::sim
