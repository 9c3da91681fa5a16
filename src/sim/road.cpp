#include "sim/road.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/vec2.hpp"

namespace rdsim::sim {

PathBuilder::PathBuilder(util::Pose start, double sample_step_m)
    : start_{start}, step_{sample_step_m > 0.0 ? sample_step_m : 1.0} {}

PathBuilder& PathBuilder::straight(double length_m) {
  if (length_m > 0.0) segments_.push_back({false, length_m, 0.0, 0.0});
  return *this;
}

PathBuilder& PathBuilder::arc(double radius_m, double angle_rad) {
  if (radius_m > 0.0 && angle_rad != 0.0) {
    segments_.push_back({true, radius_m * std::fabs(angle_rad), radius_m, angle_rad});
  }
  return *this;
}

PathBuilder::Sampled PathBuilder::build() const {
  auto steps_of = [this](const Segment& seg) {
    return std::max(1, static_cast<int>(std::ceil(seg.length / step_)));
  };
  std::size_t samples = 1;
  for (const Segment& seg : segments_) samples += static_cast<std::size_t>(steps_of(seg));
  Sampled out;
  out.points.reserve(samples);
  out.headings.reserve(samples);
  out.arclength.reserve(samples);
  util::Pose pose = start_;
  double s = 0.0;
  out.points.push_back(pose.position);
  out.headings.push_back(pose.heading);
  out.arclength.push_back(0.0);

  for (const Segment& seg : segments_) {
    const int steps = steps_of(seg);
    const double ds = seg.length / steps;
    for (int i = 0; i < steps; ++i) {
      if (seg.is_arc) {
        const double dtheta = (seg.angle > 0 ? 1.0 : -1.0) * ds / seg.radius;
        // Advance along the chord of the small arc step.
        const double mid_heading = pose.heading + dtheta / 2.0;
        pose.position += util::Vec2::from_heading(mid_heading) * ds;
        pose.heading = util::wrap_angle(pose.heading + dtheta);
      } else {
        pose.position += pose.forward() * ds;
      }
      s += ds;
      out.points.push_back(pose.position);
      out.headings.push_back(pose.heading);
      out.arclength.push_back(s);
    }
  }
  return out;
}

RoadNetwork::RoadNetwork(PathBuilder::Sampled reference, int lane_count,
                         double lane_width_m)
    : points_{std::move(reference.points)},
      headings_{std::move(reference.headings)},
      arclength_{std::move(reference.arclength)},
      lane_count_{lane_count},
      lane_width_{lane_width_m} {
  if (points_.size() < 2 || points_.size() != headings_.size() ||
      points_.size() != arclength_.size()) {
    throw std::invalid_argument{"RoadNetwork: malformed reference line"};
  }
  if (lane_count_ < 1 || lane_width_ <= 0.0) {
    throw std::invalid_argument{"RoadNetwork: invalid lane geometry"};
  }
}

namespace {

std::size_t index_for_s(const std::vector<double>& arclength, double s) {
  const auto it = std::lower_bound(arclength.begin(), arclength.end(), s);
  if (it == arclength.begin()) return 0;
  if (it == arclength.end()) return arclength.size() - 1;
  return static_cast<std::size_t>(it - arclength.begin());
}

}  // namespace

util::Pose RoadNetwork::sample(double s, int lane) const {
  return sample_offset(s, lane_center_offset(std::clamp(lane, 0, lane_count_ - 1)));
}

util::Pose RoadNetwork::sample_offset(double s, double lateral) const {
  s = util::clamp(s, 0.0, length());
  const std::size_t hi = index_for_s(arclength_, s);
  const std::size_t lo = hi > 0 ? hi - 1 : 0;
  const double span = arclength_[hi] - arclength_[lo];
  const double t = span > 0.0 ? (s - arclength_[lo]) / span : 0.0;
  const util::Vec2 base = util::lerp(points_[lo], points_[hi], t);
  double h0 = headings_[lo];
  double h1 = headings_[hi];
  // Interpolate headings through the short way around.
  const double dh = util::wrap_angle(h1 - h0);
  const double heading = util::wrap_angle(h0 + dh * t);
  const util::Vec2 left = util::Vec2::from_heading(heading).perp();
  return {base + left * lateral, heading};
}

double RoadNetwork::heading_at(double s) const { return sample_offset(s, 0.0).heading; }

double RoadNetwork::curvature_at(double s) const {
  const double ds = 2.0;
  const double h1 = heading_at(util::clamp(s - ds, 0.0, length()));
  const double h2 = heading_at(util::clamp(s + ds, 0.0, length()));
  return util::wrap_angle(h2 - h1) / (2.0 * ds);
}

std::size_t RoadNetwork::nearest_index(util::Vec2 point,
                                       std::optional<double> hint_s) const {
  if (hint_s) {
    // Descend from the hint: step toward strictly smaller distance, forward
    // and then backward, and stop at the first local minimum. Actors move a
    // few centimetres per step, so this is one or two comparisons; past a
    // route end it stops on the end point, which is the true nearest one.
    std::size_t i = index_for_s(arclength_, *hint_s);
    double best_d = (points_[i] - point).norm_sq();
    while (i + 1 < points_.size()) {
      const double d = (points_[i + 1] - point).norm_sq();
      if (!(d < best_d)) break;
      best_d = d;
      ++i;
    }
    while (i > 0) {
      const double d = (points_[i - 1] - point).norm_sq();
      if (!(d < best_d)) break;
      best_d = d;
      --i;
    }
    return i;
  }
  std::size_t best = 0;
  double best_d = (points_[0] - point).norm_sq();
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double d = (points_[i] - point).norm_sq();
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

RoadProjection RoadNetwork::project(util::Vec2 point, std::optional<double> hint_s) const {
  const std::size_t i = nearest_index(point, hint_s);
  const util::Vec2 base = points_[i];
  const double heading = headings_[i];
  const util::Vec2 tangent = util::Vec2::from_heading(heading);
  const util::Vec2 d = point - base;

  RoadProjection proj;
  proj.s = arclength_[i] + d.dot(tangent);
  proj.lateral = d.dot(tangent.perp());
  const double lane_f = proj.lateral / lane_width_;
  proj.lane = std::clamp(static_cast<int>(std::lround(lane_f)), 0, lane_count_ - 1);
  proj.lane_offset = proj.lateral - lane_center_offset(proj.lane);
  return proj;
}

RoadNetwork make_town05_route(double scale) {
  // Two same-direction lanes, 3.5 m wide, 2 841.9 m long (710.5 m at scale
  // 0.25): straights for the car-following sections, sweeping curves between
  // them, matching the highway/multi-lane character of CARLA Town 5.
  if (scale <= 0.0) scale = 1.0;
  PathBuilder builder{util::Pose{{0.0, 0.0}, 0.0}, std::min(1.0, scale)};
  builder.straight(500.0 * scale)
      .arc(250.0 * scale, util::deg_to_rad(35.0))
      .straight(450.0 * scale)
      .arc(220.0 * scale, util::deg_to_rad(-40.0))
      .straight(500.0 * scale)
      .arc(300.0 * scale, util::deg_to_rad(25.0))
      .straight(400.0 * scale)
      .arc(200.0 * scale, util::deg_to_rad(-30.0))
      .straight(450.0 * scale);
  return RoadNetwork{builder.build(), /*lane_count=*/2,
                     /*lane_width_m=*/3.5 * scale};
}

}  // namespace rdsim::sim
