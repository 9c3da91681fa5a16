#include "metrics/safety.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace rdsim::metrics {

std::map<std::string, std::size_t> CollisionAnalysis::by_fault_label() const {
  std::map<std::string, std::size_t> out;
  for (const AttributedCollision& c : collisions) {
    out[c.fault_active ? c.fault_label : std::string{"none"}]++;
  }
  return out;
}

CollisionAnalysis analyze_collisions(const trace::RunTrace& run) {
  CollisionAnalysis out;
  const auto windows = run.fault_windows();
  for (const trace::CollisionRecord& rec : run.collisions) {
    AttributedCollision ac;
    ac.record = rec;
    for (const auto& w : windows) {
      // A crash shortly after a fault window is still attributed to it: the
      // disturbance's effect (bad position, speed) outlives the rule.
      if (rec.t >= w.start && rec.t < w.stop + 2.0) {
        ac.fault_active = true;
        ac.fault_type = w.fault_type;
        ac.fault_value = w.value;
        ac.fault_label = w.label;
      }
    }
    out.collisions.push_back(std::move(ac));
  }
  out.total = out.collisions.size();
  return out;
}

std::vector<double> headway_series(const trace::RunTrace& run, const TtcConfig& config) {
  const OthersByTime others{run.others};
  std::vector<double> out;
  for (const trace::EgoSample& e : run.ego) {
    const double ego_speed = std::hypot(e.vx, e.vy);
    if (ego_speed < 0.5) continue;
    const double hx = e.vx / ego_speed;
    const double hy = e.vy / ego_speed;
    std::optional<double> nearest_gap;
    for (const OthersByTime::Entry& row : others.at(e.t)) {
      const std::optional<double> ahead = corridor_ahead(config, e, hx, hy, *row.other);
      if (!ahead) continue;
      const double gap = std::max(*ahead - config.length_correction.value(), 0.1);
      if (!nearest_gap || gap < *nearest_gap) nearest_gap = gap;
    }
    if (nearest_gap) out.push_back(*nearest_gap / ego_speed);
  }
  return out;
}

HeadwayStats analyze_headway(const trace::RunTrace& run, const TtcConfig& config) {
  util::RunningStats stats;
  std::size_t below = 0;
  for (const double headway : headway_series(run, config)) {
    stats.add(headway);
    if (headway < 2.0) ++below;
  }
  if (stats.empty()) return {};
  return {stats.count(), units::Seconds{stats.min()}, units::Seconds{stats.mean()},
          static_cast<double>(below) / static_cast<double>(stats.count())};
}

units::Seconds time_exposed_ttc(const std::vector<TtcSample>& series,
                                units::Seconds threshold,
                                units::Seconds sample_interval) {
  units::Seconds tet{};
  for (const TtcSample& s : series) {
    if (s.ttc > units::Seconds{} && s.ttc < threshold) tet += sample_interval;
  }
  return tet;
}

DrivingStats analyze_driving(const trace::RunTrace& run, units::Seconds start,
                             units::Seconds stop) {
  DrivingStats out;
  bool braking = false;
  const trace::EgoSample* prev = nullptr;
  for (const trace::EgoSample& e : run.ego) {
    if (e.t < start.value() || e.t >= stop.value()) continue;
    const double speed = std::hypot(e.vx, e.vy);
    out.speed.add(speed);
    if (prev != nullptr && speed > 0.1) {
      // Longitudinal acceleration projected on the direction of travel.
      const double along = (e.ax * e.vx + e.ay * e.vy) / speed;
      out.accel_long.add(along);
    }
    out.throttle.add(e.throttle);
    out.brake.add(e.brake);
    const bool now_braking = e.brake > 0.1;
    if (now_braking && !braking) ++out.brake_applications;
    braking = now_braking;
    prev = &e;
  }
  for (const trace::LaneInvasionRecord& l : run.lane_invasions) {
    if (l.t < start.value() || l.t >= stop.value()) continue;
    ++out.lane_invasions;
    if (l.marking == "solid") ++out.solid_line_invasions;
  }
  return out;
}

std::optional<units::Seconds> traversal_time(const trace::RunTrace& run,
                                             units::Meters dist_from,
                                             units::Meters dist_to) {
  if (run.ego.size() < 2 || dist_to <= dist_from) return std::nullopt;
  double travelled = 0.0;
  std::optional<double> t_enter;
  for (std::size_t i = 1; i < run.ego.size(); ++i) {
    const auto& a = run.ego[i - 1];
    const auto& b = run.ego[i];
    travelled += std::hypot(b.x - a.x, b.y - a.y);
    if (!t_enter && travelled >= dist_from.value()) t_enter = b.t;
    if (travelled >= dist_to.value()) {
      return units::Seconds{b.t - t_enter.value_or(run.ego.front().t)};
    }
  }
  return std::nullopt;
}

units::Seconds standstill_time(const trace::RunTrace& run,
                               units::MetersPerSecond threshold) {
  double total = 0.0;
  bool moved_off = false;
  for (std::size_t i = 1; i < run.ego.size(); ++i) {
    const auto& a = run.ego[i - 1];
    const auto& b = run.ego[i];
    const double speed = std::hypot(a.vx, a.vy);
    if (speed > threshold.value()) moved_off = true;
    // Interval [a, b] counts as stopped when it starts at/below threshold.
    if (moved_off && speed <= threshold.value()) total += b.t - a.t;
  }
  return units::Seconds{total};
}

}  // namespace rdsim::metrics
