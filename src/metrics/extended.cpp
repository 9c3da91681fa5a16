#include "metrics/extended.hpp"

#include "metrics/safety.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "sim/road.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace rdsim::metrics {

SdlpResult lane_position_deviation(const trace::RunTrace& run,
                                   const sim::RoadNetwork& road, units::Seconds start,
                                   units::Seconds stop) {
  util::RunningStats offsets;
  util::RunningStats abs_offsets;
  double hint = 0.0;
  for (const trace::EgoSample& e : run.ego) {
    if (e.t < start.value() || e.t >= stop.value()) continue;
    const auto proj = road.project({e.x, e.y}, hint);
    hint = proj.s;
    offsets.add(proj.lane_offset);
    abs_offsets.add(std::fabs(proj.lane_offset));
  }
  SdlpResult out;
  out.samples = offsets.count();
  if (out.samples > 1) {
    out.sdlp = units::Meters{offsets.stddev()};
    out.mean_abs_offset = units::Meters{abs_offsets.mean()};
  }
  return out;
}

namespace {

/// Second-order Taylor prediction errors of the steering signal.
std::vector<double> prediction_errors(const trace::RunTrace& run, units::Seconds start,
                                      units::Seconds stop) {
  std::vector<double> steer;
  for (const trace::EgoSample& e : run.ego) {
    if (e.t >= start.value() && e.t < stop.value()) steer.push_back(e.steer);
  }
  std::vector<double> errors;
  if (steer.size() < 10) return errors;
  errors.reserve(steer.size());
  for (std::size_t i = 3; i < steer.size(); ++i) {
    const double predicted =
        steer[i - 1] + (steer[i - 1] - steer[i - 2]) +
        0.5 * ((steer[i - 1] - steer[i - 2]) - (steer[i - 2] - steer[i - 3]));
    errors.push_back(steer[i] - predicted);
  }
  return errors;
}

}  // namespace

double steering_entropy_alpha(const trace::RunTrace& run, units::Seconds start,
                              units::Seconds stop) {
  const auto errors = prediction_errors(run, start, stop);
  std::vector<double> abs_errors;
  abs_errors.reserve(errors.size());
  for (double e : errors) abs_errors.push_back(std::fabs(e));
  return util::percentile(abs_errors, 90.0).value_or(0.0);
}

SteeringEntropyResult steering_entropy(const trace::RunTrace& run,
                                       double baseline_alpha, units::Seconds start,
                                       units::Seconds stop) {
  SteeringEntropyResult out;
  const auto errors = prediction_errors(run, start, stop);
  out.samples = errors.size();
  if (errors.size() < 50) return out;

  const double alpha = baseline_alpha > 0.0
                           ? baseline_alpha
                           : steering_entropy_alpha(run, start, stop);
  if (alpha <= 0.0) {
    // Perfectly predictable steering: zero entropy by definition.
    return out;
  }
  out.alpha = alpha;

  // Bin edges (in units of alpha): the classic 9-bin layout.
  const double edges[8] = {-5.0, -2.5, -1.0, -0.5, 0.5, 1.0, 2.5, 5.0};
  std::array<double, 9> bins{};
  for (double e : errors) {
    const double u = e / alpha;
    std::size_t b = 0;
    while (b < 8 && u >= edges[b]) ++b;
    bins[b] += 1.0;
  }
  double entropy = 0.0;
  const double n = static_cast<double>(errors.size());
  for (double count : bins) {
    if (count <= 0.0) continue;
    const double p = count / n;
    entropy -= p * std::log2(p);  // log base 2: entropy in bits
  }
  out.entropy = entropy;
  return out;
}

std::vector<BrakeReaction> brake_reactions(const trace::RunTrace& run,
                                           double onset_decel, double pedal_threshold,
                                           units::Seconds max_window) {
  // Detect lead braking onsets from the nearest other vehicle's speed series
  // (role "lead*" preferred), then look for the ego's pedal response.
  std::map<sim::ActorId, std::vector<const trace::OtherSample*>> by_actor;
  for (const trace::OtherSample& o : run.others) by_actor[o.actor].push_back(&o);

  std::vector<BrakeReaction> out;
  for (const auto& [actor, samples] : by_actor) {
    if (samples.size() < 5) continue;
    if (!samples.front()->role.empty() &&
        samples.front()->role.rfind("lead", 0) != 0 &&
        samples.front()->role.rfind("slow", 0) != 0) {
      continue;  // only followed vehicles generate braking-response episodes
    }
    for (std::size_t i = 1; i < samples.size(); ++i) {
      const double dt = samples[i]->t - samples[i - 1]->t;
      if (dt <= 0.0) continue;
      const double v1 = std::hypot(samples[i - 1]->vx, samples[i - 1]->vy);
      const double v2 = std::hypot(samples[i]->vx, samples[i]->vy);
      const double decel = (v1 - v2) / dt;
      if (decel < onset_decel || v1 < 2.0) continue;
      if (samples[i]->distance > 60.0) continue;  // too far to matter
      const double onset_t = samples[i]->t;
      // Skip onsets that belong to the same braking episode.
      if (!out.empty() && onset_t - out.back().lead_onset.value() < 3.0) continue;
      // Find the ego's brake response.
      for (const trace::EgoSample& e : run.ego) {
        if (e.t < onset_t) continue;
        if (e.t > onset_t + max_window.value()) break;
        if (e.brake >= pedal_threshold) {
          out.push_back({units::Seconds{onset_t}, units::Seconds{e.t},
                         units::Seconds{e.t - onset_t}});
          break;
        }
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const BrakeReaction& a, const BrakeReaction& b) {
    return a.lead_onset < b.lead_onset;
  });
  return out;
}

HeadwayDistribution headway_distribution(const trace::RunTrace& run,
                                         const TtcConfig& config) {
  const std::vector<double> headways = headway_series(run, config);
  HeadwayDistribution out;
  out.samples = headways.size();
  if (headways.empty()) return out;
  const auto fraction_below = [&](double limit) {
    const auto n = std::ranges::count_if(headways, [&](double h) { return h < limit; });
    return static_cast<double>(n) / static_cast<double>(headways.size());
  };
  out.below_1s = fraction_below(1.0);
  out.below_2s = fraction_below(2.0);
  out.median = units::Seconds{util::percentile(headways, 50.0).value_or(0.0)};
  return out;
}

}  // namespace rdsim::metrics
