#include "metrics/ttc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "check/contracts.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace rdsim::metrics {

namespace {
// Trace rows are emitted together per logging tick, so exact-time grouping
// is reliable; we key by rounded microseconds to be safe against FP noise.
std::int64_t time_key(double t) { return std::llround(t * 1e6); }
}  // namespace

std::optional<double> corridor_ahead(const TtcConfig& config, const trace::EgoSample& e,
                                     double hx, double hy, const trace::OtherSample& o) {
  const double dx = o.x - e.x;
  const double dy = o.y - e.y;
  const double ahead = dx * hx + dy * hy;     // longitudinal gap
  const double lateral = -dx * hy + dy * hx;  // lateral offset
  if (ahead <= 0.0 || ahead > config.max_distance.value()) return std::nullopt;
  if (std::fabs(lateral) > config.max_lateral.value()) return std::nullopt;
  return ahead;
}

OthersByTime::OthersByTime(const std::vector<trace::OtherSample>& others) {
  entries_.reserve(others.size());
  for (const trace::OtherSample& o : others) entries_.push_back({time_key(o.t), &o});
  std::ranges::stable_sort(entries_, {}, &Entry::key);
}

std::span<const OthersByTime::Entry> OthersByTime::at(double t) const {
  return std::ranges::equal_range(entries_, time_key(t), {}, &Entry::key);
}

std::vector<TtcSample> TtcAnalyzer::series(const trace::RunTrace& run) const {
  const OthersByTime others{run.others};
  std::vector<TtcSample> out;
  double prev_t = -std::numeric_limits<double>::infinity();
  for (const trace::EgoSample& e : run.ego) {
    RDSIM_REQUIRE(e.t >= prev_t, "TTC input: ego samples must be time-ordered");
    prev_t = e.t;
    const double ego_speed = std::hypot(e.vx, e.vy);
    if (ego_speed < 1e-3) continue;
    const double hx = e.vx / ego_speed;
    const double hy = e.vy / ego_speed;

    std::optional<TtcSample> best;
    for (const OthersByTime::Entry& row : others.at(e.t)) {
      const trace::OtherSample& o = *row.other;
      const std::optional<double> ahead = corridor_ahead(config_, e, hx, hy, o);
      if (!ahead) continue;
      const double closing = ego_speed - (o.vx * hx + o.vy * hy);
      if (closing < config_.min_closing_speed.value()) continue;
      const double gap = std::max(*ahead - config_.length_correction.value(), 0.1);
      const double ttc = gap / closing;
      RDSIM_ENSURE(std::isfinite(ttc) && ttc > 0.0,
                   "TTC samples must be finite and positive");
      if (!best || *ahead < best->distance.value()) {
        best = TtcSample{units::Seconds{e.t}, units::Seconds{ttc},
                         units::Meters{*ahead}, o.actor};
      }
    }
    if (best) out.push_back(*best);
  }
  return out;
}

TtcStats TtcAnalyzer::summarize(const std::vector<TtcSample>& series) const {
  return summarize_window(series,
                          units::Seconds{-std::numeric_limits<double>::infinity()},
                          units::Seconds{std::numeric_limits<double>::infinity()});
}

TtcStats TtcAnalyzer::summarize_window(const std::vector<TtcSample>& series,
                                       units::Seconds start, units::Seconds stop) const {
  util::RunningStats stats;
  std::size_t violations = 0;
  for (const TtcSample& s : series) {
    if (s.t < start || s.t >= stop) continue;
    stats.add(s.ttc.value());
    if (s.ttc > units::Seconds{} && s.ttc < config_.violation_threshold) ++violations;
  }
  TtcStats out;
  out.samples = stats.count();
  if (!stats.empty()) {
    out.min = units::Seconds{stats.min()};
    out.avg = units::Seconds{stats.mean()};
    out.max = units::Seconds{stats.max()};
  }
  out.violations = violations;
  return out;
}

}  // namespace rdsim::metrics
