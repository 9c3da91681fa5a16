// Differential oracle for the lead join behind TTC and headway.
//
// The `ref` namespace is a copy of the three joins as they stood when each
// built its own std::multimap of the others rows keyed by rounded
// microseconds: TtcAnalyzer::series, analyze_headway and
// headway_distribution. The library's versions must match it bit for bit —
// every TtcSample field, every HeadwayStats and HeadwayDistribution field —
// on every trace of the golden and mitigated corpora and on seeded random
// traces that stress the join: shuffled others rows, duplicate ego
// timestamps, empty others, a stopped ego, exact ties in `ahead` and others
// timestamps a fraction of a microsecond off the ego's.
//
// The copy stays as the reference; it is not meant to track later changes
// to the analyzers' definitions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/extended.hpp"
#include "metrics/safety.hpp"
#include "metrics/ttc.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rdsim::metrics {
namespace {

// ---- reference joins (multimap per call) ------------------------------------
namespace ref {

std::vector<TtcSample> ttc_series(const trace::RunTrace& run, const TtcConfig& config) {
  std::multimap<std::int64_t, const trace::OtherSample*> by_time;
  for (const trace::OtherSample& o : run.others) {
    by_time.emplace(static_cast<std::int64_t>(std::llround(o.t * 1e6)), &o);
  }
  std::vector<TtcSample> out;
  for (const trace::EgoSample& e : run.ego) {
    const auto key = static_cast<std::int64_t>(std::llround(e.t * 1e6));
    const auto [lo, hi] = by_time.equal_range(key);
    const double ego_speed = std::hypot(e.vx, e.vy);
    if (ego_speed < 1e-3) continue;
    const double hx = e.vx / ego_speed;
    const double hy = e.vy / ego_speed;
    std::optional<TtcSample> best;
    for (auto it = lo; it != hi; ++it) {
      const trace::OtherSample& o = *it->second;
      const double dx = o.x - e.x;
      const double dy = o.y - e.y;
      const double ahead = dx * hx + dy * hy;
      const double lateral = -dx * hy + dy * hx;
      if (ahead <= 0.0 || ahead > config.max_distance.value()) continue;
      if (std::fabs(lateral) > config.max_lateral.value()) continue;
      const double lead_speed_along = o.vx * hx + o.vy * hy;
      const double closing = ego_speed - lead_speed_along;
      if (closing < config.min_closing_speed.value()) continue;
      const double gap = std::max(ahead - config.length_correction.value(), 0.1);
      const double ttc = gap / closing;
      if (!best || ahead < best->distance.value()) {
        best = TtcSample{units::Seconds{e.t}, units::Seconds{ttc}, units::Meters{ahead},
                         o.actor};
      }
    }
    if (best) out.push_back(*best);
  }
  return out;
}

HeadwayStats analyze_headway(const trace::RunTrace& run, const TtcConfig& config) {
  std::multimap<std::int64_t, const trace::OtherSample*> by_time;
  for (const trace::OtherSample& o : run.others) {
    by_time.emplace(static_cast<std::int64_t>(std::llround(o.t * 1e6)), &o);
  }
  util::RunningStats stats;
  std::size_t below = 0;
  for (const trace::EgoSample& e : run.ego) {
    const double ego_speed = std::hypot(e.vx, e.vy);
    if (ego_speed < 0.5) continue;
    const double hx = e.vx / ego_speed;
    const double hy = e.vy / ego_speed;
    const auto key = static_cast<std::int64_t>(std::llround(e.t * 1e6));
    const auto [lo, hi] = by_time.equal_range(key);
    std::optional<double> nearest_gap;
    for (auto it = lo; it != hi; ++it) {
      const trace::OtherSample& o = *it->second;
      const double dx = o.x - e.x;
      const double dy = o.y - e.y;
      const double ahead = dx * hx + dy * hy;
      const double lateral = -dx * hy + dy * hx;
      if (ahead <= 0.0 || ahead > config.max_distance.value()) continue;
      if (std::fabs(lateral) > config.max_lateral.value()) continue;
      const double gap = std::max(ahead - config.length_correction.value(), 0.1);
      if (!nearest_gap || gap < *nearest_gap) nearest_gap = gap;
    }
    if (nearest_gap) {
      const double headway = *nearest_gap / ego_speed;
      stats.add(headway);
      if (headway < 2.0) ++below;
    }
  }
  HeadwayStats out;
  out.samples = stats.count();
  if (!stats.empty()) {
    out.min = units::Seconds{stats.min()};
    out.avg = units::Seconds{stats.mean()};
    out.below_2s_fraction = static_cast<double>(below) / static_cast<double>(out.samples);
  }
  return out;
}

HeadwayDistribution headway_distribution(const trace::RunTrace& run,
                                         const TtcConfig& config) {
  const HeadwayStats base = ref::analyze_headway(run, config);
  HeadwayDistribution out;
  out.samples = base.samples;
  if (!base.valid()) return out;
  std::multimap<std::int64_t, const trace::OtherSample*> by_time;
  for (const trace::OtherSample& o : run.others) {
    by_time.emplace(static_cast<std::int64_t>(std::llround(o.t * 1e6)), &o);
  }
  std::vector<double> headways;
  std::size_t below1 = 0;
  std::size_t below2 = 0;
  for (const trace::EgoSample& e : run.ego) {
    const double speed = std::hypot(e.vx, e.vy);
    if (speed < 0.5) continue;
    const double hx = e.vx / speed;
    const double hy = e.vy / speed;
    const auto key = static_cast<std::int64_t>(std::llround(e.t * 1e6));
    const auto [lo, hi] = by_time.equal_range(key);
    std::optional<double> nearest;
    for (auto it = lo; it != hi; ++it) {
      const trace::OtherSample& o = *it->second;
      const double dx = o.x - e.x;
      const double dy = o.y - e.y;
      const double ahead = dx * hx + dy * hy;
      const double lateral = -dx * hy + dy * hx;
      if (ahead <= 0.0 || ahead > config.max_distance.value()) continue;
      if (std::fabs(lateral) > config.max_lateral.value()) continue;
      const double gap = std::max(ahead - config.length_correction.value(), 0.1);
      if (!nearest || gap < *nearest) nearest = gap;
    }
    if (nearest) {
      const double headway = *nearest / speed;
      headways.push_back(headway);
      if (headway < 1.0) ++below1;
      if (headway < 2.0) ++below2;
    }
  }
  out.samples = headways.size();
  if (headways.empty()) return out;
  out.below_1s = static_cast<double>(below1) / static_cast<double>(headways.size());
  out.below_2s = static_cast<double>(below2) / static_cast<double>(headways.size());
  out.median = units::Seconds{util::percentile(headways, 50.0).value_or(0.0)};
  return out;
}

}  // namespace ref

// ---- bit-for-bit comparison ---------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Everything the three analyzers return for one trace under one config.
struct JoinOutputs {
  std::vector<TtcSample> ttc;
  HeadwayStats headway;
  HeadwayDistribution distribution;
};

JoinOutputs reference_outputs(const trace::RunTrace& run, const TtcConfig& config) {
  return {ref::ttc_series(run, config), ref::analyze_headway(run, config),
          ref::headway_distribution(run, config)};
}

JoinOutputs library_outputs(const trace::RunTrace& run, const TtcConfig& config) {
  return {TtcAnalyzer{config}.series(run), analyze_headway(run, config),
          headway_distribution(run, config)};
}

/// The first field in which `got` differs from `want`, or "" when every
/// field is bit-identical.
std::string first_difference(const JoinOutputs& want, const JoinOutputs& got) {
  std::ostringstream os;
  if (want.ttc.size() != got.ttc.size()) {
    os << "TTC series length " << got.ttc.size() << ", want " << want.ttc.size();
    return os.str();
  }
  for (std::size_t i = 0; i < want.ttc.size(); ++i) {
    const TtcSample& w = want.ttc[i];
    const TtcSample& g = got.ttc[i];
    if (bits(w.t.value()) != bits(g.t.value()) || bits(w.ttc.value()) != bits(g.ttc.value()) ||
        bits(w.distance.value()) != bits(g.distance.value()) || w.lead != g.lead) {
      os.precision(17);
      os << "TTC sample " << i << ": got (t " << g.t.value() << ", ttc " << g.ttc.value()
         << ", distance " << g.distance.value() << ", lead " << g.lead << "), want (t "
         << w.t.value() << ", ttc " << w.ttc.value() << ", distance "
         << w.distance.value() << ", lead " << w.lead << ")";
      return os.str();
    }
  }
  const HeadwayStats& wh = want.headway;
  const HeadwayStats& gh = got.headway;
  if (wh.samples != gh.samples || bits(wh.min.value()) != bits(gh.min.value()) ||
      bits(wh.avg.value()) != bits(gh.avg.value()) ||
      bits(wh.below_2s_fraction) != bits(gh.below_2s_fraction)) {
    return "HeadwayStats differ";
  }
  const HeadwayDistribution& wd = want.distribution;
  const HeadwayDistribution& gd = got.distribution;
  if (wd.samples != gd.samples || bits(wd.below_1s) != bits(gd.below_1s) ||
      bits(wd.below_2s) != bits(gd.below_2s) ||
      bits(wd.median.value()) != bits(gd.median.value())) {
    return "HeadwayDistribution differs";
  }
  return "";
}

/// The study's config and one that moves every corridor and TTC knob.
std::vector<TtcConfig> oracle_configs() {
  TtcConfig wide;
  wide.max_distance = units::Meters{40.0};
  wide.max_lateral = units::Meters{3.5};
  wide.min_closing_speed = units::MetersPerSecond{0.2};
  wide.violation_threshold = units::Seconds{4.0};
  wide.length_correction = units::Meters{0.0};
  return {TtcConfig{}, wide};
}

/// Totals that show a sweep exercised the join rather than skipping it.
struct Coverage {
  std::size_t ttc_samples{0};
  std::size_t headway_samples{0};
  std::size_t valid_distributions{0};

  void add(const JoinOutputs& o) {
    ttc_samples += o.ttc.size();
    headway_samples += o.headway.samples;
    if (o.distribution.valid()) ++valid_distributions;
  }
};

/// Compares library and reference on `run` under every oracle config.
void expect_matches_reference(const trace::RunTrace& run, const std::string& where,
                              Coverage& coverage) {
  for (const TtcConfig& config : oracle_configs()) {
    const JoinOutputs want = reference_outputs(run, config);
    coverage.add(want);
    EXPECT_EQ(first_difference(want, library_outputs(run, config)), "")
        << where << ", max_distance " << config.max_distance.value();
  }
}

// ---- seeded random traces ----------------------------------------------------

/// A random ego path at 20 Hz with up to six other vehicles scattered ahead,
/// behind and beside it, then the others rows shuffled. Roughly one trace in
/// six has no others and one in six an ego that never moves.
trace::RunTrace random_trace(std::uint64_t seed) {
  util::Random rng{seed, 17};
  trace::RunTrace run;
  const int rows = rng.uniform_int(0, 160);
  const int actors = rng.bernoulli(1.0 / 6.0) ? 0 : rng.uniform_int(1, 6);
  const bool stopped = rng.bernoulli(1.0 / 6.0);
  double heading = rng.uniform(-std::numbers::pi, std::numbers::pi);
  double t = rng.uniform(0.0, 5.0);
  double x = rng.uniform(-100.0, 100.0);
  double y = rng.uniform(-100.0, 100.0);
  for (int i = 0; i < rows; ++i) {
    if (i > 0 && !rng.bernoulli(0.1)) t += 0.05;  // else a duplicate ego timestamp
    heading += rng.normal(0.0, 0.05);
    double speed = 0.0;
    if (!stopped) {
      const double r = rng.uniform();
      speed = r < 0.1 ? 0.0 : (r < 0.2 ? rng.uniform(0.0, 0.6) : rng.uniform(0.5, 25.0));
    }
    const double hx = std::cos(heading);
    const double hy = std::sin(heading);
    trace::EgoSample e;
    e.t = t;
    e.x = x;
    e.y = y;
    e.vx = speed * hx;
    e.vy = speed * hy;
    run.ego.push_back(e);
    x += e.vx * 0.05;
    y += e.vy * 0.05;

    for (int a = 0; a < actors; ++a) {
      if (rng.bernoulli(0.1)) continue;  // not logged this tick
      trace::OtherSample o;
      o.actor = static_cast<sim::ActorId>(2 + a);
      o.role = "lead";
      // Sub-microsecond noise keeps the row on the ego's key; a stray row
      // lands on a timestamp no ego row has.
      o.t = t + (rng.bernoulli(0.05) ? rng.uniform(-2e-7, 2e-7) : 0.0);
      if (rng.bernoulli(0.03)) o.t += 0.025;
      const double along = rng.uniform(-20.0, 120.0);
      const double across = rng.bernoulli(0.2) ? rng.uniform(-4.0, 4.0)
                                               : rng.uniform(-1.0, 1.0);
      o.x = e.x + along * hx - across * hy;
      o.y = e.y + along * hy + across * hx;
      const double lead_speed = rng.uniform(0.0, 25.0);
      o.vx = lead_speed * hx;
      o.vy = lead_speed * hy;
      o.distance = std::hypot(o.x - e.x, o.y - e.y);
      run.others.push_back(o);
      if (rng.bernoulli(0.15)) {
        // A second vehicle at the same position: an exact tie in `ahead`.
        trace::OtherSample twin = o;
        twin.actor = static_cast<sim::ActorId>(100 + a);
        if (rng.bernoulli(0.5)) {
          twin.vx *= 0.5;
          twin.vy *= 0.5;
        }
        run.others.push_back(twin);
      }
    }
  }
  rng.shuffle(run.others);
  return run;
}

TEST(LeadJoinOracle, SeededRandomTracesMatchReference) {
  Coverage coverage;
  std::size_t empty_others = 0;
  std::size_t stopped_egos = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const trace::RunTrace run = random_trace(seed);
    if (run.others.empty()) ++empty_others;
    if (!run.ego.empty() &&
        std::all_of(run.ego.begin(), run.ego.end(),
                    [](const trace::EgoSample& e) { return e.vx == 0.0 && e.vy == 0.0; })) {
      ++stopped_egos;
    }
    expect_matches_reference(run, "random seed " + std::to_string(seed), coverage);
  }
  EXPECT_GT(empty_others, 0u);
  EXPECT_GT(stopped_egos, 0u);
  EXPECT_GT(coverage.ttc_samples, 1000u);
  EXPECT_GT(coverage.headway_samples, 1000u);
  EXPECT_GT(coverage.valid_distributions, 100u);
}

// ---- golden and mitigated corpora -------------------------------------------

/// The corpus seeds and run cap of tests/core/test_campaign_golden.cpp.
constexpr std::uint64_t kCorpusSeeds[] = {7, 11, 42};

core::ExperimentConfig corpus_config(std::uint64_t seed, bool mitigated) {
  core::ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.run_time_limit = units::Seconds{12.0};
  cfg.mitigation.enabled = mitigated;
  return cfg;
}

void expect_corpus_matches_reference(bool mitigated) {
  Coverage coverage;
  for (const std::uint64_t seed : kCorpusSeeds) {
    const core::CampaignResult campaign =
        core::ExperimentHarness{corpus_config(seed, mitigated)}.run_campaign();
    for (const core::SubjectResult& s : campaign.subjects) {
      const std::string where = "seed " + std::to_string(seed) + " " + s.profile.id;
      expect_matches_reference(s.golden.trace, where + " golden", coverage);
      expect_matches_reference(s.faulty.trace, where + " faulty", coverage);
    }
  }
  EXPECT_GT(coverage.ttc_samples, 0u);
  EXPECT_GT(coverage.headway_samples, 0u);
}

TEST(LeadJoinOracle, GoldenCorpusMatchesReference) {
  expect_corpus_matches_reference(false);
}

TEST(LeadJoinOracle, MitigatedCorpusMatchesReference) {
  expect_corpus_matches_reference(true);
}

// ---- outside input -------------------------------------------------------------

/// `csv` with its data rows in reverse order, header kept first.
std::string reverse_rows(const std::string& csv) {
  std::istringstream in{csv};
  std::string header;
  std::getline(in, header);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  std::string out = header + "\n";
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) out += *it + "\n";
  return out;
}

TEST(LeadJoin, CsvOthersRowOrderDoesNotChangeResults) {
  // RunTrace::from_csv reads outside input, whose others rows need not
  // arrive in recorder order: the join must not care.
  // The corpus trace with the most TTC samples.
  const core::CampaignResult campaign =
      core::ExperimentHarness{corpus_config(42, false)}.run_campaign();
  const trace::RunTrace* recorded = &campaign.subjects.front().faulty.trace;
  std::size_t most = 0;
  for (const core::SubjectResult& s : campaign.subjects) {
    for (const trace::RunTrace* run : {&s.golden.trace, &s.faulty.trace}) {
      const std::size_t n = TtcAnalyzer{}.series(*run).size();
      if (n > most) {
        most = n;
        recorded = run;
      }
    }
  }
  const std::string ego = recorded->ego_csv();
  const std::string others = recorded->others_csv();
  const std::string events = recorded->events_csv();
  const trace::RunTrace in_order = trace::RunTrace::from_csv(ego, others, events);
  const trace::RunTrace reversed =
      trace::RunTrace::from_csv(ego, reverse_rows(others), events);
  ASSERT_EQ(reversed.others.size(), in_order.others.size());
  ASSERT_GT(in_order.others.size(), 1u);
  ASSERT_NE(reversed.others.front().t, in_order.others.front().t);

  const JoinOutputs want = library_outputs(in_order, TtcConfig{});
  ASSERT_FALSE(want.ttc.empty());
  ASSERT_TRUE(want.headway.valid());
  EXPECT_EQ(first_difference(want, library_outputs(reversed, TtcConfig{})), "");
}

}  // namespace
}  // namespace rdsim::metrics
