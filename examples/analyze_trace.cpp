// Offline analysis CLI: reads the §V.F CSV logs written by scenario_lab /
// full_campaign (or by an external rig using the same schema) and prints the
// full metric report — the pipeline the paper ran over its recorded data.
//
//   usage: analyze_trace <stem>            (expects <stem>_ego.csv,
//                                           <stem>_others.csv,
//                                           <stem>_events.csv)
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "metrics/extended.hpp"
#include "metrics/srr.hpp"
#include "metrics/safety.hpp"

using namespace rdsim;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: analyze_trace <stem>\n");
    return 1;
  }
  const std::string stem = argv[1];
  trace::RunTrace run;
  try {
    run = trace::RunTrace::from_csv(slurp(stem + "_ego.csv"), slurp(stem + "_others.csv"),
                                    slurp(stem + "_events.csv"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", stem.c_str(), e.what());
    return 1;
  }
  if (run.ego.empty()) {
    std::fprintf(stderr, "no ego samples in %s_ego.csv\n", stem.c_str());
    return 1;
  }

  std::printf("trace %s: %.1f s, %zu ego samples, %zu other-actor samples\n",
              stem.c_str(), run.duration_s(), run.ego.size(), run.others.size());

  metrics::TtcAnalyzer ttc;
  const auto series = ttc.series(run);
  const auto ts = ttc.summarize(series);
  if (ts.valid()) {
    std::printf("TTC:     min %.2f avg %.2f max %.2f s | %zu samples, %zu < 6 s "
                "(TET %.1f s)\n",
                ts.min.value(), ts.avg.value(), ts.max.value(), ts.samples, ts.violations,
                metrics::time_exposed_ttc(series, units::Seconds{6.0}, units::Seconds{0.05})
                    .value());
  } else {
    std::printf("TTC:     no lead-following samples\n");
  }

  metrics::SrrAnalyzer srr;
  const auto sr = srr.analyze(run);
  std::printf("SRR:     %.1f reversals/min (%zu reversals)\n", sr.rate_per_min,
              sr.reversals);

  const auto entropy = metrics::steering_entropy(run);
  if (entropy.valid()) {
    std::printf("entropy: %.2f bit (alpha %.4f)\n", entropy.entropy, entropy.alpha);
  }

  const auto driving = metrics::analyze_driving(run);
  std::printf("speed:   mean %.1f max %.1f m/s | brake applications %zu\n",
              driving.speed.mean(), driving.speed.max(), driving.brake_applications);
  std::printf("lane:    %zu invasions (%zu solid)\n", driving.lane_invasions,
              driving.solid_line_invasions);

  const auto headway = metrics::headway_distribution(run);
  if (headway.valid()) {
    std::printf("headway: median %.2f s | below 2 s %.0f%% | below 1 s %.0f%%\n",
                headway.median.value(), 100.0 * headway.below_2s, 100.0 * headway.below_1s);
  }

  const auto reactions = metrics::brake_reactions(run);
  if (!reactions.empty()) {
    double sum = 0.0;
    for (const auto& r : reactions) sum += r.reaction.value();
    std::printf("brake reaction: %zu episodes, mean %.2f s\n", reactions.size(),
                sum / static_cast<double>(reactions.size()));
  }

  const auto collisions = metrics::analyze_collisions(run);
  std::printf("collisions: %zu\n", collisions.total);
  for (const auto& c : collisions.collisions) {
    std::printf("  t=%.1f s vs %s%s%s\n", c.record.t, c.record.other_kind.c_str(),
                c.fault_active ? " during fault " : "",
                c.fault_active ? c.fault_label.c_str() : "");
  }
  const auto windows = run.fault_windows();
  if (!windows.empty()) {
    std::printf("fault windows:\n");
    for (const auto& w : windows) {
      std::printf("  %-6s %s  %.1f - %.1f s\n", w.label.c_str(), w.fault_type.c_str(),
                  w.start, w.stop);
    }
  }
  return 0;
}
