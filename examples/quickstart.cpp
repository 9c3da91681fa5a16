// Quickstart: one remote-driving run over an emulated network.
//
// Runs the vehicle-following scenario twice with the same synthetic driver:
// once with a clean network and once with a `netem loss 5%` rule active
// while following the lead vehicle, then prints the safety metrics the
// paper uses (TTC, SRR, collisions) side by side.
#include <cstdio>

#include "core/experiment.hpp"
#include "core/report.hpp"

using namespace rdsim;

namespace {

core::RunResult drive(bool faulty) {
  core::RunConfig rc;
  rc.run_id = faulty ? "demo-FI" : "demo-NFI";
  rc.subject_id = "demo";
  rc.fault_injected = faulty;
  if (faulty) {
    rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.05}});
  }
  rc.driver = core::make_roster().at(4).driver;  // T5's parameters
  rc.seed = 42;
  core::TeleopSession session{std::move(rc), sim::make_following_scenario()};
  return session.run();
}

void summarize(const char* name, const core::RunResult& result) {
  metrics::TtcAnalyzer ttc;
  metrics::SrrAnalyzer srr;
  const auto series = ttc.series(result.trace);
  const auto ttc_stats = ttc.summarize(series);
  const auto srr_stats = srr.analyze(result.trace);

  std::printf("%-10s duration %6.1f s  completed %s\n", name, result.duration.value(),
              result.completed ? "yes" : "NO");
  std::printf("  video: %llu frames encoded, %llu displayed, %llu rto-retx, srtt %.1f ms\n",
              (unsigned long long)result.frames_encoded,
              (unsigned long long)result.frames_displayed,
              (unsigned long long)result.video_stats.retransmits_rto,
              result.video_stats.srtt.value());
  if (ttc_stats.valid()) {
    std::printf("  TTC  : min %.2f  avg %.2f  max %.2f  (violations<6s: %zu of %zu)\n",
                ttc_stats.min.value(), ttc_stats.avg.value(), ttc_stats.max.value(),
                ttc_stats.violations, ttc_stats.samples);
  } else {
    std::printf("  TTC  : no samples\n");
  }
  std::printf("  SRR  : %.1f reversals/min (%zu reversals over %.0f s)\n",
              srr_stats.rate_per_min, srr_stats.reversals, srr_stats.duration.value());
  std::printf("  QoE  : %.1f / 5 (frozen %.1f%% of the time)\n", result.qoe.score(),
              100.0 * result.qoe.frozen_fraction());
  std::printf("  collisions: %zu, lane invasions: %zu\n", result.trace.collisions.size(),
              result.trace.lane_invasions.size());
}

}  // namespace

int main() {
  std::printf("rdsim quickstart: golden run vs 5%% packet loss\n\n");
  const auto golden = drive(false);
  const auto faulty = drive(true);
  summarize("golden", golden);
  std::printf("\n");
  summarize("5% loss", faulty);
  return 0;
}
