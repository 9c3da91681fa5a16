// Scenario lab: drive one scenario with one subject under one fault and
// write the paper's §V.F CSV logs next to a metric summary.
//
//   usage: scenario_lab [scenario] [subject 1-12] [fault] [value]
//     scenario: route | following | slalom | overtake   (default: slalom)
//     fault:    none | delay | loss                     (default: none)
//   e.g.:  scenario_lab slalom 5 loss 0.05
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/teleop.hpp"
#include "metrics/safety.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"

using namespace rdsim;

int main(int argc, char** argv) {
  const std::string scenario_name = argc > 1 ? argv[1] : "slalom";
  const int subject_idx = argc > 2 ? std::atoi(argv[2]) : 5;
  const std::string fault_kind = argc > 3 ? argv[3] : "none";
  const double fault_value = argc > 4 ? std::atof(argv[4]) : 0.0;

  sim::Scenario scenario;
  if (scenario_name == "route") {
    scenario = sim::make_test_route_scenario();
  } else if (scenario_name == "following") {
    scenario = sim::make_following_scenario();
  } else if (scenario_name == "overtake") {
    scenario = sim::make_overtake_scenario();
  } else {
    scenario = sim::make_slalom_scenario();
  }

  const auto roster = core::make_roster();
  if (subject_idx < 1 || subject_idx > 12) {
    std::fprintf(stderr, "subject must be 1..12\n");
    return 1;
  }
  const auto& profile = roster[static_cast<std::size_t>(subject_idx - 1)];

  core::RunConfig rc;
  rc.run_id = profile.id + "-" + scenario.name;
  rc.subject_id = profile.id;
  rc.driver = profile.driver;
  rc.seed = profile.seed;
  if (fault_kind == "delay") {
    rc.fault_injected = true;
    for (const auto& poi : scenario.pois) {
      rc.plan.push_back({poi.name, {net::FaultKind::kDelay, fault_value}});
    }
  } else if (fault_kind == "loss") {
    rc.fault_injected = true;
    for (const auto& poi : scenario.pois) {
      rc.plan.push_back({poi.name, {net::FaultKind::kPacketLoss, fault_value}});
    }
  }

  std::printf("running %s with %s (%s %s)...\n", scenario.name.c_str(),
              profile.id.c_str(), fault_kind.c_str(),
              argc > 4 ? argv[4] : "-");
  core::TeleopSession session{std::move(rc), scenario};
  const auto result = session.run();

  // §V.F logging: ego channel, other vehicles, events (collisions, lane
  // invasions, fault injections).
  const std::string stem = profile.id + "_" + scenario.name;
  std::ofstream ego{stem + "_ego.csv"};
  std::ofstream others{stem + "_others.csv"};
  std::ofstream events{stem + "_events.csv"};
  result.trace.write_csv(ego, others, events);
  std::printf("wrote %s_{ego,others,events}.csv\n\n", stem.c_str());

  metrics::TtcAnalyzer ttc;
  metrics::SrrAnalyzer srr;
  const auto ttc_stats = ttc.summarize(ttc.series(result.trace));
  const auto srr_stats = srr.analyze(result.trace);
  const auto driving = metrics::analyze_driving(result.trace);

  std::printf("run:        %s in %.1f s (%s)\n", result.completed ? "completed" : "DNF",
              result.duration.value(), result.trace.run_id.c_str());
  if (ttc_stats.valid()) {
    std::printf("TTC:        min %.2f avg %.2f max %.2f s (%zu samples, %zu below 6 s)\n",
                ttc_stats.min.value(), ttc_stats.avg.value(), ttc_stats.max.value(),
                ttc_stats.samples, ttc_stats.violations);
  }
  std::printf("SRR:        %.1f reversals/min\n", srr_stats.rate_per_min);
  std::printf("speed:      mean %.1f m/s, max %.1f m/s\n", driving.speed.mean(),
              driving.speed.max());
  std::printf("events:     %zu collisions, %zu lane invasions (%zu solid)\n",
              result.trace.collisions.size(), driving.lane_invasions,
              driving.solid_line_invasions);
  std::printf("video:      %llu frames shown, frozen %.1f%%, QoE %.1f/5\n",
              static_cast<unsigned long long>(result.frames_displayed),
              100.0 * result.qoe.frozen_fraction(), result.qoe.score());
  return 0;
}
