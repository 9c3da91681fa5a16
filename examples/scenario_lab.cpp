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
#include <stdexcept>
#include <string>

#include "core/teleop.hpp"
#include "metrics/safety.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"
#include "util/csv.hpp"

using namespace rdsim;

namespace {

int usage(const std::string& reason) {
  std::fprintf(stderr,
               "scenario_lab: %s\n"
               "usage: scenario_lab [route|following|slalom|overtake] [subject 1-12] "
               "[none|delay|loss] [value]\n",
               reason.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scenario_name = argc > 1 ? argv[1] : "slalom";
  const std::string subject_arg = argc > 2 ? argv[2] : "5";
  const std::string fault_kind = argc > 3 ? argv[3] : "none";
  const std::string value_arg = argc > 4 ? argv[4] : "0";

  sim::Scenario scenario;
  if (scenario_name == "route") {
    scenario = sim::make_test_route_scenario();
  } else if (scenario_name == "following") {
    scenario = sim::make_following_scenario();
  } else if (scenario_name == "overtake") {
    scenario = sim::make_overtake_scenario();
  } else if (scenario_name == "slalom") {
    scenario = sim::make_slalom_scenario();
  } else {
    return usage("unknown scenario '" + scenario_name + "'");
  }
  if (fault_kind != "none" && fault_kind != "delay" && fault_kind != "loss") {
    return usage("unknown fault kind '" + fault_kind + "'");
  }
  const auto subject_idx = util::parse_number<int>(subject_arg);
  if (!subject_idx || *subject_idx < 1 || *subject_idx > 12) {
    return usage("subject must be 1..12, got '" + subject_arg + "'");
  }
  const auto fault_value = util::parse_number<double>(value_arg);
  if (!fault_value) return usage("fault value is not a number: '" + value_arg + "'");

  const auto roster = core::make_roster();
  const auto& profile = roster[static_cast<std::size_t>(*subject_idx - 1)];

  core::RunConfig rc;
  rc.run_id = profile.id + "-" + scenario.name;
  rc.subject_id = profile.id;
  rc.driver = profile.driver;
  rc.seed = profile.seed;
  if (fault_kind == "delay") {
    rc.fault_injected = true;
    for (const auto& poi : scenario.pois) {
      rc.plan.push_back({poi.name, {net::FaultKind::kDelay, *fault_value}});
    }
  } else if (fault_kind == "loss") {
    rc.fault_injected = true;
    for (const auto& poi : scenario.pois) {
      rc.plan.push_back({poi.name, {net::FaultKind::kPacketLoss, *fault_value}});
    }
  }

  std::printf("running %s with %s (%s %s)...\n", scenario.name.c_str(),
              profile.id.c_str(), fault_kind.c_str(),
              argc > 4 ? argv[4] : "-");
  core::RunResult result;
  try {
    result = core::TeleopSession{std::move(rc), scenario}.run();
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }

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
