// Property sweep over the subject parameter space: on a clean link, every
// plausible operator must drive the focused scenarios without crashing —
// stability of the perception-control loop is a precondition for the fault
// study to mean anything.
#include <gtest/gtest.h>

#include <ostream>

#include "core/teleop.hpp"
#include "metrics/srr.hpp"

namespace rdsim::core {
namespace {

struct SubjectScenarioCase {
  int subject;           // 1..12
  const char* scenario;  // following | slalom | overtake
};

// Names each case "T<subject>_<scenario>", which ctest discovery turns into
// the test name; without it gtest prints the struct's raw bytes (padding and
// the scenario pointer), which change from build to build.
void PrintTo(const SubjectScenarioCase& c, std::ostream* os) {
  *os << 'T' << c.subject << '_' << c.scenario;
}

class CleanLinkStability : public ::testing::TestWithParam<SubjectScenarioCase> {};

sim::Scenario scenario_by_name(const std::string& name) {
  if (name == "following") return sim::make_following_scenario();
  if (name == "overtake") return sim::make_overtake_scenario();
  return sim::make_slalom_scenario();
}

TEST_P(CleanLinkStability, CompletesWithoutCollision) {
  const auto c = GetParam();
  const auto profile = make_roster()[static_cast<std::size_t>(c.subject - 1)];
  RunConfig rc;
  rc.run_id = profile.id + std::string{"-"} + c.scenario;
  rc.subject_id = profile.id;
  rc.driver = profile.driver;
  rc.seed = profile.seed;
  TeleopSession session{std::move(rc), scenario_by_name(c.scenario)};
  const RunResult r = session.run();
  EXPECT_TRUE(r.completed) << profile.id << " on " << c.scenario;
  EXPECT_TRUE(r.trace.collisions.empty()) << profile.id << " on " << c.scenario;

  // Steering must stay sane: baseline SRR in a plausible human band.
  metrics::SrrAnalyzer srr;
  const auto s = srr.analyze(r.trace);
  EXPECT_LT(s.rate_per_min, 40.0) << profile.id;
}

INSTANTIATE_TEST_SUITE_P(
    SubjectsByScenario, CleanLinkStability,
    ::testing::Values(SubjectScenarioCase{1, "following"},
                      SubjectScenarioCase{3, "following"},
                      SubjectScenarioCase{4, "slalom"},
                      SubjectScenarioCase{5, "slalom"},
                      SubjectScenarioCase{8, "overtake"},
                      SubjectScenarioCase{9, "slalom"},
                      SubjectScenarioCase{11, "overtake"},
                      SubjectScenarioCase{12, "following"}));

class ExtremeDriverParams : public ::testing::TestWithParam<double> {};

TEST_P(ExtremeDriverParams, SlowReactionsStillStableOnCleanLink) {
  DriverParams d;
  d.reaction_time_s = GetParam();
  RunConfig rc;
  rc.run_id = "extreme";
  rc.subject_id = "X";
  rc.driver = d;
  rc.seed = 31;
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.trace.collisions.empty());
}

INSTANTIATE_TEST_SUITE_P(ReactionTimes, ExtremeDriverParams,
                         ::testing::Values(0.18, 0.35, 0.5, 0.65));

}  // namespace
}  // namespace rdsim::core
