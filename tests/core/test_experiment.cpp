// Experiment harness, report builders and the experience/performance
// correlation. These use single subjects (not the full campaign) to stay
// fast; the integration suite covers the rest.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/correlation.hpp"
#include "core/report.hpp"

namespace rdsim::core {
namespace {

const SubjectResult& cached_subject() {
  static const SubjectResult result = [] {
    ExperimentHarness harness;
    return harness.run_subject(make_roster()[4]);  // T5
  }();
  return result;
}

CampaignResult tiny_campaign() {
  CampaignResult c;
  c.subjects.push_back(cached_subject());
  return c;
}

TEST(FaultPlan, RespectsWeightsAndCoverage) {
  ExperimentConfig cfg;
  ExperimentHarness harness{cfg};
  const auto scenario = sim::make_test_route_scenario();
  util::Random rng{5, 5};
  std::map<std::string, int> counts;
  int total = 0;
  for (int rep = 0; rep < 200; ++rep) {
    for (const auto& a : harness.make_fault_plan(scenario, rng)) {
      ++counts[a.fault.label()];
      ++total;
    }
  }
  // ~95% of 12 POIs over 200 reps.
  EXPECT_NEAR(total, 200 * 12 * 0.95, 200);
  // Weight ordering: 2% (31) >= 25ms (30) > 5ms (20).
  EXPECT_GT(counts["2%"], counts["5ms"]);
  EXPECT_GT(counts["25ms"], counts["5ms"]);
  for (const auto& label : report::fault_labels()) {
    EXPECT_GT(counts[label], 0) << label;
  }
}

/// The message of the std::invalid_argument ExperimentHarness throws for
/// `cfg`, or "" when it constructs.
std::string rejection(ExperimentConfig cfg) {
  try {
    ExperimentHarness harness{std::move(cfg)};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ExperimentHarness, RejectsFaultWeightsNotOnePerPaperFault) {
  for (const std::size_t n : {0u, 4u, 6u}) {
    ExperimentConfig cfg;
    cfg.fault_weights.assign(n, 1.0);
    EXPECT_NE(rejection(cfg).find("fault_weights"), std::string::npos) << n;
  }
  ExperimentConfig one_hot;  // the shape rdsim_bench's loss workload uses
  one_hot.fault_weights = {0, 0, 0, 0, 1};
  EXPECT_EQ(rejection(one_hot), "");
}

TEST(ExperimentHarness, RejectsNegativeOrNonFiniteFaultWeight) {
  for (const double w : {-1.0, kNaN, kInf}) {
    ExperimentConfig cfg;
    cfg.fault_weights[2] = w;
    EXPECT_NE(rejection(cfg).find("fault_weights"), std::string::npos) << w;
  }
}

TEST(ExperimentHarness, RejectsAllZeroFaultWeights) {
  ExperimentConfig cfg;
  cfg.fault_weights.assign(cfg.fault_weights.size(), 0.0);
  EXPECT_NE(rejection(cfg).find("positive sum"), std::string::npos);
}

TEST(ExperimentHarness, RejectsPoiFaultProbabilityOutsideTheUnitInterval) {
  for (const double p : {-0.1, 1.5, kNaN, kInf}) {
    ExperimentConfig cfg;
    cfg.poi_fault_probability = p;
    EXPECT_NE(rejection(cfg).find("poi_fault_probability"), std::string::npos) << p;
  }
}

TEST(ExperimentHarness, RejectsNegativeOrNonFiniteRunTimeLimit) {
  for (const double s : {-1.0, kNaN, kInf}) {
    ExperimentConfig cfg;
    cfg.run_time_limit = units::Seconds{s};
    EXPECT_NE(rejection(cfg).find("run_time_limit"), std::string::npos) << s;
  }
}

TEST(ExperimentHarness, RejectsUnrunnableRdsConfig) {
  ExperimentConfig cfg;
  cfg.rds.transport.window_segments = 0;
  EXPECT_NE(rejection(cfg).find("window_segments"), std::string::npos);
}

TEST(RunSubject, ProducesGoldenAndFaultyRuns) {
  const SubjectResult& r = cached_subject();
  EXPECT_EQ(r.profile.id, "T5");
  EXPECT_FALSE(r.golden.trace.fault_injected_run);
  EXPECT_TRUE(r.faulty.trace.fault_injected_run);
  EXPECT_TRUE(r.golden.completed || r.golden.timed_out);
  EXPECT_TRUE(r.faulty.completed || r.faulty.timed_out);
  EXPECT_TRUE(r.golden.trace.faults.empty());
  EXPECT_FALSE(r.faulty.trace.faults.empty());
  // Paper: 10-14 faults per subject.
  int injections = 0;
  for (const auto& f : r.faulty.trace.faults) {
    if (f.added) ++injections;
  }
  EXPECT_GE(injections, 8);
  EXPECT_LE(injections, 14);
  // The questionnaire reflects the profile.
  EXPECT_EQ(r.questionnaire.subject, "T5");
  EXPECT_EQ(r.questionnaire.q1_gaming, r.profile.gaming_experience);
  EXPECT_GE(r.questionnaire.q4_qoe, 1.0);
  EXPECT_LE(r.questionnaire.q4_qoe, 5.0);
}

TEST(RunSubject, FaultyRunQoeWorseThanGolden) {
  const SubjectResult& r = cached_subject();
  EXPECT_LE(r.faulty.qoe.score(), r.golden.qoe.score());
  EXPECT_GT(r.faulty.qoe.frozen_fraction(), r.golden.qoe.frozen_fraction());
}

TEST(Report, Table2CountsMatchTrace) {
  const auto campaign = tiny_campaign();
  const auto rows = report::fault_count_rows(campaign);
  ASSERT_EQ(rows.size(), 1u);
  int total = 0;
  for (const auto& [label, c] : rows[0].counts) total += c;
  EXPECT_EQ(total, rows[0].total);
  int from_trace = 0;
  for (const auto& f : campaign.subjects[0].faulty.trace.faults) {
    if (f.added) ++from_trace;
  }
  EXPECT_EQ(rows[0].total, from_trace);
  const std::string table = report::render_table2(campaign);
  EXPECT_NE(table.find("T5"), std::string::npos);
  EXPECT_NE(table.find("Total"), std::string::npos);
}

TEST(Report, Table3HasNfiBaseline) {
  const auto campaign = tiny_campaign();
  const auto rows = report::ttc_rows(campaign);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_TRUE(rows[0].nfi.has_value());  // the golden run follows a lead
  EXPECT_GT(rows[0].nfi->samples, 50u);
  EXPECT_GT(rows[0].nfi->max, rows[0].nfi->min);
  const std::string table = report::render_table3(campaign);
  EXPECT_NE(table.find("Maximum TTC"), std::string::npos);
  EXPECT_NE(table.find("Minimum TTC"), std::string::npos);
}

TEST(Report, Table4MaskingHidesPaperMissingCells) {
  const auto campaign = tiny_campaign();
  // T5 is not in any missing list, so masked == unmasked for this subject.
  EXPECT_EQ(report::render_table4(campaign, false).substr(0, 40),
            report::render_table4(campaign, true).substr(0, 40));
  EXPECT_TRUE(report::paper_missing_srr("T3", false));
  EXPECT_TRUE(report::paper_missing_srr("T8", true));
  EXPECT_FALSE(report::paper_missing_srr("T5", true));
  EXPECT_TRUE(report::paper_missing_ttc("T1"));
  EXPECT_FALSE(report::paper_missing_ttc("T9"));
}

TEST(Report, Table4RowsHaveFaultCells) {
  const auto campaign = tiny_campaign();
  const auto rows = report::srr_rows(campaign);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_TRUE(rows[0].nfi.has_value());
  ASSERT_TRUE(rows[0].fi.has_value());
  int present = 0;
  for (const auto& [label, v] : rows[0].cells) {
    if (v) ++present;
  }
  EXPECT_GE(present, 3);  // most fault types appear in a 10+-fault run
  EXPECT_TRUE(rows[0].avg.has_value());
}

TEST(Report, QuestionnaireRendering) {
  const auto campaign = tiny_campaign();
  const std::string q = report::render_questionnaire(campaign);
  EXPECT_NE(q.find("1 respondents"), std::string::npos);
  EXPECT_NE(q.find("QoE"), std::string::npos);
}

TEST(Report, Table1RendersStationSpec) {
  const std::string t = report::render_table1(StationConfig{});
  EXPECT_NE(t.find("Logitech G27"), std::string::npos);
  EXPECT_NE(t.find("Ubuntu 18.04"), std::string::npos);
  EXPECT_NE(t.find("RTX 3080"), std::string::npos);
}

TEST(Report, CollisionSummaryConsistent) {
  const auto campaign = tiny_campaign();
  const auto sum = report::collision_summary(campaign);
  EXPECT_EQ(sum.included_subjects, 1u);
  EXPECT_EQ(sum.golden_total_collisions,
            campaign.subjects[0].golden.trace.collisions.size());
  EXPECT_EQ(sum.faulty_total_collisions,
            campaign.subjects[0].faulty.trace.collisions.size());
}

TEST(CampaignResult, IncludedFiltersExcludedSubjects) {
  CampaignResult c;
  SubjectResult a;
  a.profile = make_roster()[0];  // T1
  SubjectResult b;
  b.profile = make_roster()[6];  // T7 (excluded)
  c.subjects.push_back(a);
  c.subjects.push_back(b);
  EXPECT_EQ(c.included().size(), 1u);
  EXPECT_EQ(c.included()[0]->profile.id, "T1");
}

TEST(Correlation, FeaturesExtractedPerIncludedSubject) {
  // A small synthetic campaign: reuse one subject result twice under
  // different profiles so the correlation has variance to chew on.
  ExperimentHarness harness;
  CampaignResult campaign;
  campaign.subjects.push_back(harness.run_subject(make_roster()[3]));   // T4
  campaign.subjects.push_back(harness.run_subject(make_roster()[8]));   // T9
  const auto features = extract_features(campaign);
  ASSERT_EQ(features.size(), 2u);
  EXPECT_EQ(features[0].subject, "T4");
  EXPECT_GE(features[0].faulty_srr, 0.0);
  EXPECT_GE(features[1].qoe, 1.0);

  const auto rows = correlate(campaign);
  EXPECT_EQ(rows.size(), 15u);  // 3 experience x 5 performance
  // T4 has no gaming experience and T9 has: that axis has variance, so r is
  // defined (n=2 gives a degenerate +/-1, but defined).
  bool gaming_defined = false;
  for (const auto& row : rows) {
    if (row.experience == "gaming" && row.r.has_value()) gaming_defined = true;
  }
  EXPECT_TRUE(gaming_defined);

  const std::string report = render_correlations(campaign);
  EXPECT_NE(report.find("gaming"), std::string::npos);
  EXPECT_NE(report.find("n = 2"), std::string::npos);
}

}  // namespace
}  // namespace rdsim::core
