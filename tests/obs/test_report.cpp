// CampaignCollector and report export: run-id ordering, duplicate-id
// folding, and a full parse of report_json() through json_check — the same
// artifact the bench writes as BENCH_obs.json.
#include <gtest/gtest.h>

#include <string>

#include "json_check.hpp"
#include "obs/report.hpp"

namespace rdsim::obs {
namespace {

constexpr MetricId kReportCounter = metric::kFifoEnqueued;
constexpr MetricId kReportGauge = metric::kFifoDepth;
constexpr MetricId kReportHistogram = metric::kOpFrameAgeMillis;

Context run_context(std::uint64_t n) {
  Context ctx;
  ctx.count(kReportCounter, n);
  ctx.gauge_set(kReportGauge, static_cast<double>(n));
  ctx.observe(kReportHistogram, static_cast<double>(n));
  return ctx;
}

TEST(ObsReport, RunsIterateInRunIdOrderRegardlessOfSubmitOrder) {
  CampaignCollector collector;
  collector.submit_run("run-09", run_context(9));
  collector.submit_run("run-01", run_context(1));
  collector.submit_run("run-05", run_context(5));
  ASSERT_EQ(collector.run_count(), 3u);
  std::string previous;
  for (const auto& [id, ctx] : collector.runs()) {
    EXPECT_LT(previous, id);
    previous = id;
  }
  EXPECT_EQ(collector.merged().counter(kReportCounter), 15u);
}

TEST(ObsReport, DuplicateRunIdFoldsViaMerge) {
  CampaignCollector collector;
  collector.submit_run("run-01", run_context(3));
  collector.submit_run("run-01", run_context(4));
  ASSERT_EQ(collector.run_count(), 1u);
  EXPECT_EQ(collector.runs().at("run-01").counter(kReportCounter), 7u);
}

TEST(ObsReport, EmptyContextIsStillARun) {
  CampaignCollector collector;
  collector.submit_run("run-empty", Context{});
  EXPECT_EQ(collector.run_count(), 1u);
  EXPECT_TRUE(collector.runs().at("run-empty").empty());
}

TEST(ObsReport, ReportJsonParsesAndCarriesKnownValues) {
  CampaignCollector collector;
  collector.submit_run("run-01", run_context(2));
  collector.submit_run("run-02", run_context(4));

  const json_check::Value root = json_check::parse(collector.report_json());
  EXPECT_EQ(root.at("schema").str(), "rdsim.obs.report/1");
  EXPECT_EQ(static_cast<int>(root.at("runs").num()), 2);

  const json_check::Value& campaign = root.at("campaign");
  EXPECT_EQ(static_cast<int>(campaign.at("qdisc.fifo.enqueued").num()), 6);
  const json_check::Value& gauge = campaign.at("qdisc.fifo.depth");
  EXPECT_EQ(gauge.at("min").num(), 2.0);
  EXPECT_EQ(gauge.at("max").num(), 4.0);
  EXPECT_EQ(static_cast<int>(gauge.at("count").num()), 2);
  const json_check::Value& histogram = campaign.at("operator.frame_age_ms");
  EXPECT_EQ(static_cast<int>(histogram.at("count").num()), 2);
  EXPECT_EQ(histogram.at("sum").num(), 6.0);

  const json_check::Value& per_run = root.at("per_run");
  EXPECT_EQ(static_cast<int>(
                per_run.at("run-01").at("qdisc.fifo.enqueued").num()),
            2);
  EXPECT_EQ(static_cast<int>(
                per_run.at("run-02").at("qdisc.fifo.enqueued").num()),
            4);
}

TEST(ObsReport, RunIdsWithControlCharactersStayValidJson) {
  // Run ids reach the report verbatim, so a quote, backslash, tab, newline
  // or other control character in one must come out escaped.
  const std::string run_id = "run \"01\"\t\\\n\x01";
  CampaignCollector collector;
  collector.submit_run(run_id, run_context(2));
  const std::string report = collector.report_json();
  EXPECT_NE(report.find(R"("run \"01\"\t\\\n\u0001")"), std::string::npos) << report;
  const json_check::Value root = json_check::parse(report);
  EXPECT_EQ(static_cast<int>(root.at("per_run").at(run_id).at("qdisc.fifo.enqueued").num()),
            2);
}

TEST(JsonCheck, RejectsRawControlCharactersInStrings) {
  // JSON strings may hold U+0000-U+001F only escaped; the reader behind the
  // report tests must refuse them raw, or an unescaping writer would pass.
  EXPECT_EQ(json_check::parse(R"({"id": "a\tb\u0001"})").at("id").str(), "a\tb\x01");
  EXPECT_THROW(json_check::parse("{\"id\": \"a\tb\"}"), std::runtime_error);
  EXPECT_THROW(json_check::parse("{\"id\": \"a\x01\"}"), std::runtime_error);
  EXPECT_THROW(json_check::parse("{\"a\nb\": 1}"), std::runtime_error);
}

TEST(ObsReport, ZeroCountersAreOmittedFromTheReport) {
  CampaignCollector collector;
  Context ctx;
  ctx.gauge_set(kReportGauge, 1.0);  // counter never touched
  collector.submit_run("run-01", std::move(ctx));
  const json_check::Value root = json_check::parse(collector.report_json());
  EXPECT_FALSE(root.at("campaign").has("qdisc.fifo.enqueued"));
  EXPECT_TRUE(root.at("campaign").has("qdisc.fifo.depth"));
}

}  // namespace
}  // namespace rdsim::obs
