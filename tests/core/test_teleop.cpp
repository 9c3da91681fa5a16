// Closed-loop teleoperation sessions (integration of net + sim + driver).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "core/teleop.hpp"
#include "obs/obs.hpp"

namespace rdsim::core {
namespace {

RunConfig base_config(const char* id) {
  RunConfig rc;
  rc.run_id = id;
  rc.subject_id = "T0";
  rc.driver = DriverParams{};
  rc.seed = 11;
  return rc;
}

/// The message of the std::invalid_argument TeleopSession throws for `rc`,
/// or "" when it constructs.
std::string rejection(RunConfig rc) {
  try {
    TeleopSession session{std::move(rc), sim::make_following_scenario()};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(TeleopSession, RejectsZeroStreamWindowByName) {
  RunConfig rc = base_config("bad-window");
  rc.rds.transport.window_segments = 0;
  EXPECT_NE(rejection(rc).find("window_segments"), std::string::npos);
  EXPECT_EQ(RdsConfig{}.validate(), std::nullopt);
  EXPECT_EQ(RdsConfig::scaled_model_vehicle().validate(), std::nullopt);
}

TEST(TeleopSession, RejectsZeroMtuByName) {
  RunConfig rc = base_config("bad-mtu");
  rc.rds.transport.mtu = 0;
  EXPECT_NE(rejection(rc).find("transport.mtu"), std::string::npos);
}

/// The segment count travels as a u16: at the default 6 MB frame, an MTU
/// below 92 bytes would need more than 65 535 segments per frame.
TEST(TeleopSession, RejectsMtuThatOverflowsTheSegmentCountByName) {
  RdsConfig cfg;
  cfg.transport.mtu = 91;
  const auto error = cfg.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("transport.mtu"), std::string::npos) << *error;
  EXPECT_NE(error->find("video.frame_wire_bytes"), std::string::npos) << *error;
  cfg.transport.mtu = 92;
  EXPECT_EQ(cfg.validate(), std::nullopt);

  RunConfig rc = base_config("tiny-mtu");
  rc.rds.transport.mtu = 91;
  EXPECT_NE(rejection(rc).find("transport.mtu"), std::string::npos);
}

TEST(TeleopSession, RejectsFaultPlanNamingAnUnknownPoi) {
  RunConfig rc = base_config("bad-poi");
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kDelay, 25.0}});
  rc.plan.push_back({"slalom-1", {net::FaultKind::kPacketLoss, 0.05}});
  EXPECT_NE(rejection(rc).find("'slalom-1'"), std::string::npos);
  rc.plan.pop_back();
  EXPECT_EQ(rejection(rc), "");
}

TEST(TeleopSession, RejectsFaultWithoutNetemRuleNamingPoiAndValue) {
  RunConfig rc = base_config("bad-loss");
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 5.0}});
  const std::string why = rejection(rc);
  EXPECT_NE(why.find("'following'"), std::string::npos) << why;
  EXPECT_NE(why.find("500%"), std::string::npos) << why;
}

TEST(TeleopSession, GoldenRunCompletesCleanly) {
  TeleopSession session{base_config("golden"), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.timed_out);
  EXPECT_GT(r.frames_encoded, 1000u);
  EXPECT_GT(r.frames_displayed, 900u);
  EXPECT_TRUE(r.trace.collisions.empty());
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_GT(r.qoe.score(), 4.0);
  EXPECT_FALSE(r.trace.ego.empty());
}

TEST(TeleopSession, FaultPlanInjectsAndRemovesAtPoi) {
  RunConfig rc = base_config("fi");
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kDelay, 25.0}});
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.faults_injected, 1u);
  // The log has a matched add/delete pair within the run.
  ASSERT_GE(r.trace.faults.size(), 2u);
  EXPECT_TRUE(r.trace.faults[0].added);
  EXPECT_EQ(r.trace.faults[0].fault_type, "delay");
  const auto windows = r.trace.fault_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_GT(windows[0].stop, windows[0].start + 3.0);  // situation-long
}

TEST(TeleopSession, DelayFaultRaisesLinkLatency) {
  RunConfig golden = base_config("g");
  TeleopSession gs{std::move(golden), sim::make_following_scenario()};
  const RunResult g = gs.run();

  RunConfig faulty = base_config("f");
  faulty.fault_injected = true;
  faulty.plan.push_back({"following", {net::FaultKind::kDelay, 50.0}});
  TeleopSession fs{std::move(faulty), sim::make_following_scenario()};
  const RunResult f = fs.run();

  EXPECT_GT(f.mean_downlink_latency.value(), g.mean_downlink_latency.value() + 5.0);
  EXPECT_GT(f.mean_uplink_latency.value(), g.mean_uplink_latency.value() + 5.0);  // bidirectional
}

TEST(TeleopSession, LossFaultCausesRetransmissions) {
  RunConfig rc = base_config("loss");
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.05}});
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_GT(r.video_stats.retransmits_rto + r.video_stats.retransmits_fast, 10u);
  EXPECT_GT(r.qoe.frozen_time.value(), 0.05);  // visible stutter during the window
}

TEST(TeleopSession, DeterministicForSameSeed) {
  auto run_once = [] {
    RunConfig rc = base_config("det");
    rc.fault_injected = true;
    rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.02}});
    TeleopSession session{std::move(rc), sim::make_following_scenario()};
    return session.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.trace.ego.size(), b.trace.ego.size());
  for (std::size_t i = 0; i < a.trace.ego.size(); i += 17) {
    EXPECT_DOUBLE_EQ(a.trace.ego[i].x, b.trace.ego[i].x) << i;
    EXPECT_DOUBLE_EQ(a.trace.ego[i].steer, b.trace.ego[i].steer) << i;
  }
  EXPECT_EQ(a.video_stats.retransmits_rto, b.video_stats.retransmits_rto);
}

TEST(TeleopSession, DifferentSeedsDiverge) {
  RunConfig a = base_config("a");
  a.seed = 1;
  RunConfig b = base_config("b");
  b.seed = 2;
  TeleopSession sa{std::move(a), sim::make_following_scenario()};
  TeleopSession sb{std::move(b), sim::make_following_scenario()};
  const auto ra = sa.run();
  const auto rb = sb.run();
  ASSERT_FALSE(ra.trace.ego.empty());
  ASSERT_FALSE(rb.trace.ego.empty());
  bool any_diff = false;
  const std::size_t n = std::min(ra.trace.ego.size(), rb.trace.ego.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ra.trace.ego[i].steer != rb.trace.ego[i].steer) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TeleopSession, DatagramTransportAblation) {
  RunConfig rc = base_config("dgram");
  rc.rds.datagram_video = true;
  rc.rds.datagram_commands = true;
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.05}});
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_TRUE(r.completed);
  // No reliable-stream stats in datagram mode.
  EXPECT_EQ(r.video_stats.segments_sent, 0u);
  EXPECT_GT(r.frames_displayed, 500u);
}

TEST(TeleopSession, StepApiExposesProgress) {
  TeleopSession session{base_config("step"), sim::make_following_scenario()};
  EXPECT_FALSE(session.finished());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(session.step());
  }
  EXPECT_GT(session.now().to_seconds(), 2.0);
  EXPECT_GT(session.vehicle().runtime().ego_position(), units::Meters{5.0});
}

TEST(TeleopSession, PhaseLapsSumExactlyToTheStepTimer) {
  // A tick's phases are contiguous laps of one stopwatch: each phase is
  // timed once per tick, and the step timer is exactly their sum, with no
  // clock read between two phases or after the last one.
  constexpr std::uint64_t kTicks = 400;
  for (const bool mitigated : {false, true}) {
    RunConfig rc = base_config("laps");
    rc.mitigation.enabled = mitigated;
    TeleopSession session{std::move(rc), sim::make_following_scenario()};
    obs::Context ctx;
    {
      const obs::ContextScope scope{&ctx};
      for (std::uint64_t i = 0; i < kTicks; ++i) ASSERT_TRUE(session.step());
    }
    namespace m = obs::metric;
    std::vector<obs::MetricId> phases{m::kPhasePhysics, m::kPhaseFaults, m::kPhaseVideo,
                                      m::kPhaseRouter, m::kPhaseCommands};
    if (mitigated) {
      phases.push_back(m::kPhaseMitigate);
    } else {
      EXPECT_EQ(ctx.timer(m::kPhaseMitigate), nullptr);
    }
    std::uint64_t phase_sum_ns = 0;
    for (const obs::MetricId id : phases) {
      const obs::TimerCell* cell = ctx.timer(id);
      ASSERT_NE(cell, nullptr) << obs::metric_def(id).name;
      EXPECT_EQ(cell->count, kTicks) << obs::metric_def(id).name;
      phase_sum_ns += cell->total_ns;
    }
    const obs::TimerCell* step = ctx.timer(m::kPhaseStep);
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->count, kTicks);
    EXPECT_EQ(step->total_ns, phase_sum_ns) << "mitigated=" << mitigated;
  }
}

TEST(TeleopSession, DatagramTransportsWithMitigationActOnStalenessAlone) {
  // Datagram stats are all zero, so the link-quality estimator gets no RTT
  // or retransmit telemetry and the governor acts on staleness alone.
  RunConfig rc = base_config("dgram_mitigated");
  rc.rds.datagram_video = true;
  rc.rds.datagram_commands = true;
  rc.mitigation.enabled = true;
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kPacketLoss, 0.05}});
  const std::uint64_t before = check::Registry::instance().total_violations();
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  EXPECT_EQ(check::Registry::instance().total_violations() - before, 0u);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.frames_displayed, 500u);
  ASSERT_TRUE(r.mitigation.enabled);
  EXPECT_EQ(r.mitigation.final_rtt.value(), 0.0);
  EXPECT_EQ(r.mitigation.final_loss, 0.0);
}

TEST(TeleopSession, SevereDelayDegradesFeed) {
  RunConfig rc = base_config("severe");
  rc.fault_injected = true;
  rc.plan.push_back({"following", {net::FaultKind::kDelay, 200.0}});
  TeleopSession session{std::move(rc), sim::make_following_scenario()};
  const RunResult r = session.run();
  // §VIII: >200 ms effectively stopped the feed — the sender must be
  // skipping frames and QoE must collapse during the fault window.
  EXPECT_GT(r.frames_skipped_sender, 20u);
  EXPECT_LT(r.qoe.score(), 4.0);
}

}  // namespace
}  // namespace rdsim::core
