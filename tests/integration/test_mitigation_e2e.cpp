// End-to-end behaviour of the rdsim::mitigate stack in the closed teleop
// loop: the MRM acceptance scenario (total link loss past the watchdog
// deadline must produce a deterministic in-lane stop with zero collisions)
// and the non-interference guarantee (an enabled stack on a healthy link is
// bit-exact pass-through).
#include <gtest/gtest.h>

#include <cmath>

#include "core/teleop.hpp"

namespace rdsim::core {
namespace {

using util::TimePoint;

RunConfig mitigated_config(std::uint64_t seed) {
  RunConfig rc;
  rc.run_id = "mitigated";
  rc.subject_id = "T3";
  rc.driver = make_roster()[2].driver;
  rc.seed = seed;
  rc.mitigation.enabled = true;
  return rc;
}

// Advances `session` one tick with 100 % packet loss held over [3 s, 12 s),
// far beyond the 0.5 s watchdog deadline: nothing crosses the link in either
// direction. The fault goes in before the tick at which it is due, so the
// tick's video and command phases already see it.
bool step_with_outage(TeleopSession& session) {
  const TimePoint now = session.now();
  net::FaultInjector& injector = session.injector();
  const bool in_outage =
      now >= TimePoint::from_seconds(3.0) && now < TimePoint::from_seconds(12.0);
  if (in_outage && !injector.active()) {
    injector.inject({net::FaultKind::kPacketLoss, 1.0}, now);
  } else if (!in_outage && injector.active()) {
    injector.remove(now);
  }
  return session.step();
}

TEST(MitigationE2E, TotalLinkLossTriggersInLaneMrmStop) {
  RunConfig rc = mitigated_config(303);
  rc.fault_injected = true;
  TeleopSession session{std::move(rc), sim::make_following_scenario()};

  bool stopped_during_outage = false;
  double stop_lane_offset = 0.0;
  while (step_with_outage(session)) {
    const double t = session.now().to_seconds();
    if (t > 3.0 && t < 12.0 && session.vehicle().mrm() != nullptr &&
        session.vehicle().mrm()->engaged() &&
        session.vehicle().mrm()->reached_standstill() && !stopped_during_outage) {
      stopped_during_outage = true;
      stop_lane_offset = session.vehicle().world().project_ego().lane_offset;
    }
  }
  const RunResult r = session.run();

  // The MRM fired, reached a full stop inside the outage, and the stop was
  // in-lane: the vehicle held its lane centre, not a drift into the verge.
  ASSERT_TRUE(r.mitigation.enabled);
  EXPECT_GE(r.mitigation.watchdog_firings, 1u);
  EXPECT_GE(r.mitigation.mrm_activations, 1u);
  EXPECT_TRUE(r.mitigation.mrm_standstill);
  EXPECT_GT(r.mitigation.mrm_time.value(), 1.0);
  ASSERT_TRUE(stopped_during_outage);
  EXPECT_LT(std::abs(stop_lane_offset), 1.0);

  // Zero collisions, and the operator-side governor saw the outage too.
  EXPECT_TRUE(r.trace.collisions.empty());
  EXPECT_GT(r.mitigation.dwell_link_loss.value(), 0.0);

  // Once the link returns the operator resumes and the run finishes.
  EXPECT_TRUE(r.completed || r.timed_out);
}

TEST(MitigationE2E, MrmStopIsDeterministic) {
  auto run_once = [] {
    RunConfig rc = mitigated_config(303);
    rc.fault_injected = true;
    TeleopSession session{std::move(rc), sim::make_following_scenario()};
    while (step_with_outage(session)) {
    }
    return session.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.trace.ego.size(), b.trace.ego.size());
  for (std::size_t i = 0; i < a.trace.ego.size(); ++i) {
    ASSERT_EQ(a.trace.ego[i].x, b.trace.ego[i].x) << "sample " << i;
    ASSERT_EQ(a.trace.ego[i].y, b.trace.ego[i].y) << "sample " << i;
    ASSERT_EQ(a.trace.ego[i].brake, b.trace.ego[i].brake) << "sample " << i;
  }
  EXPECT_EQ(a.mitigation.mrm_time.value(), b.mitigation.mrm_time.value());
  EXPECT_EQ(a.mitigation.transitions, b.mitigation.transitions);
}

TEST(MitigationE2E, EnabledStackOnHealthyLinkIsPassThrough) {
  // The governor must stay NOMINAL for the whole run and the trajectory must
  // be bit-identical to the unmitigated twin: enabling mitigation on a clean
  // link changes nothing but the summary block.
  auto run_with = [](bool enabled) {
    RunConfig rc;
    rc.run_id = enabled ? "mit" : "plain";
    rc.subject_id = "T2";
    rc.driver = make_roster()[1].driver;
    rc.seed = 202;
    rc.mitigation.enabled = enabled;
    TeleopSession session{std::move(rc), sim::make_following_scenario()};
    return session.run();
  };
  const RunResult plain = run_with(false);
  const RunResult mit = run_with(true);

  EXPECT_FALSE(plain.mitigation.enabled);
  ASSERT_TRUE(mit.mitigation.enabled);
  EXPECT_EQ(mit.mitigation.mrm_activations, 0u);
  EXPECT_EQ(mit.mitigation.interventions, 0u);
  EXPECT_DOUBLE_EQ(mit.mitigation.dwell_degraded.value(), 0.0);
  EXPECT_DOUBLE_EQ(mit.mitigation.dwell_impaired.value(), 0.0);
  EXPECT_DOUBLE_EQ(mit.mitigation.dwell_link_loss.value(), 0.0);

  ASSERT_EQ(plain.trace.ego.size(), mit.trace.ego.size());
  for (std::size_t i = 0; i < plain.trace.ego.size(); ++i) {
    ASSERT_EQ(plain.trace.ego[i].x, mit.trace.ego[i].x) << "sample " << i;
    ASSERT_EQ(plain.trace.ego[i].y, mit.trace.ego[i].y) << "sample " << i;
    ASSERT_EQ(plain.trace.ego[i].steer, mit.trace.ego[i].steer) << "sample " << i;
  }
  EXPECT_EQ(plain.completed, mit.completed);
  EXPECT_EQ(plain.duration.value(), mit.duration.value());
}

TEST(MitigationE2E, GovernorShapesCommandsUnderSustainedDelay) {
  // A constant 50 ms delay is invisible to the vehicle-side watchdog (the
  // command age stays far below the deadline) but the operator-side
  // estimator sees the RTT and the governor must degrade and intervene.
  auto run_with = [](bool enabled) {
    RunConfig rc;
    rc.run_id = enabled ? "gov" : "bare";
    rc.subject_id = "T6";
    rc.driver = make_roster()[5].driver;
    rc.seed = 606;
    rc.fault_injected = true;
    rc.mitigation.enabled = enabled;
    const auto scenario = sim::make_following_scenario();
    for (const auto& poi : scenario.pois) {
      rc.plan.push_back({poi.name, {net::FaultKind::kDelay, 50.0}});
    }
    TeleopSession session{std::move(rc), scenario};
    return session.run();
  };
  const RunResult r = run_with(true);
  ASSERT_TRUE(r.mitigation.enabled);
  EXPECT_GT(r.mitigation.dwell_degraded.value() +
                r.mitigation.dwell_impaired.value(),
            0.0);
  EXPECT_GT(r.mitigation.interventions, 0u);
  EXPECT_EQ(r.mitigation.mrm_activations, 0u);  // watchdog never trips
  EXPECT_TRUE(r.completed || r.timed_out);
}

}  // namespace
}  // namespace rdsim::core
