// Known-answer oracle for the campaign and frame hashes.
//
// The golden corpus leaves many fields zero or equal to a neighbour, so a
// fold that swaps two same-typed fields, drops a marker or changes a width
// can still reproduce it. Here every hashed field holds a distinct value:
// counters distinct and non-zero, bools alternating, every vector two or
// more elements long, one run with mitigation enabled and one disabled, and
// a config with the mitigation block enabled. The pinned digests then fail
// on any change to the byte stream the hashes fold.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/frame_hash.hpp"
#include "core/campaign_hash.hpp"
#include "core/experiment.hpp"

namespace rdsim::core {
namespace {

/// Hands out a fresh value on every call, from one shared counter, so no two
/// fields of the fixture ever hold the same number.
class Distinct {
 public:
  double f() { return static_cast<double>(++k_) + 0.25; }
  int i() { return static_cast<int>(++k_); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(++k_); }
  std::uint64_t u64() { return 1000003ULL * ++k_; }
  std::size_t sz() { return static_cast<std::size_t>(++k_); }
  bool b() { return flip_ = !flip_; }
  std::string s() { return "s" + std::to_string(++k_); }
  units::Seconds sec() { return units::Seconds{f()}; }
  units::Millis ms() { return units::Millis{f()}; }
  units::MetersPerSecond mps() { return units::MetersPerSecond{f()}; }
  units::MetersPerSecond2 mps2() { return units::MetersPerSecond2{f()}; }

 private:
  std::uint64_t k_{0};
  bool flip_{false};
};

DriverParams make_driver(Distinct& v) {
  DriverParams d;
  d.reaction_time_s = v.f();
  d.prediction_gain = v.f();
  d.neuromuscular_tau_s = v.f();
  d.wheel_rate_limit = v.f();
  d.steer_noise = v.f();
  d.noise_tau_s = v.f();
  d.steer_deadzone = v.f();
  d.control_rate_hz = v.f();
  d.lookahead_time_s = v.f();
  d.manoeuvre_lookahead_s = v.f();
  d.min_lookahead_m = v.f();
  d.near_gain = v.f();
  d.near_lead_s = v.f();
  d.startle_threshold_s = v.f();
  d.startle_duration_s = v.f();
  d.startle_gain = v.f();
  d.startle_noise_mult = v.f();
  d.idm_time_headway_s = v.f();
  d.idm_max_accel = v.f();
  d.idm_comfort_brake = v.f();
  d.idm_min_gap_m = v.f();
  d.emergency_ttc_s = v.f();
  d.position_noise_m = v.f();
  d.staleness_noise_gain = v.f();
  d.position_noise_tau_s = v.f();
  d.startle_jump_prob = v.f();
  d.startle_jump_m_per_s = v.f();
  d.vehicle_wheelbase_m = v.f();
  d.vehicle_max_steer_deg = v.f();
  d.speed_compliance = v.f();
  d.freeze_caution_s = v.f();
  d.caution_gain = v.f();
  d.mirrored_steering = v.b();
  return d;
}

SubjectProfile make_profile(Distinct& v) {
  SubjectProfile p;
  p.id = v.s();
  p.index = v.i();
  p.driver = make_driver(v);
  p.seed = v.u64();
  p.gaming_experience = v.b();
  p.recent_gaming = v.b();
  p.racing_game_experience = v.b();
  p.station_experience = v.i();
  p.left_hand_driving = v.b();
  return p;
}

net::StreamStats make_stream_stats(Distinct& v) {
  net::StreamStats s;
  s.messages_sent = v.u64();
  s.messages_delivered = v.u64();
  s.segments_sent = v.u64();
  s.retransmits_rto = v.u64();
  s.retransmits_fast = v.u64();
  s.acks_sent = v.u64();
  s.dup_acks_seen = v.u64();
  s.stale_segments = v.u64();
  s.srtt = v.ms();
  s.rto = v.ms();
  return s;
}

trace::RunTrace make_trace(Distinct& v) {
  trace::RunTrace t;
  t.run_id = v.s();
  t.subject = v.s();
  t.fault_injected_run = v.b();
  for (int n = 0; n < 2; ++n) {
    trace::EgoSample e;
    e.t = v.f();
    e.frame = v.u32();
    e.x = v.f();
    e.y = v.f();
    e.z = v.f();
    e.vx = v.f();
    e.vy = v.f();
    e.vz = v.f();
    e.ax = v.f();
    e.ay = v.f();
    e.az = v.f();
    e.throttle = v.f();
    e.steer = v.f();
    e.brake = v.f();
    t.ego.push_back(e);

    trace::OtherSample o;
    o.actor = v.u32();
    o.role = v.s();
    o.t = v.f();
    o.distance = v.f();
    o.x = v.f();
    o.y = v.f();
    o.z = v.f();
    o.vx = v.f();
    o.vy = v.f();
    o.vz = v.f();
    o.throttle = v.f();
    o.steer = v.f();
    o.brake = v.f();
    t.others.push_back(o);

    trace::CollisionRecord c;
    c.t = v.f();
    c.frame = v.u32();
    c.other = v.u32();
    c.other_kind = v.s();
    c.relative_speed = v.f();
    t.collisions.push_back(c);

    trace::LaneInvasionRecord l;
    l.t = v.f();
    l.frame = v.u32();
    l.marking = v.s();
    l.from_lane = v.i();
    l.to_lane = v.i();
    t.lane_invasions.push_back(l);

    trace::FaultRecord f;
    f.t = v.f();
    f.fault_type = v.s();
    f.value = v.f();
    f.added = v.b();
    f.label = v.s();
    t.faults.push_back(f);
  }
  return t;
}

mitigate::MitigationSummary make_summary(Distinct& v) {
  mitigate::MitigationSummary m;
  m.enabled = true;
  m.dwell_nominal = v.sec();
  m.dwell_degraded = v.sec();
  m.dwell_impaired = v.sec();
  m.dwell_link_loss = v.sec();
  m.transitions = v.u64();
  m.interventions = v.u64();
  m.watchdog_firings = v.u64();
  m.mrm_activations = v.u64();
  m.mrm_time = v.sec();
  m.mrm_standstill = v.b();
  m.final_rtt = v.ms();
  m.final_loss = v.f();
  return m;
}

RunResult make_run(Distinct& v, bool mitigated) {
  RunResult r;
  r.trace = make_trace(v);
  r.qoe.watch_time = v.sec();
  r.qoe.frozen_time = v.sec();
  r.qoe.freeze_episodes = v.sz();
  r.qoe.longest_freeze = v.sec();
  r.qoe.staleness_sum = v.sec();
  r.qoe.staleness_samples = v.sz();
  r.completed = v.b();
  r.timed_out = v.b();
  r.duration = v.sec();
  r.video_stats = make_stream_stats(v);
  r.command_stats = make_stream_stats(v);
  r.mean_downlink_latency = v.ms();
  r.mean_uplink_latency = v.ms();
  r.frames_encoded = v.u64();
  r.frames_displayed = v.u64();
  r.frames_skipped_sender = v.u64();
  r.safety_activations = v.u64();
  r.faults_injected = v.sz();
  if (mitigated) r.mitigation = make_summary(v);
  return r;
}

QuestionnaireResponse make_questionnaire(Distinct& v) {
  QuestionnaireResponse q;
  q.subject = v.s();
  q.q1_gaming = v.b();
  q.q1_recent = v.b();
  q.q2_racing = v.b();
  q.q3_station_experience = v.i();
  q.q4_qoe = v.f();
  q.q5_virtual_testing_useful = v.b();
  q.q6_felt_difference = v.b();
  return q;
}

SubjectResult make_subject(Distinct& v) {
  SubjectResult s;
  s.profile = make_profile(v);
  s.golden = make_run(v, /*mitigated=*/false);
  s.faulty = make_run(v, /*mitigated=*/true);
  s.questionnaire = make_questionnaire(v);
  return s;
}

mitigate::StateLimits make_limits(Distinct& v) {
  return {v.mps(), v.f(), v.f()};
}

mitigate::MitigationConfig make_mitigation_config(Distinct& v) {
  mitigate::MitigationConfig m;
  m.enabled = true;
  m.estimator.update_period = v.sec();
  m.estimator.rtt_alpha = v.f();
  m.estimator.loss_alpha = v.f();
  m.governor.degraded_rtt = v.ms();
  m.governor.degraded_loss = v.f();
  m.governor.degraded_staleness = v.sec();
  m.governor.impaired_rtt = v.ms();
  m.governor.impaired_loss = v.f();
  m.governor.impaired_staleness = v.sec();
  m.governor.link_loss_staleness = v.sec();
  m.governor.exit_margin = v.f();
  m.governor.min_dwell = v.sec();
  m.governor.degraded = make_limits(v);
  m.governor.impaired = make_limits(v);
  m.governor.link_loss = make_limits(v);
  m.watchdog.deadline = v.sec();
  m.watchdog.recover_age = v.sec();
  m.watchdog.decel = v.mps2();
  m.watchdog.lane_gain = v.f();
  m.watchdog.heading_gain = v.f();
  m.watchdog.max_steer = v.f();
  m.watchdog.standstill = v.mps();
  m.watchdog.hold_brake = v.f();
  return m;
}

CampaignResult make_campaign() {
  Distinct v;
  CampaignResult c;
  c.config.seed = v.u64();
  c.config.poi_fault_probability = v.f();
  c.config.fault_weights = {v.f(), v.f(), v.f()};
  c.config.run_time_limit = v.sec();
  c.config.mitigation = make_mitigation_config(v);
  c.subjects.push_back(make_subject(v));
  c.subjects.push_back(make_subject(v));
  return c;
}

sim::ActorSnapshot make_actor(Distinct& v, sim::ActorKind kind) {
  sim::ActorSnapshot a;
  a.id = v.u32();
  a.kind = kind;
  a.state.position = {v.f(), v.f()};
  a.state.z = v.f();
  a.state.heading = v.f();
  a.state.velocity = {v.f(), v.f()};
  a.state.accel = {v.f(), v.f()};
  a.bbox.half_length = v.f();
  a.bbox.half_width = v.f();
  a.control.throttle = v.f();
  a.control.steer = v.f();
  a.control.brake = v.f();
  a.control.reverse = v.b();
  a.control.hand_brake = v.b();
  return a;
}

sim::WorldFrame make_frame() {
  Distinct v;
  sim::WorldFrame frame;
  frame.frame_id = v.u32();
  frame.sim_time_us = v.i();
  frame.ego = make_actor(v, sim::ActorKind::kVehicle);
  frame.others.push_back(make_actor(v, sim::ActorKind::kCyclist));
  frame.others.push_back(make_actor(v, sim::ActorKind::kWalker));
  frame.weather.night = v.b();
  frame.weather.fog_density = v.f();
  return frame;
}

TEST(CampaignHash, KnownAnswerOverDistinctFieldValues) {
  const CampaignResult campaign = make_campaign();
  const SubjectResult& subject = campaign.subjects[1];
  ASSERT_FALSE(subject.golden.mitigation.enabled);
  ASSERT_TRUE(subject.faulty.mitigation.enabled);

  EXPECT_EQ(check::hash_run(subject.golden), 0xaa0d71341ad6e302ULL);
  EXPECT_EQ(check::hash_run(subject.faulty), 0xafcd9d4c965c5226ULL);
  EXPECT_EQ(check::hash_subject(subject), 0x33def48d141cea11ULL);
  EXPECT_EQ(check::campaign_hash(campaign), 0x6b5714062834d4c5ULL);
  EXPECT_EQ(check::hash_frame(make_frame()), 0xaf7e1bea67f8192aULL);
}

}  // namespace
}  // namespace rdsim::core
