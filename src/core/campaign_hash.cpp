#include "core/campaign_hash.hpp"

#include <string>
#include <vector>

#include "check/hash.hpp"
#include "mitigate/mitigation.hpp"
#include "net/transport.hpp"
#include "trace/trace.hpp"
#include "util/units.hpp"

namespace rdsim::check {

// One fold() per hashed struct. Each opens with a structured binding that
// names every member, so adding a member to a struct breaks the build here
// until its fold decides what to do with it. The members then fold in
// declaration order, each by the rule for its type below.
namespace {

void fold(Fnv1a& h, bool v) { h.boolean(v); }
void fold(Fnv1a& h, int v) { h.i64(v); }
void fold(Fnv1a& h, std::uint32_t v) { h.u32(v); }
void fold(Fnv1a& h, std::uint64_t v) { h.u64(v); }  // std::size_t too
void fold(Fnv1a& h, double v) { h.f64(v); }
void fold(Fnv1a& h, const std::string& v) { h.str(v); }

template <typename Q>
void fold(Fnv1a& h, const units::QuantityBase<Q>& v) {
  h.f64(v.value());
}

// Defined at the end of this namespace, after every overload their calls
// may resolve to.
template <typename T>
void fold(Fnv1a& h, const std::vector<T>& v);
template <typename... Ts>
void fold_all(Fnv1a& h, const Ts&... members);

void fold(Fnv1a& h, const core::DriverParams& v) {
  const auto& [reaction_time_s, prediction_gain, neuromuscular_tau_s, wheel_rate_limit,
               steer_noise, noise_tau_s, steer_deadzone, control_rate_hz,
               lookahead_time_s, manoeuvre_lookahead_s, min_lookahead_m, near_gain,
               near_lead_s, startle_threshold_s, startle_duration_s, startle_gain,
               startle_noise_mult, idm_time_headway_s, idm_max_accel, idm_comfort_brake,
               idm_min_gap_m, emergency_ttc_s, position_noise_m, staleness_noise_gain,
               position_noise_tau_s, startle_jump_prob, startle_jump_m_per_s,
               vehicle_wheelbase_m, vehicle_max_steer_deg, speed_compliance,
               freeze_caution_s, caution_gain, mirrored_steering] = v;
  fold_all(h, reaction_time_s, prediction_gain, neuromuscular_tau_s, wheel_rate_limit,
           steer_noise, noise_tau_s, steer_deadzone, control_rate_hz, lookahead_time_s,
           manoeuvre_lookahead_s, min_lookahead_m, near_gain, near_lead_s,
           startle_threshold_s, startle_duration_s, startle_gain, startle_noise_mult,
           idm_time_headway_s, idm_max_accel, idm_comfort_brake, idm_min_gap_m,
           emergency_ttc_s, position_noise_m, staleness_noise_gain, position_noise_tau_s,
           startle_jump_prob, startle_jump_m_per_s, vehicle_wheelbase_m,
           vehicle_max_steer_deg, speed_compliance, freeze_caution_s, caution_gain,
           mirrored_steering);
}

void fold(Fnv1a& h, const core::SubjectProfile& v) {
  const auto& [id, index, driver, seed, gaming_experience, recent_gaming,
               racing_game_experience, station_experience, left_hand_driving] = v;
  fold_all(h, id, index, driver, seed, gaming_experience, recent_gaming,
           racing_game_experience, station_experience, left_hand_driving);
}

void fold(Fnv1a& h, const core::QoeStats& v) {
  const auto& [watch_time, frozen_time, freeze_episodes, longest_freeze, staleness_sum,
               staleness_samples] = v;
  fold_all(h, watch_time, frozen_time, freeze_episodes, longest_freeze, staleness_sum,
           staleness_samples);
}

void fold(Fnv1a& h, const net::StreamStats& v) {
  const auto& [messages_sent, messages_delivered, segments_sent, retransmits_rto,
               retransmits_fast, acks_sent, dup_acks_seen, stale_segments, srtt, rto] = v;
  fold_all(h, messages_sent, messages_delivered, segments_sent, retransmits_rto,
           retransmits_fast, acks_sent, dup_acks_seen, stale_segments, srtt, rto);
}

void fold(Fnv1a& h, const trace::EgoSample& v) {
  const auto& [t, frame, x, y, z, vx, vy, vz, ax, ay, az, throttle, steer, brake] = v;
  fold_all(h, t, frame, x, y, z, vx, vy, vz, ax, ay, az, throttle, steer, brake);
}

void fold(Fnv1a& h, const trace::OtherSample& v) {
  const auto& [actor, role, t, distance, x, y, z, vx, vy, vz, throttle, steer, brake] = v;
  fold_all(h, actor, role, t, distance, x, y, z, vx, vy, vz, throttle, steer, brake);
}

void fold(Fnv1a& h, const trace::CollisionRecord& v) {
  const auto& [t, frame, other, other_kind, relative_speed] = v;
  fold_all(h, t, frame, other, other_kind, relative_speed);
}

void fold(Fnv1a& h, const trace::LaneInvasionRecord& v) {
  const auto& [t, frame, marking, from_lane, to_lane] = v;
  fold_all(h, t, frame, marking, from_lane, to_lane);
}

void fold(Fnv1a& h, const trace::FaultRecord& v) {
  const auto& [t, fault_type, value, added, label] = v;
  fold_all(h, t, fault_type, value, added, label);
}

void fold(Fnv1a& h, const trace::RunTrace& v) {
  const auto& [run_id, subject, fault_injected_run, ego, others, collisions,
               lane_invasions, faults] = v;
  fold_all(h, run_id, subject, fault_injected_run, ego, others, collisions,
           lane_invasions, faults);
}

// The mitigation blocks fold nothing at all while disabled, so a run or
// campaign without mitigation hashes exactly as it did before the subsystem
// existed. Enabled, they fold the flag first, so an enabled block of zeros
// cannot collide with a disabled one.
void fold(Fnv1a& h, const mitigate::MitigationSummary& v) {
  const auto& [enabled, dwell_nominal, dwell_degraded, dwell_impaired, dwell_link_loss,
               transitions, interventions, watchdog_firings, mrm_activations, mrm_time,
               mrm_standstill, final_rtt, final_loss] = v;
  if (!enabled) return;
  h.boolean(true);
  fold_all(h, dwell_nominal, dwell_degraded, dwell_impaired, dwell_link_loss, transitions,
           interventions, watchdog_firings, mrm_activations, mrm_time, mrm_standstill,
           final_rtt, final_loss);
}

void fold(Fnv1a& h, const mitigate::EstimatorConfig& v) {
  const auto& [update_period, rtt_alpha, loss_alpha] = v;
  fold_all(h, update_period, rtt_alpha, loss_alpha);
}

void fold(Fnv1a& h, const mitigate::StateLimits& v) {
  const auto& [speed_cap, steer_rate_limit, throttle_scale] = v;
  fold_all(h, speed_cap, steer_rate_limit, throttle_scale);
}

void fold(Fnv1a& h, const mitigate::GovernorConfig& v) {
  const auto& [degraded_rtt, degraded_loss, degraded_staleness, impaired_rtt,
               impaired_loss, impaired_staleness, link_loss_staleness, exit_margin,
               min_dwell, degraded, impaired, link_loss] = v;
  fold_all(h, degraded_rtt, degraded_loss, degraded_staleness, impaired_rtt,
           impaired_loss, impaired_staleness, link_loss_staleness, exit_margin, min_dwell,
           degraded, impaired, link_loss);
}

void fold(Fnv1a& h, const mitigate::WatchdogConfig& v) {
  const auto& [deadline, recover_age, decel, lane_gain, heading_gain, max_steer,
               standstill, hold_brake] = v;
  fold_all(h, deadline, recover_age, decel, lane_gain, heading_gain, max_steer,
           standstill, hold_brake);
}

void fold(Fnv1a& h, const mitigate::MitigationConfig& v) {
  const auto& [enabled, estimator, governor, watchdog] = v;
  if (!enabled) return;
  h.boolean(true);
  fold_all(h, estimator, governor, watchdog);
}

void fold(Fnv1a& h, const core::RunResult& v) {
  const auto& [trace, qoe, completed, timed_out, duration, video_stats, command_stats,
               mean_downlink_latency, mean_uplink_latency, frames_encoded,
               frames_displayed, frames_skipped_sender, safety_activations,
               faults_injected, mitigation] = v;
  fold_all(h, trace, qoe, completed, timed_out, duration, video_stats, command_stats,
           mean_downlink_latency, mean_uplink_latency, frames_encoded, frames_displayed,
           frames_skipped_sender, safety_activations, faults_injected, mitigation);
}

void fold(Fnv1a& h, const core::QuestionnaireResponse& v) {
  const auto& [subject, q1_gaming, q1_recent, q2_racing, q3_station_experience, q4_qoe,
               q5_virtual_testing_useful, q6_felt_difference] = v;
  fold_all(h, subject, q1_gaming, q1_recent, q2_racing, q3_station_experience, q4_qoe,
           q5_virtual_testing_useful, q6_felt_difference);
}

void fold(Fnv1a& h, const core::SubjectResult& v) {
  const auto& [profile, golden, faulty, questionnaire] = v;
  fold_all(h, profile, golden, faulty, questionnaire);
}

void fold(Fnv1a& h, const core::ExperimentConfig& v) {
  // rds and safety predate the hash: folding them would move every golden
  // hash. Their effect on a campaign is still hashed, through the runs.
  const auto& [seed, rds, safety, poi_fault_probability, fault_weights, run_time_limit,
               mitigation] = v;
  fold_all(h, seed, poi_fault_probability, fault_weights, run_time_limit, mitigation);
}

void fold(Fnv1a& h, const core::CampaignResult& v) {
  const auto& [config, subjects] = v;
  fold_all(h, config, subjects);
}

template <typename T>
void fold(Fnv1a& h, const std::vector<T>& v) {
  h.u64(v.size());
  for (const T& e : v) fold(h, e);
}

template <typename... Ts>
void fold_all(Fnv1a& h, const Ts&... members) {
  (fold(h, members), ...);
}

template <typename T>
std::uint64_t digest_of(const T& v) {
  Fnv1a h;
  fold(h, v);
  return h.digest();
}

}  // namespace

std::uint64_t hash_run(const core::RunResult& run) { return digest_of(run); }

std::uint64_t hash_subject(const core::SubjectResult& subject) {
  return digest_of(subject);
}

std::uint64_t campaign_hash(const core::CampaignResult& campaign) {
  return digest_of(campaign);
}

}  // namespace rdsim::check
