#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "check/replay.hpp"
#include "net/fault_injector.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "sim/scenario.hpp"
#include "util/parallel_for.hpp"

namespace rdsim::core {

std::vector<const SubjectResult*> CampaignResult::included() const {
  std::vector<const SubjectResult*> out;
  for (const SubjectResult& s : subjects) {
    if (!s.profile.excluded()) out.push_back(&s);
  }
  return out;
}

std::optional<std::string> ExperimentConfig::validate() const {
  const std::size_t n_faults = net::paper_fault_model().size();
  if (fault_weights.size() != n_faults) {
    return "ExperimentConfig.fault_weights must hold " + std::to_string(n_faults) +
           " weights, one per paper fault, not " + std::to_string(fault_weights.size());
  }
  double sum = 0.0;
  for (const double w : fault_weights) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      return "ExperimentConfig.fault_weights must be finite and >= 0";
    }
    sum += w;
  }
  if (!(sum > 0.0)) return "ExperimentConfig.fault_weights must have a positive sum";
  if (!(poi_fault_probability >= 0.0 && poi_fault_probability <= 1.0)) {
    return "ExperimentConfig.poi_fault_probability must be in [0, 1]";
  }
  if (!(std::isfinite(run_time_limit.value()) && run_time_limit.value() >= 0.0)) {
    return "ExperimentConfig.run_time_limit must be finite and >= 0";
  }
  return rds.validate();
}

namespace {

/// Rejects a configuration that cannot run before the harness keeps it.
ExperimentConfig validated(ExperimentConfig config) {
  if (auto error = config.validate()) throw std::invalid_argument{*error};
  return config;
}

}  // namespace

ExperimentHarness::ExperimentHarness(ExperimentConfig config)
    : config_{validated(std::move(config))} {}

std::vector<FaultAssignment> ExperimentHarness::make_fault_plan(
    const sim::Scenario& scenario, util::Random& rng) const {
  const std::vector<net::FaultSpec> model = net::paper_fault_model();
  std::vector<FaultAssignment> plan;
  for (const sim::PoiWindow& poi : scenario.pois) {
    if (!rng.bernoulli(config_.poi_fault_probability)) continue;
    const std::size_t pick = rng.weighted_index(config_.fault_weights);
    plan.push_back({poi.name, model[pick]});
  }
  return plan;
}

sim::Scenario ExperimentHarness::make_run_scenario() const {
  sim::Scenario scenario = sim::make_test_route_scenario();
  if (config_.run_time_limit > units::Seconds{}) {
    scenario.time_limit = std::min(scenario.time_limit, config_.run_time_limit);
  }
  return scenario;
}

RunResult ExperimentHarness::run_one(const SubjectProfile& profile, bool faulty,
                                     check::ReplayRecorder* replay,
                                     util::Random& plan_rng) const {
  RunConfig rc;
  rc.run_id = profile.id + (faulty ? "-FI" : "-NFI");
  rc.subject_id = profile.id;
  rc.fault_injected = faulty;
  rc.rds = config_.rds;
  rc.safety = config_.safety;
  rc.driver = profile.driver;
  rc.mitigation = config_.mitigation;
  rc.seed = util::splitmix64(
      profile.seed ^ (faulty ? 0xc2b2ae3d27d4eb4fULL : 0x9e3779b97f4a7c15ULL));
  rc.replay = replay;
  sim::Scenario scenario = make_run_scenario();
  // Faulty run: randomized plan over the points of interest.
  if (faulty) rc.plan = make_fault_plan(scenario, plan_rng);
  const std::string run_id = rc.run_id;
  TeleopSession session{std::move(rc), std::move(scenario)};
  // One obs context per run, installed thread-locally for the duration:
  // whichever thread runs this subject accumulates into it, and
  // the collector merges finished runs in run-id order.
  obs::Context obs_ctx;
  RunResult result;
  {
    obs::ContextScope obs_scope{collector_ != nullptr ? &obs_ctx : nullptr};
    obs::Stopwatch stopwatch;
    result = session.run();
    stopwatch.lap(obs::metric::kRunWall);
  }
  if (collector_ != nullptr) collector_->submit_run(run_id, std::move(obs_ctx));
  return result;
}

SubjectResult ExperimentHarness::run_subject(const SubjectProfile& profile,
                                             check::ReplayRecorder* golden_replay,
                                             check::ReplayRecorder* faulty_replay) const {
  SubjectResult result;
  result.profile = profile;
  // All streams below are SplitMix-derived from (profile seed, purpose), so a
  // subject's result depends on nothing outside its own profile — required
  // for run_campaign to be bit-identical at every worker count. The plan
  // stream is drawn by the faulty run, then by the questionnaire.
  util::Random rng{profile.seed, /*stream=*/0x706c616eULL};
  // Golden run (§V.E.2): baseline reference of the subject's behaviour.
  result.golden = run_one(profile, /*faulty=*/false, golden_replay, rng);
  result.faulty = run_one(profile, /*faulty=*/true, faulty_replay, rng);
  result.questionnaire = make_questionnaire(profile, result.faulty, rng);
  return result;
}

QuestionnaireResponse ExperimentHarness::make_questionnaire(
    const SubjectProfile& profile, const RunResult& faulty, util::Random& rng) const {
  QuestionnaireResponse q;
  q.subject = profile.id;
  q.q1_gaming = profile.gaming_experience;
  q.q1_recent = profile.recent_gaming;
  q.q2_racing = profile.racing_game_experience;
  q.q3_station_experience = profile.station_experience;
  // Subjects reported integer scores; the measured QoE drives the answer.
  q.q4_qoe = std::round(faulty.qoe.score());
  q.q5_virtual_testing_useful = true;  // unanimous in §VI.F
  // Whether the subject consciously noticed the faults: more freeze time
  // makes the disturbance more noticeable; perceptive (skilled) subjects
  // notice more. ~5/11 reported noticing in the paper.
  const double noticeability =
      0.08 + 3.5 * faulty.qoe.frozen_fraction() +
      (profile.recent_gaming ? 0.15 : 0.0) + 0.04 * profile.station_experience;
  q.q6_felt_difference = rng.bernoulli(util::clamp(noticeability, 0.0, 0.9));
  return q;
}

CampaignResult ExperimentHarness::run_campaign(std::size_t n_workers) const {
  CampaignResult out;
  out.config = config_;
  const std::vector<SubjectProfile> roster = make_roster(config_.seed);
  out.subjects.resize(roster.size());
  // Each index writes only its own slot, so results come back in subject
  // order whichever thread runs which subject.
  util::parallel_for(roster.size(), n_workers, [&](std::size_t i) {
    out.subjects[i] = run_subject(roster[i]);
  });
  return out;
}

}  // namespace rdsim::core
