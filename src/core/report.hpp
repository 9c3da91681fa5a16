// Report builders: regenerate the paper's tables from a campaign result.
//
// Each render_* function returns the table as text; the *_rows/_summary
// functions expose the underlying numbers so tests and benches can assert
// on them. The mask_like_paper options blank exactly the cells the paper
// could not report due to data-collection mistakes (§VI.A), which makes
// side-by-side shape comparison easier.
#pragma once

#include "core/experiment.hpp"
#include "metrics/safety.hpp"
#include "metrics/srr.hpp"
#include "metrics/ttc.hpp"

namespace rdsim::core::report {

/// The Table II/III/IV column labels: net::paper_fault_model()'s labels, in
/// its order.
std::vector<std::string> fault_labels();

// ----- Table I: driving-station technical specification -----
std::string render_table1(const StationConfig& station);

// ----- Table II: summary of faults injected -----
struct FaultCountRow {
  std::string subject;
  std::map<std::string, int> counts;  ///< label -> injections
  int total{0};
};
std::vector<FaultCountRow> fault_count_rows(const CampaignResult& campaign);
std::string render_table2(const CampaignResult& campaign);

// ----- Table III: TTC statistics -----
struct TtcRow {
  std::string subject;
  std::optional<metrics::TtcStats> nfi;                         ///< golden run
  std::map<std::string, std::optional<metrics::TtcStats>> cells; ///< per label
};
std::vector<TtcRow> ttc_rows(const CampaignResult& campaign,
                             const metrics::TtcConfig& config = {});
std::string render_table3(const CampaignResult& campaign, bool mask_like_paper = false,
                          const metrics::TtcConfig& config = {});

// ----- Table IV: SRR statistics -----
struct SrrRow {
  std::string subject;
  std::optional<double> nfi;  ///< golden run, rev/min
  std::optional<double> fi;   ///< faulty run, whole
  std::map<std::string, std::optional<double>> cells;
  std::optional<double> avg;  ///< mean of the fault columns
};
std::vector<SrrRow> srr_rows(const CampaignResult& campaign,
                             const metrics::SrrConfig& config = {});
std::string render_table4(const CampaignResult& campaign, bool mask_like_paper = false,
                          const metrics::SrrConfig& config = {});

// ----- §VI.E collision analysis -----
struct CollisionSummary {
  std::size_t included_subjects{0};
  std::size_t golden_subjects_collided{0};
  std::size_t faulty_subjects_collided{0};
  std::size_t golden_total_collisions{0};
  std::size_t faulty_total_collisions{0};
  /// Collisions in the faulty runs by active-fault label ("none" possible).
  std::map<std::string, std::size_t> faulty_by_label;
};
CollisionSummary collision_summary(const CampaignResult& campaign);
std::string render_collision_analysis(const CampaignResult& campaign);

// ----- §VI.F questionnaire -----
std::string render_questionnaire(const CampaignResult& campaign);

// ----- mitigation outcome (rdsim::mitigate ablation) -----
/// Per-subject mitigation columns of the faulty (FI) run: governor state
/// dwell times, command interventions, and MRM episodes. Meaningful only
/// for campaigns run with ExperimentConfig::mitigation.enabled.
struct MitigationRow {
  std::string subject;
  units::Seconds dwell_nominal{};
  units::Seconds dwell_degraded{};
  units::Seconds dwell_impaired{};
  units::Seconds dwell_link_loss{};
  std::uint64_t interventions{0};
  std::uint64_t mrm_activations{0};
  units::Seconds mrm_time{};
  units::Seconds standstill{};  ///< metrics::standstill_time of the FI trace
  std::size_t collisions{0};    ///< FI-run collisions
};
std::vector<MitigationRow> mitigation_rows(const CampaignResult& campaign);
std::string render_mitigation(const CampaignResult& campaign);

/// Side-by-side safety outcome of a mitigated campaign and its unmitigated
/// twin (same seed => identical fault plans, so rows pair exactly).
std::string render_mitigation_ablation(const CampaignResult& baseline,
                                       const CampaignResult& mitigated);

/// The subjects whose steering (Table IV) / lead-velocity (Table III) data
/// the paper lost; used by the masking options.
bool paper_missing_srr(const std::string& subject, bool faulty_run);
bool paper_missing_ttc(const std::string& subject);

}  // namespace rdsim::core::report
