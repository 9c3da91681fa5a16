// Paired mitigation ablation, measured end-to-end on the full campaign.
//
// The paper's headline result is that crashes concentrate under 50 ms delay
// and 5 % packet loss; its setup deliberately ran without countermeasures.
// This bench runs the SAME campaign twice at the same seed — identical
// subjects, identical fault plans (the plan RNG stream is independent of
// mitigation) — once bare and once with the rdsim::mitigate stack enabled,
// and reports what the governor + MRM buy (collisions) and what they cost
// (steering-reversal rate, completion time, standstill time).
//
// Both campaigns run in this process through bench/campaign.hpp, whose header
// lines print each campaign's hash.
#include <cstdio>

#include "campaign.hpp"
#include "metrics/srr.hpp"

using namespace rdsim;

namespace {

core::CampaignResult mitigated_campaign() {
  core::ExperimentConfig config{};
  config.mitigation.enabled = true;
  return bench_helper::run_campaign("mitigated campaign", config);
}

double mean_fi_srr(const core::CampaignResult& campaign) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& row : core::report::srr_rows(campaign)) {
    if (row.fi.has_value()) {
      sum += *row.fi;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double total_standstill(const core::CampaignResult& campaign) {
  double sum = 0.0;
  for (const core::SubjectResult* s : campaign.included()) {
    sum += metrics::standstill_time(s->faulty.trace).value();
  }
  return sum;
}

}  // namespace

int main() {
  std::printf(
      "Mitigation ablation: paired campaigns at seed %llu. The mitigated twin\n"
      "runs the identical fault plans behind the LinkQualityEstimator ->\n"
      "DegradationGovernor -> CommandWatchdog/MRM stack. Question: does the\n"
      "stack recover the 50 ms / 5 %% crash cases, and at what cost?\n\n",
      static_cast<unsigned long long>(core::ExperimentConfig{}.seed));

  const core::CampaignResult& baseline = bench_helper::campaign();
  const core::CampaignResult mitigated = mitigated_campaign();

  std::printf("%s\n", core::report::render_mitigation_ablation(baseline, mitigated).c_str());
  std::printf("%s\n", core::report::render_mitigation(mitigated).c_str());

  std::printf("Cost metrics (FI runs, included subjects)\n");
  std::printf("  %-28s%-10.1f%.1f\n", "mean steering SRR [rev/min]",
              mean_fi_srr(baseline), mean_fi_srr(mitigated));
  std::printf("  %-28s%-10.1f%.1f\n", "total standstill time [s]",
              total_standstill(baseline), total_standstill(mitigated));
  return 0;
}
