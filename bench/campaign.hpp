// Shared helper for the table benches: each binary runs the campaign it
// reports in its own process, on every hardware thread, and prints one
// header line with the wall time and the campaign hash.
#pragma once

#include <chrono>
#include <cstdio>

#include "core/campaign_hash.hpp"
#include "core/report.hpp"

namespace bench_helper {

inline rdsim::core::CampaignResult run_campaign(const char* label,
                                                const rdsim::core::ExperimentConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  auto r = rdsim::core::ExperimentHarness{config}.run_campaign(/*n_workers=*/0);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("[%s: 12 subjects x (golden + faulty) in %.1f s wall, hash %016llx]\n\n", label,
              std::chrono::duration<double>(t1 - t0).count(),
              static_cast<unsigned long long>(rdsim::check::campaign_hash(r)));
  return r;
}

/// The default seed-14 campaign, run once per process.
inline const rdsim::core::CampaignResult& campaign() {
  static const rdsim::core::CampaignResult result =
      run_campaign("campaign", rdsim::core::ExperimentConfig{});
  return result;
}

}  // namespace bench_helper
