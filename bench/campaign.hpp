// Shared helper for the table benches: the 12-subject campaign, computed at
// most once for the *whole bench suite*. The first binary to need it runs
// the campaign (on the parallel runner) and saves the serialized result to a
// fingerprint-keyed temp artifact; every later binary deserializes that blob
// and verifies its embedded campaign hash instead of paying the full
// simulation cost again. Delete the artifact (or set RDSIM_CAMPAIGN_CACHE to
// a fresh directory) to force a re-run.
//
// Set RDSIM_OBS=1 in the environment to run the campaign with an
// obs::CampaignCollector attached: a fresh run then also writes
// BENCH_obs.json and campaign_sample.trace.json next to the binary.
// Obs-instrumented artifacts are cache-keyed separately — the campaign bytes
// are identical, but a plain cache hit could not regenerate the obs side
// artifacts.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "core/campaign_hash.hpp"
#include "core/campaign_io.hpp"
#include "core/report.hpp"
#include "obs/report.hpp"

namespace bench_helper {

inline bool obs_requested() {
  const char* env = std::getenv("RDSIM_OBS");
  return env != nullptr && *env != '\0' && std::string_view{env} != "0";
}

inline const rdsim::core::CampaignResult& campaign() {
  static const rdsim::core::CampaignResult result = [] {
    const rdsim::core::ExperimentConfig config{};
    const bool with_obs = obs_requested();
    const std::string cache_path =
        rdsim::core::campaign_cache_path(config, with_obs);
    if (auto cached = rdsim::core::load_campaign(cache_path)) {
      std::printf("[campaign: cache hit %s, hash %016llx]\n\n", cache_path.c_str(),
                  static_cast<unsigned long long>(rdsim::check::campaign_hash(*cached)));
      return std::move(*cached);
    }
    const auto t0 = std::chrono::steady_clock::now();
    rdsim::core::ExperimentHarness harness{config};
    rdsim::obs::CampaignCollector collector;
    if (with_obs) harness.set_collector(&collector);
    auto r = harness.run_campaign_parallel(/*n_workers=*/0);
    const auto t1 = std::chrono::steady_clock::now();
    std::printf("[campaign: 12 subjects x (golden + faulty) in %.1f s wall, hash %016llx]\n",
                std::chrono::duration<double>(t1 - t0).count(),
                static_cast<unsigned long long>(rdsim::check::campaign_hash(r)));
    if (with_obs) {
      collector.write_report("BENCH_obs.json");
      collector.write_trace("campaign_sample.trace.json");
      std::printf("[campaign: obs report BENCH_obs.json, trace campaign_sample.trace.json]\n");
    }
    if (rdsim::core::save_campaign(cache_path, r)) {
      std::printf("[campaign: cached to %s]\n\n", cache_path.c_str());
    } else {
      std::printf("[campaign: could not write cache %s]\n\n", cache_path.c_str());
    }
    return r;
  }();
  return result;
}

}  // namespace bench_helper
