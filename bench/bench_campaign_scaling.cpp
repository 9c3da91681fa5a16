// Campaign scaling bench: the campaign runner at 1/2/4/8 workers. Verifies
// that every worker count reproduces the 1-worker (serial) campaign_hash
// bit-for-bit (exits non-zero otherwise) and emits the measurements as
// BENCH_campaign.json.
//
// Also measures observability overhead: one more 1-worker campaign with an
// obs::CampaignCollector attached and every instrument live. The hash must
// still match (exit-code gated), and the wall-time delta against the plain
// 1-worker run is reported as overhead_pct in BENCH_obs.json, together with
// the collector's full metric report; the per-run trace goes to
// campaign_sample.trace.json.
//
//   usage: bench_campaign_scaling [--quick] [--out FILE] [seed]
//
// --quick caps each run at 20 simulated seconds — same code path, miniature
// cost — for CI artifact generation on small machines. Speedup is physically
// bounded by the host: on a single-core container every worker count
// measures ~1x; the ≥3x-at-8-workers target needs ≥8 hardware threads.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_hash.hpp"
#include "core/experiment.hpp"
#include "obs/report.hpp"
#include "util/csv.hpp"

using namespace rdsim;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point t0,
                    const std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg;
  std::string out_path = "BENCH_campaign.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.run_time_limit = units::Seconds{20.0};
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (const auto seed = util::parse_number<std::uint64_t>(argv[i])) {
      cfg.seed = *seed;
    } else {
      std::fprintf(stderr,
                   "bench_campaign_scaling: bad seed '%s'\n"
                   "usage: bench_campaign_scaling [--quick] [--out FILE] [seed]\n",
                   argv[i]);
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("campaign scaling: seed %llu, %s route, %u hardware thread(s)\n",
              static_cast<unsigned long long>(cfg.seed),
              cfg.run_time_limit > units::Seconds{0.0} ? "capped" : "full", hw);

  const core::ExperimentHarness harness{cfg};

  struct Row {
    std::size_t workers;
    double wall_s;
    double speedup;
    std::uint64_t hash;
    bool bit_identical;
  };
  std::vector<Row> rows;
  bool all_identical = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::CampaignResult campaign = harness.run_campaign(workers);
    const auto t1 = std::chrono::steady_clock::now();
    Row row;
    row.workers = workers;
    row.wall_s = wall_seconds(t0, t1);
    row.hash = check::campaign_hash(campaign);
    // The first row is the serial baseline the others are measured against.
    const Row& serial = rows.empty() ? row : rows.front();
    row.speedup = row.wall_s > 0.0 ? serial.wall_s / row.wall_s : 0.0;
    row.bit_identical = row.hash == serial.hash;
    all_identical = all_identical && row.bit_identical;
    std::printf("  %2zu worker(s): %7.2f s   hash %016llx   speedup %.2fx   %s\n",
                row.workers, row.wall_s, static_cast<unsigned long long>(row.hash),
                row.speedup, row.bit_identical ? "bit-identical" : "HASH MISMATCH");
    rows.push_back(row);
  }
  const double serial_s = rows.front().wall_s;
  const std::uint64_t serial_hash = rows.front().hash;

  // Observability overhead: one worker again, collector attached.
  core::ExperimentHarness obs_harness{cfg};
  obs::CampaignCollector collector;
  obs_harness.set_collector(&collector);
  const auto o0 = std::chrono::steady_clock::now();
  const core::CampaignResult observed = obs_harness.run_campaign();
  const auto o1 = std::chrono::steady_clock::now();
  const double obs_s = wall_seconds(o0, o1);
  const std::uint64_t obs_hash = check::campaign_hash(observed);
  const bool obs_identical = obs_hash == serial_hash;
  const double overhead_pct =
      serial_s > 0.0 ? 100.0 * (obs_s - serial_s) / serial_s : 0.0;
  std::printf("  obs enabled : %7.2f s   hash %016llx   overhead %+.1f%%   %s\n",
              obs_s, static_cast<unsigned long long>(obs_hash), overhead_pct,
              obs_identical ? "bit-identical" : "HASH MISMATCH");

  std::ofstream json{out_path, std::ios::trunc};
  json << "{\n"
       << "  \"bench\": \"campaign_scaling\",\n"
       << "  \"seed\": " << cfg.seed << ",\n"
       << "  \"subjects\": " << observed.subjects.size() << ",\n"
       << "  \"run_time_limit\": " << cfg.run_time_limit.value() << ",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n";
  char hash_buf[32];
  std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                static_cast<unsigned long long>(serial_hash));
  json << "  \"campaign_hash\": \"" << hash_buf << "\",\n"
       << "  \"workers\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::snprintf(hash_buf, sizeof hash_buf, "%016llx",
                  static_cast<unsigned long long>(row.hash));
    json << "    { \"workers\": " << row.workers << ", \"wall_s\": " << row.wall_s
         << ", \"speedup\": " << row.speedup << ", \"campaign_hash\": \"" << hash_buf
         << "\", \"bit_identical\": " << (row.bit_identical ? "true" : "false")
         << " }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  {
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(obs_hash));
    std::ofstream obs_json{"BENCH_obs.json", std::ios::trunc};
    obs_json << "{\n"
             << "  \"bench\": \"campaign_obs_overhead\",\n"
             << "  \"seed\": " << cfg.seed << ",\n"
             << "  \"baseline_wall_s\": " << serial_s << ",\n"
             << "  \"obs_wall_s\": " << obs_s << ",\n"
             << "  \"overhead_pct\": " << overhead_pct << ",\n"
             << "  \"campaign_hash\": \"" << hash_hex << "\",\n"
             << "  \"bit_identical\": " << (obs_identical ? "true" : "false")
             << ",\n"
             << "  \"report\": " << collector.report_json() << "}\n";
    collector.write_trace("campaign_sample.trace.json");
    std::printf("wrote BENCH_obs.json and campaign_sample.trace.json\n");
  }

  if (!all_identical || !obs_identical) {
    std::fprintf(stderr, "FAIL: campaign hash diverged from serial baseline\n");
    return 1;
  }
  return 0;
}
