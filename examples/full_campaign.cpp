// Full §V test process: 12 subjects x (golden run + faulty run) with
// randomized fault plans, questionnaire collection, and every paper table
// printed at the end. Optionally dumps all raw traces as CSV.
//
//   usage: full_campaign [--dump-traces] [--workers N] [seed]
//
// --workers N runs the subjects on N threads (default 1; N=0 means hardware
// concurrency); the result — including the campaign hash printed at the
// end — is bit-identical at every worker count.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/campaign_hash.hpp"
#include "core/report.hpp"
#include "util/csv.hpp"

using namespace rdsim;

namespace {

int usage(const char* what, const char* arg) {
  std::fprintf(stderr,
               "full_campaign: bad %s '%s'\n"
               "usage: full_campaign [--dump-traces] [--workers N] [seed]\n",
               what, arg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool dump = false;
  std::size_t workers = 1;
  core::ExperimentConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-traces") == 0) {
      dump = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      const auto n = util::parse_number<std::size_t>(argv[++i]);
      if (!n) return usage("worker count", argv[i]);
      workers = *n;
    } else if (const auto seed = util::parse_number<std::uint64_t>(argv[i])) {
      cfg.seed = *seed;
    } else {
      return usage("seed", argv[i]);
    }
  }

  std::printf("running campaign (seed %llu): 12 subjects, golden + faulty runs%s...\n\n",
              static_cast<unsigned long long>(cfg.seed),
              workers != 1 ? " (parallel)" : "");
  const auto campaign = core::ExperimentHarness{cfg}.run_campaign(workers);

  std::fputs(core::report::render_table1(cfg.rds.station).c_str(), stdout);
  std::printf("\n");
  std::fputs(core::report::render_table2(campaign).c_str(), stdout);
  std::printf("\n");
  std::fputs(core::report::render_table3(campaign).c_str(), stdout);
  std::printf("\n");
  std::fputs(core::report::render_table4(campaign).c_str(), stdout);
  std::printf("\n");
  std::fputs(core::report::render_collision_analysis(campaign).c_str(), stdout);
  std::printf("\n");
  std::fputs(core::report::render_questionnaire(campaign).c_str(), stdout);

  if (dump) {
    for (const auto& subject : campaign.subjects) {
      for (const auto* run : {&subject.golden, &subject.faulty}) {
        const std::string stem = run->trace.run_id;
        std::ofstream ego{stem + "_ego.csv"};
        std::ofstream others{stem + "_others.csv"};
        std::ofstream events{stem + "_events.csv"};
        run->trace.write_csv(ego, others, events);
      }
    }
    std::printf("\nwrote 24 x 3 trace CSV files to the working directory\n");
  }
  std::printf("\ncampaign hash: %016llx\n",
              static_cast<unsigned long long>(check::campaign_hash(campaign)));
  return 0;
}
