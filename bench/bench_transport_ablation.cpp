// Ablation of DESIGN.md decision #1: TCP-like reliable transport (as the
// paper's CARLA setup uses) versus latest-wins UDP-style datagrams (as many
// production teleoperation stacks use). Under loss, TCP stalls and freezes;
// UDP drops frames but never blocks — the fault *symptom* changes even
// though the injected fault is identical. The last line is a hash over every
// reported run, in print order.
#include <cstdio>

#include "check/hash.hpp"
#include "core/campaign_hash.hpp"
#include "core/teleop.hpp"
#include "metrics/srr.hpp"

using namespace rdsim;

namespace {

void run_case(const char* transport, bool datagram, net::FaultSpec fault,
              check::Fnv1a& runs_hash) {
  core::RunConfig rc;
  rc.run_id = "ablation";
  rc.subject_id = "T5";
  rc.driver = core::make_roster()[4].driver;
  rc.seed = 4242;
  rc.rds.datagram_video = datagram;
  rc.rds.datagram_commands = datagram;
  const auto scenario = sim::make_following_scenario();
  if (fault.kind != net::FaultKind::kNone) {
    rc.fault_injected = true;
    for (const auto& poi : scenario.pois) rc.plan.push_back({poi.name, fault});
  }
  core::TeleopSession session{std::move(rc), scenario};
  const auto r = session.run();
  runs_hash.u64(check::hash_run(r));
  metrics::SrrAnalyzer srr;
  std::printf("%-10s %-10s: frames %4llu/%-4llu frozen %5.1f%% longest %4.0fms "
              "SRR %5.1f qoe %.1f crash %zu\n",
              transport,
              fault.kind == net::FaultKind::kNone ? "none" : fault.label().c_str(),
              static_cast<unsigned long long>(r.frames_displayed),
              static_cast<unsigned long long>(r.frames_encoded),
              100.0 * r.qoe.frozen_fraction(), r.qoe.longest_freeze.value() * 1e3,
              srr.analyze(r.trace).rate_per_min, r.qoe.score(),
              r.trace.collisions.size());
}

}  // namespace

int main() {
  std::printf("Transport ablation on the vehicle-following scenario.\n"
              "tcp = reliable stream (paper's CARLA setup), udp = latest-wins datagrams.\n\n");
  check::Fnv1a runs_hash;
  for (const auto fault :
       {net::FaultSpec{net::FaultKind::kNone, 0.0},
        net::FaultSpec{net::FaultKind::kPacketLoss, 0.02},
        net::FaultSpec{net::FaultKind::kPacketLoss, 0.05},
        net::FaultSpec{net::FaultKind::kPacketLoss, 0.10},
        net::FaultSpec{net::FaultKind::kDelay, 50.0},
        net::FaultSpec{net::FaultKind::kDelay, 200.0}}) {
    run_case("tcp", false, fault, runs_hash);
    run_case("udp", true, fault, runs_hash);
  }
  std::printf("\nExpected: under loss, tcp shows freezes (frozen%%, longest) while\n"
              "udp shows dropped frames (displayed < encoded) but less freezing;\n"
              "under heavy delay both stale, tcp additionally throughput-collapses.\n");
  std::printf("hash %016llx\n", static_cast<unsigned long long>(runs_hash.digest()));
  return 0;
}
