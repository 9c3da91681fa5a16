// Release-order oracle for NetemQdisc.
//
// Drives seeded packet bursts through one netem rule per fault class and
// pins a digest over every released packet's (id, release tick, duplicate,
// corrupted) plus the final counters. Any change to the qdisc's timer
// structure that alters which packet leaves when, or which copy is the
// duplicate, shows up here run for run.
//
// To regenerate after an intentional behaviour change: run this test; the
// failure output prints the replacement kPinned table.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/tc.hpp"

namespace rdsim::net {
namespace {

using util::TimePoint;

constexpr std::uint64_t kSeeds[] = {5, 71, 2023};
constexpr int kSendTicks = 2000;  ///< 1 ms ticks with sends; then drain

struct Rule {
  const char* name;
  const char* netem;
  /// Counter the rule must move, so the sweep exercises its fault class.
  std::uint64_t QdiscStats::*exercised;
};

constexpr Rule kRules[] = {
    {"jitter_normal", "delay 20ms 15ms distribution normal", nullptr},
    {"jitter_pareto", "delay 20ms 15ms distribution pareto", nullptr},
    {"reorder_gap", "delay 10ms reorder 25% gap 3", &QdiscStats::reordered},
    {"duplicate", "delay 5ms 2ms duplicate 10%", &QdiscStats::duplicated},
    {"corrupt", "delay 5ms corrupt 10%", &QdiscStats::corrupted},
    {"rate", "delay 2ms rate 20mbit", nullptr},
    {"limit", "delay 30ms 10ms limit 40", &QdiscStats::dropped_overlimit},
};

/// One seeded run: every tick sends a burst of 0..4 packets of 1..120
/// payload bytes and up to 1 500 wire bytes, then drains what is due.
std::uint64_t run_one(std::uint64_t seed, const Rule& rule, std::uint64_t& released) {
  NetemQdisc q{parse_netem(rule.netem), seed};
  std::uint32_t lcg = static_cast<std::uint32_t>(seed * 2654435761u + 7u);
  auto next = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  };
  check::Fnv1a h;
  std::vector<Packet> out;
  std::uint64_t id = 0;
  for (std::int64_t tick = 0; tick < kSendTicks + 2000; ++tick) {
    const TimePoint now = TimePoint::from_micros(tick * 1000);
    const std::uint32_t burst = tick < kSendTicks ? next() % 5 : 0;
    for (std::uint32_t i = 0; i < burst; ++i) {
      Packet p;
      p.id = id++;
      p.payload.assign(1 + next() % 120, static_cast<std::uint8_t>(p.id));
      p.wire_size = next() % 1500;
      q.enqueue(std::move(p), now);
    }
    out.clear();
    q.dequeue_ready(now, out);
    for (const Packet& p : out) {
      h.u64(p.id);
      h.i64(tick);
      h.boolean(p.duplicate);
      h.boolean(p.corrupted);
    }
    released += out.size();
  }
  EXPECT_EQ(q.backlog(), 0u) << rule.name << " seed " << seed;
  const QdiscStats& s = q.stats();
  if (rule.exercised != nullptr) {
    EXPECT_GT(s.*rule.exercised, 0u) << rule.name;
  }
  h.u64(s.enqueued);
  h.u64(s.dequeued);
  h.u64(s.dropped_overlimit);
  h.u64(s.dropped_loss);
  h.u64(s.duplicated);
  h.u64(s.corrupted);
  h.u64(s.reordered);
  h.u64(s.bytes_sent);
  return h.digest();
}

// ---- pinned digests (regenerate via the failure output, see header) ----
constexpr std::uint64_t kPinned[] = {
    0x445a4059612ca167ULL,  // jitter_normal
    0x8479dd07050e2c7cULL,  // jitter_pareto
    0x9a74b4dba744646cULL,  // reorder_gap
    0x0efdd136f9ae206cULL,  // duplicate
    0xe7d878c8371ec0a3ULL,  // corrupt
    0x9d20371af60d88abULL,  // rate
    0xa1f215f782d6db34ULL,  // limit
};
static_assert(std::size(kPinned) == std::size(kRules));

TEST(NetemOracle, ReleaseOrderMatchesPinnedDigests) {
  std::uint64_t got[std::size(kRules)];
  bool drifted = false;
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    check::Fnv1a h;
    std::uint64_t released = 0;
    for (const std::uint64_t seed : kSeeds) h.u64(run_one(seed, kRules[i], released));
    EXPECT_GT(released, 1000u) << kRules[i].name;
    got[i] = h.digest();
    if (got[i] != kPinned[i]) drifted = true;
  }
  if (!drifted) return;
  std::string table = "constexpr std::uint64_t kPinned[] = {\n";
  char line[80];
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    std::snprintf(line, sizeof line, "    0x%016llxULL,  // %s\n",
                  static_cast<unsigned long long>(got[i]), kRules[i].name);
    table += line;
  }
  table += "};\n";
  ADD_FAILURE() << "netem release order drifted from the pinned table; "
                   "replacement table:\n"
                << table;
}

}  // namespace
}  // namespace rdsim::net
