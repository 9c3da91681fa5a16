// Differential oracle for ReliableStream.
//
// Sweeps netem seeds x fault rules x window sizes, sends a mix
// of multi-segment and single-segment messages, and checks the transport's
// contract on every run: each message is delivered exactly once, in order,
// byte-identical to what was sent. On top of that it pins an FNV digest over
// every StreamStats field and every delivered (id, latency, bytes) triple,
// so any change to the stream's internals that alters a packet on the wire,
// a retransmission decision or a statistic shows up here, run for run.
//
// To regenerate after an intentional behaviour change: run this test; the
// failure output prints the replacement kPinned table.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "check/hash.hpp"
#include "net/reliable_stream.hpp"

namespace rdsim::net {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kSeeds[] = {3, 17, 2024};
constexpr std::uint32_t kWindows[] = {4, 128};
constexpr int kMessages = 40;
constexpr std::uint32_t kMtu = 1000;

struct Rule {
  const char* name;
  const char* netem;  ///< nullptr: clean link, no qdisc installed
};

// Reordering needs a delay queue to jump, hence the 10 ms base delay on the
// mixed rule.
constexpr Rule kRules[] = {
    {"clean", nullptr},
    {"loss5", "loss 5%"},
    {"mixed", "delay 10ms loss 20% reorder 25% duplicate 5%"},
    {"jitter", "delay 50ms 20ms"},
    {"corrupt2", "corrupt 2%"},
};

struct Message {
  Payload bytes;
  std::uint32_t declared_wire_size{0};
};

/// Deterministic message mix: every third message fits one segment, the rest
/// declare up to 16 MTUs on the wire over a payload of 0..3999 bytes.
std::vector<Message> make_messages(std::uint64_t seed) {
  std::uint32_t lcg = static_cast<std::uint32_t>(seed * 2654435761u + 1u);
  auto next = [&lcg] {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  };
  std::vector<Message> out(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    Message& m = out[static_cast<std::size_t>(i)];
    const bool single = i % 3 == 0;
    m.bytes.resize(single ? next() % kMtu : next() % 4000);
    for (auto& b : m.bytes) b = static_cast<std::uint8_t>(next());
    m.declared_wire_size = single ? static_cast<std::uint32_t>(m.bytes.size())
                                  : kMtu + next() % (15 * kMtu);
  }
  return out;
}

struct RunOutcome {
  std::uint64_t digest{0};
  int delivered{0};
  StreamStats stats;
};

/// One oracle run. Contract violations are reported through gtest with the
/// run's coordinates; the digest folds stats and deliveries.
RunOutcome run_one(std::uint64_t seed, const Rule& rule, std::uint32_t window) {
  const std::string where = std::string{rule.name} + " seed " + std::to_string(seed) +
                            " window " + std::to_string(window);
  Channel channel{seed};
  if (rule.netem != nullptr) {
    channel.tc().execute(std::string{"qdisc add dev lo root netem "} + rule.netem);
  }
  StreamConfig cfg;
  cfg.mtu = kMtu;
  cfg.window_segments = window;
  ReliableStream stream{channel, 1, LinkDirection::kDownlink, cfg};

  const std::vector<Message> messages = make_messages(seed);
  check::Fnv1a h;
  RunOutcome outcome;
  TimePoint now;
  std::size_t next_send = 0;
  const TimePoint deadline = TimePoint::from_micros(120'000'000);
  TimePoint quiet_since = deadline;
  while (now < deadline) {
    now += Duration::millis(1);
    // One message every 3 ms, so sends interleave with ACKs and losses.
    if (next_send < messages.size() && now.count_micros() % 3000 == 0) {
      const Message& m = messages[next_send++];
      stream.send_message(m.bytes, m.declared_wire_size, now);
    }
    channel.poll(now);
    stream.step(now);
    while (auto msg = stream.pop_delivered()) {
      const auto expected_id = static_cast<std::uint32_t>(outcome.delivered);
      EXPECT_EQ(msg->message_id, expected_id) << where << ": out of order or duplicated";
      if (msg->message_id < messages.size()) {
        EXPECT_EQ(msg->bytes, messages[msg->message_id].bytes)
            << where << ": bytes differ for message " << msg->message_id;
      }
      h.u32(msg->message_id);
      h.i64(msg->latency().count_micros());
      h.u64(msg->bytes.size());
      h.update(msg->bytes.data(), msg->bytes.size());
      ++outcome.delivered;
    }
    const bool quiescent = next_send == messages.size() &&
                           outcome.delivered == kMessages &&
                           stream.unacked_segments() == 0 && stream.send_backlog() == 0;
    if (!quiescent) {
      quiet_since = deadline;
    } else if (quiet_since == deadline) {
      quiet_since = now;
    } else if (now - quiet_since >= Duration::seconds(1.0)) {
      break;  // a second of quiet ends the run
    }
  }
  EXPECT_EQ(outcome.delivered, kMessages) << where << ": not every message arrived";

  const StreamStats& s = stream.stats();
  EXPECT_EQ(s.messages_sent, static_cast<std::uint64_t>(kMessages)) << where;
  EXPECT_EQ(s.messages_delivered, static_cast<std::uint64_t>(outcome.delivered)) << where;
  h.u64(s.messages_sent);
  h.u64(s.messages_delivered);
  h.u64(s.segments_sent);
  h.u64(s.retransmits_rto);
  h.u64(s.retransmits_fast);
  h.u64(s.acks_sent);
  h.u64(s.dup_acks_seen);
  h.u64(s.stale_segments);
  h.f64(s.srtt.value());
  h.f64(s.rto.value());
  h.i64(now.count_micros());
  outcome.digest = h.digest();
  outcome.stats = s;
  return outcome;
}

struct RuleOutcome {
  std::uint64_t digest{0};
  std::uint64_t retransmits{0};  ///< RTO events + fast retransmits, all runs
  std::uint64_t stale{0};        ///< duplicate segments the receivers discarded
};

/// Folds every run of one rule: 3 seeds x 2 windows.
RuleOutcome run_rule(const Rule& rule) {
  check::Fnv1a h;
  RuleOutcome out;
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint32_t window : kWindows) {
      const RunOutcome run = run_one(seed, rule, window);
      h.u64(run.digest);
      out.retransmits += run.stats.retransmits_rto + run.stats.retransmits_fast;
      out.stale += run.stats.stale_segments;
    }
  }
  out.digest = h.digest();
  return out;
}

// ---- pinned digests (regenerate via the failure output, see header) ----
constexpr std::uint64_t kPinned[] = {
    0x22682f498fef7dcaULL,  // clean
    0x27ad342e12da97f9ULL,  // loss5
    0xa98d7b1b48fb73d1ULL,  // mixed
    0xfa3592eac5a1d0ccULL,  // jitter
    0xceab0a92df4deaecULL,  // corrupt2
};
static_assert(std::size(kPinned) == std::size(kRules));

TEST(ReliableStreamOracle, ExactlyOnceInOrderAndPinnedDigests) {
  std::uint64_t got[std::size(kRules)];
  bool drifted = false;
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const RuleOutcome outcome = run_rule(kRules[i]);
    got[i] = outcome.digest;
    if (got[i] != kPinned[i]) drifted = true;
    // The sweep must actually exercise recovery: every faulted rule except
    // pure jitter loses packets, and the mixed rule also duplicates them.
    if (kRules[i].netem != nullptr && std::string{kRules[i].name} != "jitter") {
      EXPECT_GT(outcome.retransmits, 0u) << kRules[i].name;
    }
    if (std::string{kRules[i].name} == "mixed") {
      EXPECT_GT(outcome.stale, 0u);
    }
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
  ADD_FAILURE() << "stream digests drifted from the pinned table; "
                   "replacement table:\n"
                << table;
}

}  // namespace
}  // namespace rdsim::net
