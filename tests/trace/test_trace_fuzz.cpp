// Seeded fuzzing of RunTrace::from_csv, the parser of outside trace files.
//
// Three properties over generated traces:
//  - a valid trace round-trips exactly: the same run hash and, written again,
//    the same CSV bytes;
//  - permuting a table's columns, header and rows alike, parses to the same
//    trace, since columns are found by name;
//  - a mutated table either throws std::invalid_argument naming its table,
//    or parses to a trace that itself round-trips; nothing else escapes.
// Every case derives from kSeed, so a failure replays exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/campaign_hash.hpp"
#include "core/teleop.hpp"
#include "net/fault_injector.hpp"
#include "trace/trace.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace rdsim::trace {
namespace {

constexpr std::uint64_t kSeed = 36;
constexpr int kTraces = 150;
constexpr int kMutations = 1500;

struct Tables {
  std::string ego, others, events;
};

Tables tables_of(const RunTrace& t) {
  return {t.ego_csv(), t.others_csv(), t.events_csv()};
}

RunTrace parse(const Tables& csv) {
  return RunTrace::from_csv(csv.ego, csv.others, csv.events);
}

std::uint64_t run_hash(const RunTrace& t) {
  core::RunResult run;
  run.trace = t;
  return check::hash_run(run);
}

/// Random rows whose every value write_csv can write: doubles of every
/// class, integers across their whole range, strings CSV must quote.
class TraceGen {
 public:
  explicit TraceGen(std::uint64_t seed) : rng_{seed} {}

  RunTrace trace() {
    RunTrace t;
    fill(t.ego, below(6));
    double time = real_finite();
    for (EgoSample& e : t.ego) {  // ego rows stay in time order
      time += below(3) == 0 ? 0.0 : 2.0 * rng_.next_double();
      e.t = time;
    }
    fill(t.others, below(6));
    fill(t.collisions, below(3));
    fill(t.lane_invasions, below(3));
    for (int i = below(4); i > 0; --i) {
      constexpr net::FaultKind kKinds[] = {net::FaultKind::kNone, net::FaultKind::kDelay,
                                           net::FaultKind::kPacketLoss};
      const net::FaultSpec spec{kKinds[below(3)], real()};
      t.faults.push_back(
          {real(), net::to_string(spec.kind), spec.value, below(2) == 0, spec.label()});
    }
    return t;
  }

  int below(int n) { return static_cast<int>(index(static_cast<std::size_t>(n))); }
  std::size_t index(std::size_t n) {
    return rng_.next_below(static_cast<std::uint32_t>(n));
  }

 private:
  template <typename Row>
  void fill(std::vector<Row>& rows, int n) {
    for (int i = 0; i < n; ++i) {
      Row row;
      fields(row, [this](const char*, auto& v) { v = value<decltype(v)>(); });
      rows.push_back(row);
    }
  }

  template <typename Ref>
  auto value() {
    using T = std::remove_cvref_t<Ref>;
    if constexpr (std::is_same_v<T, std::string>) {
      return word();
    } else if constexpr (std::is_same_v<T, double>) {
      return real();
    } else {
      return integer<T>();
    }
  }

  template <typename T>
  T integer() {
    using L = std::numeric_limits<T>;
    switch (below(4)) {
      case 0: return L::min();
      case 1: return L::max();
      case 2: return static_cast<T>(below(100));
      default: return static_cast<T>(bits());
    }
  }

  double real() {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    switch (below(8)) {
      case 0: return below(2) == 0 ? 0.0 : -0.0;
      case 1: return below(2) == 0 ? inf : -inf;
      case 2: return below(2) == 0 ? nan : -nan;
      case 3: {  // subnormal: exponent 0, a random mantissa, either sign
        const std::uint64_t b = bits() & 0x800fffffffffffffULL;
        return std::bit_cast<double>(b == 0 ? 1 : b);
      }
      default: return real_finite();
    }
  }

  double real_finite() {
    switch (below(3)) {
      case 0: return static_cast<double>(below(2000) - 1000);
      case 1: return 2e3 * rng_.next_double() - 1e3;
      default: {  // any finite bit pattern, every magnitude
        const double v = std::bit_cast<double>(bits());
        return v - v == 0.0 ? v : 0.5;
      }
    }
  }

  std::string word() {
    static constexpr char kChars[] = "ab ,\"\r\n-x";
    std::string out;
    for (int n = below(6); n > 0; --n) out.push_back(kChars[below(sizeof kChars - 1)]);
    return out;
  }

  std::uint64_t bits() {
    const std::uint64_t hi = rng_.next_u32();
    return hi << 32 | rng_.next_u32();
  }

  util::Pcg32 rng_;
};

/// A CSV table's text rebuilt after `edit` changes its cells.
template <typename Edit>
std::string rewrite(const std::string& text, Edit edit) {
  const util::CsvTable table = util::CsvTable::parse(text);
  std::vector<std::vector<std::string>> rows{table.header()};
  for (std::size_t i = 0; i < table.row_count(); ++i) rows.push_back(table.row(i));
  edit(rows);
  std::ostringstream out;
  util::CsvWriter w{out};
  for (const auto& row : rows) w.write_row(row);
  return out.str();
}

/// Checks that `t`, written and read back, is `t` again.
void expect_round_trip(const RunTrace& t, const std::string& where) {
  const Tables csv = tables_of(t);
  RunTrace back;
  try {
    back = parse(csv);
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << where << ": a written trace does not parse: " << e.what();
    return;
  }
  EXPECT_EQ(run_hash(back), run_hash(t)) << where;
  const Tables again = tables_of(back);
  EXPECT_EQ(again.ego, csv.ego) << where;
  EXPECT_EQ(again.others, csv.others) << where;
  EXPECT_EQ(again.events, csv.events) << where;
}

TEST(RunTraceFuzz, GeneratedTracesRoundTripExactly) {
  TraceGen gen{kSeed};
  for (int i = 0; i < kTraces; ++i) {
    const RunTrace t = gen.trace();
    expect_round_trip(t, "trace " + std::to_string(i));
    if (HasFailure()) return;
  }
}

TEST(RunTraceFuzz, PermutedColumnsParseToTheSameTrace) {
  TraceGen gen{kSeed + 1};
  for (int i = 0; i < kTraces; ++i) {
    const RunTrace t = gen.trace();
    Tables csv = tables_of(t);
    for (std::string* table : {&csv.ego, &csv.others, &csv.events}) {
      *table = rewrite(*table, [&gen](std::vector<std::vector<std::string>>& rows) {
        // One Fisher-Yates permutation, applied to every row alike.
        std::vector<std::size_t> order(rows.front().size());
        for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
        for (std::size_t k = order.size(); k > 1; --k) {
          std::swap(order[k - 1], order[gen.index(k)]);
        }
        for (auto& row : rows) {
          std::vector<std::string> permuted;
          for (const std::size_t k : order) permuted.push_back(row[k]);
          row = std::move(permuted);
        }
      });
    }
    const RunTrace back = parse(csv);
    EXPECT_EQ(run_hash(back), run_hash(t)) << "trace " << i;
    EXPECT_EQ(back.ego_csv(), t.ego_csv()) << "trace " << i;
    EXPECT_EQ(back.others_csv(), t.others_csv()) << "trace " << i;
    EXPECT_EQ(back.events_csv(), t.events_csv()) << "trace " << i;
    if (HasFailure()) return;
  }
}

TEST(RunTraceFuzz, MutatedTablesAreRejectedOrRoundTrip) {
  // Cells a hand-edited or foreign file might hold, and the words that steer
  // the events reader.
  static const char* const kCells[] = {
      "",    "abc",  "1e999", "-1",        "4294967296", "1.5",           "-0",
      "nan", "-nan", "inf",   "collision", "fault",      "lane_invasion", "delay",
      "loss", "added", "deleted"};
  TraceGen gen{kSeed + 2};
  int rejected = 0;
  int parsed = 0;
  for (int i = 0; i < kMutations; ++i) {
    Tables csv = tables_of(gen.trace());
    std::string* const texts[] = {&csv.ego, &csv.others, &csv.events};
    std::string& text = *texts[gen.below(3)];
    const int what = gen.below(3);
    if (what == 0) {
      text.erase(gen.index(text.size()), 1);
    } else if (what == 1) {
      static constexpr char kInserts[] = {',', '"', '\n'};
      text.insert(gen.index(text.size() + 1), 1, kInserts[gen.below(3)]);
    } else {
      text = rewrite(text, [&gen](std::vector<std::vector<std::string>>& rows) {
        auto& row = rows[gen.index(rows.size())];
        row[gen.index(row.size())] = kCells[gen.index(std::size(kCells))];
      });
    }
    const std::string where = "mutation " + std::to_string(i);
    RunTrace t;
    try {
      t = parse(csv);
    } catch (const std::invalid_argument& e) {
      const std::string why = e.what();
      EXPECT_TRUE(why.starts_with("ego ") || why.starts_with("others ") ||
                  why.starts_with("events "))
          << where << ": " << why;
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << where << ": threw something other than invalid_argument: "
                    << e.what();
      return;
    }
    ++parsed;
    expect_round_trip(t, where);
    if (HasFailure()) return;
  }
  // Both outcomes must actually occur, or the mutations test nothing.
  EXPECT_GT(rejected, kMutations / 10);
  EXPECT_GT(parsed, kMutations / 10);
}

}  // namespace
}  // namespace rdsim::trace
