// Chrome trace-event exporter tests: structural round-trip through a real
// JSON parse, the per-thread invariants the format demands (monotone ts,
// balanced B/E), determinism, and a randomized-span fuzz over 1000 seeded
// iterations — every generated trace must parse and satisfy the invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rdsim::obs {
namespace {

constexpr MetricId kTraceSpan = metric::kOpFreezeSpan;
constexpr MetricId kTraceSpanB = metric::kFaultWindowSpan;
constexpr MetricId kTraceInstant = metric::kSimCollision;

util::TimePoint at(std::int64_t us) { return util::TimePoint::from_micros(us); }

/// Parse a trace and check the invariants chrome://tracing enforces: within
/// each (pid, tid), timestamps are non-decreasing and B/E events balance like
/// parentheses. Returns the parsed event array for further inspection.
json_check::Value parse_and_check(const std::string& text) {
  const json_check::Value root = json_check::parse(text);
  EXPECT_TRUE(root.is_object());
  const json_check::Value& events = root.at("traceEvents");
  EXPECT_TRUE(events.is_array());

  struct ThreadState {
    std::int64_t last_ts{-1};
    int depth{0};
  };
  std::map<std::pair<double, double>, ThreadState> threads;
  for (const json_check::Value& ev : events.array()) {
    const std::string& ph = ev.at("ph").str();
    if (ph == "M") continue;  // metadata carries no timestamp
    const std::pair<double, double> key{ev.at("pid").num(), ev.at("tid").num()};
    ThreadState& ts = threads[key];
    const auto stamp = static_cast<std::int64_t>(ev.at("ts").num());
    EXPECT_GE(stamp, ts.last_ts) << "non-monotone ts on tid " << key.second;
    ts.last_ts = stamp;
    if (ph == "B") ++ts.depth;
    if (ph == "E") {
      --ts.depth;
      EXPECT_GE(ts.depth, 0) << "E without matching B on tid " << key.second;
    }
  }
  for (const auto& [key, ts] : threads) {
    EXPECT_EQ(ts.depth, 0) << "unbalanced B/E on tid " << key.second;
  }
  return root;
}

TEST(ObsTrace, EmptyTrackSetIsValidJson) {
  const json_check::Value root = parse_and_check(chrome_trace_json({}));
  EXPECT_TRUE(root.at("traceEvents").array().empty());
  EXPECT_EQ(root.at("displayTimeUnit").str(), "ms");
}

TEST(ObsTrace, RoundTripsSpansAndInstants) {
  Context ctx;
  const std::size_t s1 = ctx.span_open(kTraceSpan, at(100));
  ctx.span_close(s1, at(400));
  const std::size_t s2 = ctx.span_open(kTraceSpan, at(500));
  ctx.span_close(s2, at(650));
  ctx.instant(kTraceInstant, at(123));

  const json_check::Value root =
      parse_and_check(chrome_trace_json({{"run-a", &ctx}}));
  const json_check::Array& events = root.at("traceEvents").array();

  std::size_t begins = 0, ends = 0, instants = 0, metadata = 0;
  for (const json_check::Value& ev : events) {
    const std::string& ph = ev.at("ph").str();
    if (ph == "B") {
      ++begins;
      EXPECT_EQ(ev.at("name").str(), "operator.freezes");
    } else if (ph == "E") {
      ++ends;
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(ev.at("name").str(), "sim.collisions");
      EXPECT_EQ(static_cast<std::int64_t>(ev.at("ts").num()), 123);
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(instants, 1u);
  // process_name for the track + a thread_name per (metric, lane) group.
  EXPECT_GE(metadata, 3u);

  // The track name round-trips through the process_name metadata event.
  bool saw_track_name = false;
  for (const json_check::Value& ev : events) {
    if (ev.at("ph").str() == "M" && ev.at("name").str() == "process_name") {
      saw_track_name =
          saw_track_name || ev.at("args").at("name").str() == "run-a";
    }
  }
  EXPECT_TRUE(saw_track_name);
}

TEST(ObsTrace, OverlappingSpansSplitAcrossSubThreads) {
  Context ctx;
  // Three mutually-overlapping spans of one (metric, lane): the B/E format
  // cannot express that on one thread, so the exporter must use >= 3 tids.
  const std::size_t a = ctx.span_open(kTraceSpan, at(0));
  const std::size_t b = ctx.span_open(kTraceSpan, at(10));
  const std::size_t c = ctx.span_open(kTraceSpan, at(20));
  ctx.span_close(a, at(100));
  ctx.span_close(b, at(110));
  ctx.span_close(c, at(120));

  const json_check::Value root =
      parse_and_check(chrome_trace_json({{"run", &ctx}}));
  std::map<double, int> begins_per_tid;
  for (const json_check::Value& ev : root.at("traceEvents").array()) {
    if (ev.at("ph").str() == "B") ++begins_per_tid[ev.at("tid").num()];
  }
  EXPECT_EQ(begins_per_tid.size(), 3u);
  for (const auto& [tid, n] : begins_per_tid) EXPECT_EQ(n, 1);
}

TEST(ObsTrace, OpenSpanExportsClampedNotNegative) {
  Context ctx;
  ctx.span_open(kTraceSpan, at(42));  // never closed
  const json_check::Value root =
      parse_and_check(chrome_trace_json({{"run", &ctx}}));
  // parse_and_check already verifies the B/E pair balances and stays
  // monotone; both events must clamp to the begin timestamp.
  for (const json_check::Value& ev : root.at("traceEvents").array()) {
    const std::string& ph = ev.at("ph").str();
    if (ph == "B" || ph == "E") {
      EXPECT_EQ(static_cast<std::int64_t>(ev.at("ts").num()), 42);
    }
  }
}

TEST(ObsTrace, LanesGetDistinctThreads) {
  Context ctx;
  for (const std::uint32_t lane : {1u, 2u, 3u}) {
    const std::size_t h = ctx.span_open(kTraceSpan, at(0), lane);
    ctx.span_close(h, at(50));
  }
  const json_check::Value root =
      parse_and_check(chrome_trace_json({{"run", &ctx}}));
  std::map<double, int> tids;
  for (const json_check::Value& ev : root.at("traceEvents").array()) {
    if (ev.at("ph").str() == "B") ++tids[ev.at("tid").num()];
  }
  // Same virtual interval, but different lanes -> no sub-thread splitting
  // needed, one thread per lane.
  EXPECT_EQ(tids.size(), 3u);
}

TEST(ObsTrace, ExportIsDeterministic) {
  auto build = [] {
    Context ctx;
    util::Random rng{2026, 7};
    for (int i = 0; i < 64; ++i) {
      const auto begin = static_cast<std::int64_t>(rng.uniform_int(0, 10000));
      const std::size_t h = ctx.span_open(
          rng.bernoulli(0.5) ? kTraceSpan : kTraceSpanB, at(begin),
          static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
      ctx.span_close(h, at(begin + rng.uniform_int(0, 500)));
    }
    return ctx;
  };
  const Context a = build();
  const Context b = build();
  EXPECT_EQ(chrome_trace_json({{"run", &a}}), chrome_trace_json({{"run", &b}}));
}

TEST(ObsTrace, EscapesControlAndQuoteCharactersInTrackNames) {
  Context ctx;
  ctx.instant(kTraceInstant, at(0));
  const std::string text =
      chrome_trace_json({{"we\"ird\\name\nwith\tctrl\x01", &ctx}});
  const json_check::Value root = parse_and_check(text);
  bool found = false;
  for (const json_check::Value& ev : root.at("traceEvents").array()) {
    if (ev.at("ph").str() == "M" && ev.at("name").str() == "process_name") {
      EXPECT_EQ(ev.at("args").at("name").str(), "we\"ird\\name\nwith\tctrl\x01");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsTrace, FuzzRandomizedSpansAlwaysProduceValidTraces) {
  // 1000 seeded iterations of arbitrary span/instant soup — overlapping,
  // nested, open, zero-length, multi-lane, multi-metric, multi-track. Every
  // output must parse and satisfy the per-thread invariants.
  for (std::uint64_t iter = 0; iter < 1000; ++iter) {
    util::Random rng{0x0b5e55ed ^ iter, iter + 1};
    std::vector<Context> contexts(static_cast<std::size_t>(rng.uniform_int(1, 3)));
    std::vector<TraceTrack> tracks;
    std::size_t expected_spans = 0, expected_instants = 0;
    for (std::size_t t = 0; t < contexts.size(); ++t) {
      Context& ctx = contexts[t];
      const int ops = rng.uniform_int(0, 20);
      std::vector<std::size_t> open;
      for (int op = 0; op < ops; ++op) {
        const auto ts = static_cast<std::int64_t>(rng.uniform_int(0, 100000));
        const MetricId metric = rng.bernoulli(0.5) ? kTraceSpan : kTraceSpanB;
        const auto lane = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
        const double dice = rng.uniform();
        if (dice < 0.5) {
          const std::size_t h = ctx.span_open(metric, at(ts), lane);
          ++expected_spans;
          if (rng.bernoulli(0.8)) {
            // Close at, before, or after begin — exporter must clamp.
            ctx.span_close(h, at(ts + rng.uniform_int(-100, 2000)));
          } else {
            open.push_back(h);  // leave open
          }
        } else if (dice < 0.75 && !open.empty()) {
          ctx.span_close(open.back(), at(ts));
          open.pop_back();
        } else {
          ctx.instant(metric, at(ts), lane);
          ++expected_instants;
        }
      }
      tracks.push_back({"track-" + std::to_string(t), &ctx});
    }

    const json_check::Value root =
        parse_and_check(chrome_trace_json(tracks));
    std::size_t begins = 0, instants = 0;
    for (const json_check::Value& ev : root.at("traceEvents").array()) {
      const std::string& ph = ev.at("ph").str();
      if (ph == "B") ++begins;
      if (ph == "i") ++instants;
    }
    ASSERT_EQ(begins, expected_spans) << "iteration " << iter;
    ASSERT_EQ(instants, expected_instants) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace rdsim::obs
