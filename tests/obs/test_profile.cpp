// Stopwatch and context-installation semantics: lap accumulation, a total
// that is exactly the sum of the laps, scope nesting/restoration (a null scope being the one off switch), and
// worker-count independence of per-task context aggregation under the real
// util::parallel_for.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/parallel_for.hpp"

namespace rdsim::obs {
namespace {

constexpr MetricId kScopeTimer = metric::kPhaseStep;
constexpr MetricId kPoolCounter = metric::kFifoEnqueued;

TEST(ObsProfile, StopwatchAccumulatesIntoCurrentContext) {
  Context ctx;
  {
    ContextScope scope{&ctx};
    Stopwatch{}.lap(kScopeTimer);
    Stopwatch{}.lap(kScopeTimer);
  }
  const TimerCell* cell = ctx.timer(kScopeTimer);
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 2u);
}

TEST(ObsProfile, StopwatchTotalIsTheSumOfItsLaps) {
  Context ctx;
  {
    ContextScope scope{&ctx};
    Stopwatch stopwatch;
    stopwatch.lap(metric::kPhasePhysics);
    stopwatch.lap(metric::kPhaseVideo);
    stopwatch.lap(metric::kPhaseVideo);
    stopwatch.total(kScopeTimer);
  }
  const TimerCell* physics = ctx.timer(metric::kPhasePhysics);
  const TimerCell* video = ctx.timer(metric::kPhaseVideo);
  const TimerCell* total = ctx.timer(kScopeTimer);
  ASSERT_NE(physics, nullptr);
  ASSERT_NE(video, nullptr);
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(physics->count, 1u);
  EXPECT_EQ(video->count, 2u);
  EXPECT_EQ(total->count, 1u);
  EXPECT_EQ(total->total_ns, physics->total_ns + video->total_ns);
}

TEST(ObsProfile, NoContextMeansNoRecording) {
  ASSERT_EQ(Context::current(), nullptr);
  // Must be safe and free-standing with no context installed.
  RDSIM_OBS_COUNT(kPoolCounter, 1);
  Stopwatch{}.lap(kScopeTimer);
}

TEST(ObsProfile, ContextScopesNestAndRestore) {
  Context outer, inner;
  {
    ContextScope outer_scope{&outer};
    EXPECT_EQ(Context::current(), &outer);
    {
      ContextScope inner_scope{&inner};
      EXPECT_EQ(Context::current(), &inner);
      RDSIM_OBS_COUNT(kPoolCounter, 5);
    }
    EXPECT_EQ(Context::current(), &outer);
    RDSIM_OBS_COUNT(kPoolCounter, 2);
  }
  EXPECT_EQ(Context::current(), nullptr);
  EXPECT_EQ(inner.counter(kPoolCounter), 5u);
  EXPECT_EQ(outer.counter(kPoolCounter), 2u);
}

TEST(ObsProfile, RuntimeDisableBlocksContextInstallation) {
  // A null scope is the one off switch: nested inside an active scope it
  // uninstalls the context for its lifetime only, then restores it.
  Context ctx;
  {
    ContextScope scope{&ctx};
    {
      ContextScope off_scope{nullptr};
      EXPECT_EQ(Context::current(), nullptr);
      RDSIM_OBS_COUNT(kPoolCounter, 100);
      Stopwatch{}.lap(kScopeTimer);
    }
    EXPECT_TRUE(ctx.empty());
    EXPECT_EQ(Context::current(), &ctx);
    RDSIM_OBS_COUNT(kPoolCounter, 1);
  }
  EXPECT_EQ(Context::current(), nullptr);
  EXPECT_EQ(ctx.counter(kPoolCounter), 1u);
  EXPECT_EQ(ctx.timer(kScopeTimer), nullptr);
}

TEST(ObsProfile, PoolAggregationIsWorkerCountIndependent) {
  // One context per task (the harness discipline), submitted under a stable
  // task id: the merged rollup must not depend on how many workers executed
  // the tasks or in what order they finished.
  constexpr std::size_t kTasks = 24;
  auto run = [](std::size_t workers) {
    auto collector = std::make_unique<CampaignCollector>();
    std::vector<Context> contexts(kTasks);
    util::parallel_for(kTasks, workers, [&](std::size_t i) {
      ContextScope scope{&contexts[i]};
      for (std::size_t k = 0; k <= i; ++k) {
        RDSIM_OBS_COUNT(kPoolCounter, k + 1);
        Stopwatch{}.lap(kScopeTimer);
      }
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
      char id[16];
      std::snprintf(id, sizeof id, "task-%02zu", i);
      collector->submit_run(id, std::move(contexts[i]));
    }
    return collector;
  };

  const auto reference = run(1);
  const Context ref_merged = reference->merged();
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const auto other = run(workers);
    ASSERT_EQ(other->run_count(), kTasks);
    // Per-run deterministic state identical...
    auto ref_it = reference->runs().begin();
    for (const auto& [run_id, ctx] : other->runs()) {
      EXPECT_EQ(run_id, ref_it->first);
      EXPECT_EQ(ctx.counter(kPoolCounter), ref_it->second.counter(kPoolCounter))
          << run_id;
      ++ref_it;
    }
    // ...and so is the merged rollup (timer counts too — only the measured
    // nanoseconds are nondeterministic, never the structure).
    const Context merged = other->merged();
    EXPECT_EQ(merged.counter(kPoolCounter), ref_merged.counter(kPoolCounter));
    ASSERT_NE(merged.timer(kScopeTimer), nullptr);
    EXPECT_EQ(merged.timer(kScopeTimer)->count,
              ref_merged.timer(kScopeTimer)->count);
  }
}

TEST(ObsProfile, WallclockIsMonotone) {
  const std::uint64_t a = wallclock_ns();
  const std::uint64_t b = wallclock_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace rdsim::obs
