// parallel_for semantics: index coverage, exception propagation, the
// worker-count conventions. These tests are the designated workload for the
// asan-ubsan and tsan presets — keep every assertion data-race-free (atomics
// or per-index slots only).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel_for.hpp"

namespace rdsim::util {
namespace {

TEST(ParallelFor, ZeroWorkersMeansHardwareConcurrency) {
  const std::size_t n = 256;
  std::vector<std::thread::id> ran_on(n);
  parallel_for(n, 0, [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  const std::set<std::thread::id> threads(ran_on.begin(), ran_on.end());
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ParallelFor, CallerThreadIsAWorker) {
  // One worker is the serial case: every index runs on the caller, in
  // order, and no thread starts.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(50, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, 4, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, WritesDisjointSlotsWithoutRaces) {
  // The campaign runner's exact access pattern: each index writes its own
  // element of a pre-sized vector, no synchronization between bodies.
  const std::size_t n = 512;
  std::vector<std::size_t> out(n, 0);
  parallel_for(n, 8, [&out](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  parallel_for(0, 2, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, RethrowsLowestIndexException) {
  // Deterministic error behavior: whichever worker finishes first, the
  // caller always sees the exception from the smallest failing index.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      parallel_for(64, 4, [](std::size_t i) {
        if (i == 13 || i == 40) {
          throw std::runtime_error{"index " + std::to_string(i)};
        }
      });
      FAIL() << "expected parallel_for to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 13");
    }
  }
}

TEST(ParallelFor, FinishesAllWorkEvenWhenOneIndexThrows) {
  const std::size_t n = 128;
  std::vector<std::atomic<int>> hits(n);
  try {
    parallel_for(n, 4, [&hits](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 7) throw std::runtime_error{"boom"};
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error&) {
  }
  // No index was abandoned: every one ran before the rethrow.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace rdsim::util
