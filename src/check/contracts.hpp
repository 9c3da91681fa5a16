// Runtime contract layer: RDSIM_REQUIRE / RDSIM_ENSURE / RDSIM_INVARIANT.
//
// The simulator's safety conclusions (TTC, SRR, collision counts) are only as
// trustworthy as its numerics, so the hot boundaries — qdisc scheduling,
// vehicle integration, metric inputs, stream sequencing — carry executable
// contracts. A failed contract is dispatched through a process-wide policy:
//
//   kCount  – bump a per-site atomic counter and continue (release default;
//             the check itself is a branch on an already-computed value)
//   kLog    – count + one line to stderr per failure (debug default)
//   kThrow  – count + throw check::ContractViolation (tests)
//
// Every failing site self-registers in the global Registry on first failure,
// so post-run code can enumerate exactly which contracts fired and how often
// without paying any bookkeeping on the non-failing path.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rdsim::check {

enum class Policy : std::uint8_t { kCount, kLog, kThrow };

/// Policy selected at compile time when nobody calls set_policy():
/// silent counting in release builds, logging in debug builds.
constexpr Policy default_policy() {
#ifdef NDEBUG
  return Policy::kCount;
#else
  return Policy::kLog;
#endif
}

/// Thrown under Policy::kThrow.
class ContractViolation : public std::runtime_error {
 public:
  explicit ContractViolation(const std::string& what) : std::runtime_error{what} {}
};

/// Snapshot of one failing contract site.
struct ViolationRecord {
  const char* kind;        ///< "REQUIRE" | "ENSURE" | "INVARIANT"
  const char* expression;  ///< stringified condition
  const char* file;
  int line;
  const char* message;
  std::uint64_t count;  ///< failures observed at this site
};

/// One static instance per macro expansion point. Constructed lazily (magic
/// static) on the site's first failure; lives for the rest of the process.
class Site {
 public:
  Site(const char* kind, const char* expression, const char* file, int line,
       const char* message);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  /// Record one failure and dispatch the active policy.
  void fail();

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  void reset() { count_.store(0, std::memory_order_relaxed); }
  ViolationRecord record() const;

 private:
  std::string format() const;

  const char* kind_;
  const char* expression_;
  const char* file_;
  int line_;
  const char* message_;
  std::atomic<std::uint64_t> count_{0};
};

/// Process-wide registry of contract sites that have failed at least once.
class Registry {
 public:
  static Registry& instance();

  Policy policy() const { return policy_.load(std::memory_order_relaxed); }
  void set_policy(Policy p) { policy_.store(p, std::memory_order_relaxed); }

  /// Total failures across all registered sites.
  std::uint64_t total_violations() const RDSIM_EXCLUDES(mutex_);

  /// Records for every site that has ever failed (count may be zero again
  /// after reset_counts()).
  std::vector<ViolationRecord> snapshot() const RDSIM_EXCLUDES(mutex_);

  /// Zero all per-site counters. Sites stay registered.
  void reset_counts() RDSIM_EXCLUDES(mutex_);

  // Called by Site's constructor; not for user code.
  void register_site(Site* site) RDSIM_EXCLUDES(mutex_);

 private:
  Registry() = default;

  mutable util::Mutex mutex_;
  std::vector<Site*> sites_ RDSIM_GUARDED_BY(mutex_);
  std::atomic<Policy> policy_{default_policy()};
};

}  // namespace rdsim::check

// The condition is always evaluated (contracts guard release-mode runs too);
// it must therefore be cheap. The Site is constructed only on first failure,
// so the passing path costs one predictable branch.
#define RDSIM_CHECK_IMPL(KIND, condition, msg)                                        \
  do {                                                                                \
    if (!(condition)) [[unlikely]] {                                                  \
      static ::rdsim::check::Site rdsim_check_site{KIND, #condition, __FILE__,        \
                                                   __LINE__, msg};                    \
      rdsim_check_site.fail();                                                        \
    }                                                                                 \
  } while (false)

/// Precondition on a function's inputs.
#define RDSIM_REQUIRE(condition, msg) RDSIM_CHECK_IMPL("REQUIRE", condition, msg)
/// Postcondition on a function's results.
#define RDSIM_ENSURE(condition, msg) RDSIM_CHECK_IMPL("ENSURE", condition, msg)
/// Invariant that must hold at a program point.
#define RDSIM_INVARIANT(condition, msg) RDSIM_CHECK_IMPL("INVARIANT", condition, msg)
