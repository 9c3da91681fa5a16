// Lap-clock wall-clock timing.
//
// This is the ONE place in src/ where a wall clock is legitimate: profiling
// where real time goes inside a tick. The measured nanosecond values are
// inherently nondeterministic — they never feed the simulation, a hash, or
// any trace keyed to the virtual clock; they only accumulate into the
// thread-local obs::Context as (total_ns, count) pairs whose *structure*
// (which timers exist, how per-run cells merge into the campaign rollup) is
// deterministic and worker-count independent.
//
// A Stopwatch reads the clock once at construction and once per lap, so
// contiguous phases cost one read per boundary, and the sum of the phases is
// recorded without another read. It latches Context::current() at
// construction: zero clock reads happen when no context is installed, which
// keeps the disabled path at a TLS load plus one branch per lap.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace rdsim::obs {

/// Monotonic wall-clock nanoseconds (for profiling only — never sim logic).
std::uint64_t wallclock_ns();

class Stopwatch {
 public:
  Stopwatch() : context_{Context::current()} {
    if (context_ != nullptr) start_ns_ = last_ns_ = wallclock_ns();
  }

  /// Record the time since the previous lap (or the start) as one sample of
  /// timer `id`.
  void lap(MetricId id) {
    if (context_ == nullptr) return;
    const std::uint64_t now = wallclock_ns();
    context_->timer_add(id, now - last_ns_);
    last_ns_ = now;
  }

  /// Record the time from the start to the last lap as one sample of timer
  /// `id`: exactly the sum of the laps so far. Reads no clock.
  void total(MetricId id) {
    if (context_ != nullptr) context_->timer_add(id, last_ns_ - start_ns_);
  }

 private:
  Context* context_;
  std::uint64_t start_ns_{0};
  std::uint64_t last_ns_{0};
};

}  // namespace rdsim::obs
