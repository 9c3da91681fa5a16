// rdsim::obs — observability that costs a branch when nothing observes.
//
// Three layers, all deterministic in *structure* (metric identity, iteration
// order, aggregation order) even where the measured *values* are wall-clock
// noise by nature (profiling timers):
//
//   1. a metrics registry (counters, gauges, fixed-bucket log-scale
//      histograms) with a static catalog of metric names (obs/catalog.hpp) —
//      names are registered exactly once, never concatenated in hot paths;
//   2. lap-clock wall-clock timers (obs::Stopwatch, obs/profile.hpp)
//      accumulating into the thread-local context, merged across
//      util::parallel_for workers in worker-count-independent order;
//   3. a span/event tracer keyed to the *virtual* simulation clock, exported
//      as Chrome trace-event JSON (obs/trace_export.hpp) loadable in
//      Perfetto.
//
// One switch gates every instrumentation site: whether a ContextScope has
// installed a context on this thread. With none installed every site is a
// single thread-local load plus a predictable branch.
//
// The cardinal rule — enforced by the golden-hash regression suite — is that
// observation NEVER perturbs the simulation: instruments only read sim
// state; they never touch an RNG stream, the virtual clock, or any value
// that feeds check::campaign_hash.
#pragma once

#include "obs/metrics.hpp"
#include "obs/profile.hpp"

/// Increment a registered counter by `delta` (a no-op without a context).
#define RDSIM_OBS_COUNT(id, delta)                                    \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->count((id), (delta));                           \
    }                                                                 \
  } while (0)

/// Record the current value of a registered gauge.
#define RDSIM_OBS_GAUGE_SET(id, value)                                \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->gauge_set((id), (value));                       \
    }                                                                 \
  } while (0)

/// Record one sample into a registered histogram.
#define RDSIM_OBS_OBSERVE(id, value)                                  \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->observe((id), (value));                         \
    }                                                                 \
  } while (0)

/// Instant event on the virtual clock (shows as a marker in the trace).
#define RDSIM_OBS_EVENT(id, tp)                                       \
  do {                                                                \
    if (::rdsim::obs::Context* rdsim_obs_ctx_ =                       \
            ::rdsim::obs::Context::current()) {                       \
      rdsim_obs_ctx_->instant((id), (tp));                            \
    }                                                                 \
  } while (0)
