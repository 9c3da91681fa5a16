// Per-run metric collection.
//
// Metric *identity* is static: obs/catalog.hpp names every metric at
// compile time, and a MetricId indexes its catalog row. Metric *values*
// live in Context objects: one per observed unit of work (one teleop run in
// the campaign harness), installed thread-locally via ContextScope so hot
// paths reach it with a single TLS load. This split is what makes
// aggregation worker-count independent: each run accumulates into its own
// context on whatever pool thread executes it, and the campaign collector
// merges the finished contexts in run-id order, never completion order.
//
// Everything here is deterministic given deterministic inputs: histograms
// use fixed log-scale buckets (no adaptive resizing), merges are elementwise
// integer adds (associative and commutative), and exports iterate metrics in
// sorted-name order — see docs/observability.md.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/catalog.hpp"
#include "util/time.hpp"

namespace rdsim::obs {

struct GaugeCell {
  double last{0.0};
  double min{0.0};
  double max{0.0};
  double sum{0.0};
  std::uint64_t count{0};

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

struct TimerCell {
  std::uint64_t total_ns{0};
  std::uint64_t count{0};
};

struct HistogramCell {
  std::vector<std::uint64_t> counts;  ///< size bounds.size() + 1 once touched
  std::uint64_t count{0};
  double sum{0.0};

  /// Count one sample into the bucket `bounds` assigns it.
  void add(std::span<const double> bounds, double value);
};

/// One closed (or still-open) virtual-time span. `lane` disambiguates
/// concurrent spans of the same metric (e.g. per stream id); an open span
/// has end_us < begin_us and is clamped to zero length at export.
struct Span {
  MetricId metric{};
  std::uint32_t lane{0};
  std::int64_t begin_us{0};
  std::int64_t end_us{-1};
};

/// Instant event on the virtual clock.
struct Instant {
  MetricId metric{};
  std::uint32_t lane{0};
  std::int64_t ts_us{0};
};

/// Sentinel returned by span_open when no span was recorded.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// Value store for one observed unit of work. Not thread-safe: exactly one
/// thread writes a context at a time (the ContextScope discipline). Every
/// kind keeps one cell per catalog id; an id of metric::kCount or beyond
/// throws std::out_of_range, as metric_def does.
class Context {
 public:
  Context() = default;

  // ---- hot-path update API ----
  void count(MetricId id, std::uint64_t delta = 1);
  void gauge_set(MetricId id, double value);
  void observe(MetricId id, double value);
  void timer_add(MetricId id, std::uint64_t ns);
  std::size_t span_open(MetricId id, util::TimePoint begin, std::uint32_t lane = 0);
  void span_close(std::size_t handle, util::TimePoint end);
  void instant(MetricId id, util::TimePoint ts, std::uint32_t lane = 0);

  // ---- read API ----
  std::uint64_t counter(MetricId id) const;
  /// nullptr when the gauge/histogram/timer was never touched in this context.
  const GaugeCell* gauge(MetricId id) const;
  const HistogramCell* histogram(MetricId id) const;
  const TimerCell* timer(MetricId id) const;
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  bool empty() const;

  /// Fold `other` into this context. Counter/histogram/timer merges are
  /// elementwise integer (or order-fixed double) adds — associative and
  /// commutative — so any merge tree over the same shard set yields the same
  /// totals. Gauge `last` keeps the operand that has samples (preferring
  /// `other`); min/max/sum/count combine commutatively. Spans and instants
  /// append in operand order.
  void merge_from(const Context& other);

  /// The context installed on this thread, or nullptr.
  static Context* current() { return current_; }

 private:
  friend class ContextScope;

  /// Installed by the innermost live ContextScope on this thread. constinit
  /// tells the compiler there is no dynamic initialiser, so every read is a
  /// plain TLS load with no wrapper call.
  static inline constinit thread_local Context* current_ = nullptr;

  std::array<std::uint64_t, metric::kCount> counters_{};
  std::array<GaugeCell, metric::kCount> gauges_{};
  std::array<HistogramCell, metric::kCount> histograms_{};
  std::array<TimerCell, metric::kCount> timers_{};
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
};

/// RAII thread-local installer. Passing nullptr installs no context, which
/// disables every instrument on this thread for the scope's lifetime.
/// Restores the previous context on destruction, so scopes nest.
class ContextScope {
 public:
  explicit ContextScope(Context* context) : previous_{Context::current_} {
    Context::current_ = context;
  }
  ~ContextScope() { Context::current_ = previous_; }

  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  Context* previous_;
};

/// Bucket index in [0, bounds.size()] for `value`: 0 = underflow (value <
/// bounds.front() or NaN), bounds.size() = overflow (value >= bounds.back()).
std::size_t histogram_bucket(std::span<const double> bounds, double value);

/// Quantile by bucket upper bound: the smallest boundary b such that at
/// least ceil(q * count) samples fell in buckets with upper bound <= b.
/// Underflow resolves to bounds.front(), overflow clamps to bounds.back().
/// Returns 0 for an empty cell.
double histogram_quantile(std::span<const double> bounds, const HistogramCell& cell,
                          double q);

}  // namespace rdsim::obs
