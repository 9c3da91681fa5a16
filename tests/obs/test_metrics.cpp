// Known-answer and algebraic tests for the obs metrics layer: catalog
// identity, exact histogram bucketing/quantiles against geometric bucket
// bounds (no floating-point slop — quantiles return bound values), and merge
// associativity/commutativity across shards.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace rdsim::obs {
namespace {

// Catalog ids standing in for one metric of each kind.
constexpr MetricId kCounterId = metric::kFifoEnqueued;
constexpr MetricId kGaugeId = metric::kFifoDepth;
constexpr MetricId kHistogramId = metric::kOpFrameAgeMillis;
constexpr MetricId kTimerId = metric::kPhaseStep;

// 4 geometric buckets over [1, 16): bounds exactly 1, 2, 4, 8, 16.
const std::vector<double>& small_bounds() {
  static const std::vector<double> bounds = geometric_bounds(HistogramSpec{1.0, 16.0, 4});
  return bounds;
}

TEST(ObsCatalog, DefinesEveryFirstPartyMetric) {
  // The first-party catalog is a compile-time table; spot-check identity
  // and that histogram bounds are pinned exactly at the spec endpoints.
  EXPECT_EQ(metric_def(metric::kNetemEnqueued).name, "qdisc.netem.enqueued");
  const MetricDef& age = metric_def(metric::kOpFrameAgeMillis);
  ASSERT_EQ(age.kind, MetricKind::kHistogram);
  const std::span<const double> bounds = histogram_bounds(metric::kOpFrameAgeMillis);
  ASSERT_EQ(bounds.size(), 49u);
  EXPECT_EQ(bounds.front(), 1.0);
  EXPECT_EQ(bounds.back(), 1e4);
}

TEST(ObsHistogram, GeometricBoundsAreExactPowersForPowerOfTwoSpan) {
  const std::vector<double>& bounds = small_bounds();
  const std::vector<double> expected{1.0, 2.0, 4.0, 8.0, 16.0};
  ASSERT_EQ(bounds.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], expected[i]) << "bound " << i;
  }
}

TEST(ObsHistogram, KnownAnswerBucketingAndQuantiles) {
  const std::vector<double>& bounds = small_bounds();
  // Bucket layout: [underflow)<1, [1,2), [2,4), [4,8), [8,16), overflow>=16.
  EXPECT_EQ(histogram_bucket(bounds, 0.5), 0u);   // underflow
  EXPECT_EQ(histogram_bucket(bounds, 1.0), 1u);
  EXPECT_EQ(histogram_bucket(bounds, 1.999), 1u);
  EXPECT_EQ(histogram_bucket(bounds, 2.0), 2u);
  EXPECT_EQ(histogram_bucket(bounds, 7.999), 3u);
  EXPECT_EQ(histogram_bucket(bounds, 8.0), 4u);
  EXPECT_EQ(histogram_bucket(bounds, 16.0), 5u);  // overflow (>= max)
  EXPECT_EQ(histogram_bucket(bounds, 1e9), 5u);
  EXPECT_EQ(histogram_bucket(bounds, std::numeric_limits<double>::quiet_NaN()), 0u);

  HistogramCell cell;
  // 10 samples: 4 in [1,2), 3 in [2,4), 2 in [4,8), 1 in [8,16).
  for (const double v : {1.0, 1.2, 1.5, 1.9}) cell.add(bounds, v);
  for (const double v : {2.0, 3.0, 3.9}) cell.add(bounds, v);
  for (const double v : {4.5, 7.0}) cell.add(bounds, v);
  cell.add(bounds, 9.0);

  EXPECT_EQ(cell.count, 10u);
  const std::vector<std::uint64_t> expected_counts{0, 4, 3, 2, 1, 0};
  EXPECT_EQ(cell.counts, expected_counts);

  // Quantiles resolve to the exact upper bound of the rank's bucket:
  // ranks 1-4 -> bound 2, ranks 5-7 -> bound 4, 8-9 -> 8, 10 -> 16.
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.10), 2.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.40), 2.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.50), 4.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.70), 4.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.90), 8.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 1.00), 16.0);
}

TEST(ObsHistogram, UnderflowAndOverflowQuantileEndpoints) {
  const std::vector<double>& bounds = small_bounds();
  HistogramCell cell;
  cell.add(bounds, 0.01);  // underflow
  cell.add(bounds, 99.0);  // overflow
  EXPECT_EQ(cell.counts.front(), 1u);
  EXPECT_EQ(cell.counts.back(), 1u);
  // Underflow rank resolves to the min bound; overflow clamps to the max.
  EXPECT_EQ(histogram_quantile(bounds, cell, 0.25), 1.0);
  EXPECT_EQ(histogram_quantile(bounds, cell, 1.0), 16.0);
}

Context make_shard(unsigned salt) {
  Context ctx;
  for (unsigned i = 0; i <= salt; ++i) {
    ctx.count(kCounterId, i + 1);
    ctx.gauge_set(kGaugeId, static_cast<double>(salt * 10 + i));
    ctx.observe(kHistogramId, 1.0 + static_cast<double>((salt + i) % 20));
    ctx.timer_add(kTimerId, 100 * (salt + 1));
  }
  return ctx;
}

std::vector<std::uint64_t> histogram_counts(const Context& ctx) {
  const HistogramCell* cell = ctx.histogram(kHistogramId);
  return cell != nullptr ? cell->counts : std::vector<std::uint64_t>{};
}

TEST(ObsMerge, AssociativeAndCommutativeAcrossShards) {
  // (a + b) + c == a + (b + c) and order does not matter for every
  // deterministic aggregate (counters, histogram counts, gauge min/max/sum).
  const Context a = make_shard(0), b = make_shard(3), c = make_shard(7);

  Context left;  // (a + b) + c
  left.merge_from(a);
  left.merge_from(b);
  left.merge_from(c);

  Context bc;  // a + (b + c)
  bc.merge_from(b);
  bc.merge_from(c);
  Context right;
  right.merge_from(a);
  right.merge_from(bc);

  Context reversed;  // c + b + a
  reversed.merge_from(c);
  reversed.merge_from(b);
  reversed.merge_from(a);

  for (const Context* other : {&right, &reversed}) {
    EXPECT_EQ(left.counter(kCounterId), other->counter(kCounterId));
    EXPECT_EQ(histogram_counts(left), histogram_counts(*other));
    const GaugeCell* lg = left.gauge(kGaugeId);
    const GaugeCell* og = other->gauge(kGaugeId);
    ASSERT_NE(lg, nullptr);
    ASSERT_NE(og, nullptr);
    EXPECT_EQ(lg->min, og->min);
    EXPECT_EQ(lg->max, og->max);
    EXPECT_EQ(lg->count, og->count);
    const TimerCell* lt = left.timer(kTimerId);
    const TimerCell* ot = other->timer(kTimerId);
    ASSERT_NE(lt, nullptr);
    ASSERT_NE(ot, nullptr);
    EXPECT_EQ(lt->total_ns, ot->total_ns);
    EXPECT_EQ(lt->count, ot->count);
  }
}

TEST(ObsMerge, MergeEqualsSingleContextObservingEverything) {
  // Sharding must be invisible: observing the same samples in one context or
  // split across N merged shards yields identical deterministic state.
  Context merged;
  for (const unsigned salt : {0u, 3u, 7u}) merged.merge_from(make_shard(salt));

  Context single;
  for (const unsigned salt : {0u, 3u, 7u}) {
    for (unsigned i = 0; i <= salt; ++i) {
      single.count(kCounterId, i + 1);
      single.gauge_set(kGaugeId, static_cast<double>(salt * 10 + i));
      single.observe(kHistogramId, 1.0 + static_cast<double>((salt + i) % 20));
      single.timer_add(kTimerId, 100 * (salt + 1));
    }
  }

  EXPECT_EQ(merged.counter(kCounterId), single.counter(kCounterId));
  EXPECT_EQ(histogram_counts(merged), histogram_counts(single));
  ASSERT_NE(merged.gauge(kGaugeId), nullptr);
  EXPECT_EQ(merged.gauge(kGaugeId)->min, single.gauge(kGaugeId)->min);
  EXPECT_EQ(merged.gauge(kGaugeId)->max, single.gauge(kGaugeId)->max);
  EXPECT_EQ(merged.gauge(kGaugeId)->sum, single.gauge(kGaugeId)->sum);
}

TEST(ObsContext, GaugeTracksLastMinMaxMeanCount) {
  Context ctx;
  EXPECT_EQ(ctx.gauge(kGaugeId), nullptr);  // untouched -> null
  for (const double v : {5.0, 1.0, 9.0, 3.0}) ctx.gauge_set(kGaugeId, v);
  const GaugeCell* g = ctx.gauge(kGaugeId);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->last, 3.0);
  EXPECT_EQ(g->min, 1.0);
  EXPECT_EQ(g->max, 9.0);
  EXPECT_EQ(g->count, 4u);
  EXPECT_DOUBLE_EQ(g->mean(), 4.5);
}

TEST(ObsContext, EmptyDetectsAnyActivity) {
  Context ctx;
  EXPECT_TRUE(ctx.empty());
  ctx.count(kCounterId, 1);
  EXPECT_FALSE(ctx.empty());

  Context with_span;
  const std::size_t h = with_span.span_open(kCounterId, util::TimePoint{});
  with_span.span_close(h, util::TimePoint::from_micros(10));
  EXPECT_FALSE(with_span.empty());
}

TEST(ObsContext, RejectsIdsOutsideTheCatalog) {
  // Cells are sized by the catalog; an id past its end throws like
  // metric_def instead of writing out of bounds.
  const auto past_end = static_cast<MetricId>(metric::kCount);
  EXPECT_THROW(metric_def(past_end), std::out_of_range);
  Context ctx;
  EXPECT_THROW(ctx.count(past_end, 1), std::out_of_range);
  EXPECT_THROW(ctx.gauge_set(past_end, 1.0), std::out_of_range);
  EXPECT_THROW(ctx.observe(past_end, 1.0), std::out_of_range);
  EXPECT_THROW(ctx.timer_add(past_end, 1), std::out_of_range);
  EXPECT_THROW(ctx.counter(past_end), std::out_of_range);
  EXPECT_THROW(ctx.gauge(past_end), std::out_of_range);
  EXPECT_THROW(ctx.histogram(past_end), std::out_of_range);
  EXPECT_THROW(ctx.timer(past_end), std::out_of_range);
  EXPECT_TRUE(ctx.empty());
}

}  // namespace
}  // namespace rdsim::obs
