#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace rdsim::util {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 3.0 + i * 0.01;
    if (i % 2 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0).value(), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0).value(), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0).value(), 25.0);
  EXPECT_FALSE(percentile({}, 50.0).has_value());
  // Out-of-range quantiles clamp.
  EXPECT_DOUBLE_EQ(percentile(xs, 150.0).value(), 40.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(a, b).value(), 1.0, 1e-12);
  std::vector<double> c{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, c).value(), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputs) {
  EXPECT_FALSE(pearson({1.0}, {2.0}).has_value());
  EXPECT_FALSE(pearson({1, 2}, {1, 2, 3}).has_value());
  EXPECT_FALSE(pearson({1, 1, 1}, {1, 2, 3}).has_value());  // zero variance
}

}  // namespace
}  // namespace rdsim::util
