#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "util/rng.hpp"

namespace rdsim::util {
namespace {

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a{42, 7};
  Pcg32 b{42, 7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a{1};
  Pcg32 b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a{42, 1};
  Pcg32 b{42, 2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, NextBelowRespectsBound) {
  Pcg32 rng{123};
  for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Pcg32, NextBelowCoversRange) {
  Pcg32 rng{9};
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, DoubleInUnitInterval) {
  Pcg32 rng{77};
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, UniformMean) {
  Random rng{2024};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Random, UniformRangeRespected) {
  Random rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Random, UniformIntInclusive) {
  Random rng{4};
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(7, 2), 7);  // degenerate: returns lo
}

TEST(Random, BernoulliRate) {
  Random rng{11};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Random, NormalMoments) {
  Random rng{13};
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Random, NormalScaled) {
  Random rng{17};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Random, ExponentialMean) {
  Random rng{19};
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_EQ(rng.exponential(0.0), 0.0);
}

TEST(Random, WeightedIndexProportions) {
  Random rng{23};
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);  // zero weight never picked
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Random, WeightedIndexDegenerate) {
  Random rng{29};
  EXPECT_EQ(rng.weighted_index({}), 0u);
  EXPECT_EQ(rng.weighted_index({0.0, 0.0}), 0u);
}

TEST(Splitmix64, MatchesReferenceVectors) {
  // Reference outputs of Vigna's splitmix64 for state 0, 1, 2, ... — the
  // same constants every public implementation uses.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(splitmix64(2), 0x975835de1c9756ceULL);
  EXPECT_EQ(splitmix64(0x123456789abcdefULL), splitmix64(0x123456789abcdefULL));
}

TEST(Splitmix64, AvalanchesOnSingleBitFlips) {
  // Flipping one input bit should flip roughly half the output bits; this is
  // what makes neighbouring subject indices produce unrelated sub-seeds.
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = splitmix64(0xdeadbeefULL);
    const std::uint64_t b = splitmix64(0xdeadbeefULL ^ (1ULL << bit));
    const int flipped = std::popcount(a ^ b);
    EXPECT_GT(flipped, 10) << "bit " << bit;
    EXPECT_LT(flipped, 54) << "bit " << bit;
  }
}

TEST(Splitmix64, SubjectSubSeedsAreDistinct) {
  // The roster derives seed_i = splitmix64(campaign ^ splitmix64(i)); no two
  // subjects across several campaigns may collide.
  std::set<std::uint64_t> seen;
  for (std::uint64_t campaign : {7ULL, 11ULL, 42ULL, 0ULL}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      seen.insert(splitmix64(campaign ^ splitmix64(i)));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(Random, ShufflePermutes) {
  Random rng{31};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

}  // namespace
}  // namespace rdsim::util
