// Deterministic random number generation.
//
// Experiments must be reproducible across platforms, so we ship our own PCG32
// generator (O'Neill's pcg_oneseq_64_xsh_rr_32) and distribution helpers
// instead of relying on implementation-defined std::distribution behaviour.
#pragma once

#include <cstdint>
#include <vector>

namespace rdsim::util {

/// SplitMix64 output mix (Steele, Lea & Flood): one application maps a
/// counter-like input to a statistically independent 64-bit value. Used to
/// derive per-subject / per-run sub-seeds from one campaign seed, so every
/// RNG stream in a campaign is a pure function of (campaign seed, purpose) —
/// no shared-generator sequencing, hence order-independent and safe to
/// evaluate from any thread.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// PCG32: small, fast, statistically solid 32-bit generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  result_type operator()() { return next_u32(); }
  std::uint32_t next_u32();

  /// Unbiased integer in [0, bound) via Lemire rejection.
  std::uint32_t next_below(std::uint32_t bound);

  /// Uniform double in [0, 1).
  double next_double();

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Distribution helpers over Pcg32. Stateless unless noted.
class Random {
 public:
  explicit Random(std::uint64_t seed, std::uint64_t stream = 1) : rng_{seed, stream} {}

  double uniform() { return rng_.next_double(); }
  double uniform(double lo, double hi) { return lo + (hi - lo) * rng_.next_double(); }
  /// Integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);
  bool bernoulli(double p) { return rng_.next_double() < p; }
  /// Standard normal via Marsaglia polar method (cached second deviate).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }
  double exponential(double rate);
  /// Index drawn proportionally to non-negative weights; empty/zero-sum
  /// weights yield index 0.
  std::size_t weighted_index(const std::vector<double>& weights);
  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[rng_.next_below(static_cast<std::uint32_t>(i))]);
    }
  }

  Pcg32& engine() { return rng_; }

 private:
  Pcg32 rng_;
  bool has_spare_{false};
  double spare_{0.0};
};

}  // namespace rdsim::util
