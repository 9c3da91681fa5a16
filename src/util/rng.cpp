#include "util/rng.hpp"

#include <cmath>

namespace rdsim::util {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream) : state_{0}, inc_{(stream << 1u) | 1u} {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint32_t Pcg32::next_below(std::uint32_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
  auto lo = static_cast<std::uint32_t>(m);
  if (lo < bound) {
    const std::uint32_t threshold = static_cast<std::uint32_t>(-bound) % bound;
    while (lo < threshold) {
      m = static_cast<std::uint64_t>(next_u32()) * bound;
      lo = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32u);
}

double Pcg32::next_double() {
  // 32 random bits scaled to [0,1): plenty of resolution for our purposes.
  return next_u32() * 0x1.0p-32;
}

int Random::uniform_int(int lo, int hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint32_t>(hi - lo + 1);
  return lo + static_cast<int>(rng_.next_below(span));
}

double Random::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = 2.0 * rng_.next_double() - 1.0;
    v = 2.0 * rng_.next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Random::exponential(double rate) {
  if (rate <= 0.0) return 0.0;
  double u = rng_.next_double();
  if (u <= 0.0) u = 1e-12;
  return -std::log(u) / rate;
}

std::size_t Random::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0 || weights.empty()) return 0;
  double r = rng_.next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace rdsim::util
