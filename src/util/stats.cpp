#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace rdsim::util {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::optional<double> percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nullopt;
  q = std::clamp(q, 0.0, 100.0);
  std::sort(values.begin(), values.end());
  const double rank = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::optional<double> pearson(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return std::nullopt;
  RunningStats sa;
  RunningStats sb;
  for (double v : a) sa.add(v);
  for (double v : b) sb.add(v);
  if (sa.stddev() == 0.0 || sb.stddev() == 0.0) return std::nullopt;
  double cov = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  }
  cov /= static_cast<double>(a.size() - 1);
  return cov / (sa.stddev() * sb.stddev());
}

}  // namespace rdsim::util
