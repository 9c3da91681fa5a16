// Descriptive statistics for metric summaries (Tables III & IV style rows).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace rdsim::util {

/// Welford online accumulator: mean / variance / min / max in one pass.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset() { *this = RunningStats{}; }

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Linear-interpolated percentile; `q` in [0,100]. Returns nullopt if empty.
std::optional<double> percentile(std::vector<double> values, double q);

/// Pearson correlation of two equal-length series; nullopt on degenerate input.
std::optional<double> pearson(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace rdsim::util
