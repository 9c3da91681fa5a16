// Fixed-size log-linear histogram of non-negative integer samples (tick
// latencies in nanoseconds).
//
// Values below 128 land in exact unit buckets. Above that, every power of
// two is split into 128 equal sub-buckets, so a bucket is never wider than
// 1/128 of its lower bound. quantile() answers with the bucket midpoint,
// which is within 0.4 % of every value the bucket holds — inside the 1 %
// relative error the benchmark promises for its tick percentiles.
//
// The bucket array is allocated once (≈42 KiB) and never grows, so keeping
// every tick of a long campaign costs no more memory than keeping one.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rdsim::bench {

class LogLinearHistogram {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Values at or above 2^kMaxExp (≈78 h in ns) share the last bucket.
  static constexpr unsigned kMaxExp = 48;
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  LogLinearHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t value) {
    ++counts_[index(value)];
    ++count_;
  }

  void merge(const LogLinearHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
  }

  std::uint64_t count() const { return count_; }

  /// Nearest-rank quantile, q in [0, 1]: the representative value of the
  /// bucket holding the ceil(q·count)-th smallest sample. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double want = std::ceil(q * static_cast<double>(count_));
    const std::uint64_t rank = want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static std::size_t index(std::uint64_t value) {
    if (value < kSub) return static_cast<std::size_t>(value);
    const unsigned exp = static_cast<unsigned>(std::bit_width(value)) - 1;
    if (exp >= kMaxExp) return kBuckets - 1;
    const unsigned shift = exp - kSubBits;
    const std::uint64_t sub = (value >> shift) - kSub;
    return static_cast<std::size_t>(kSub + shift * kSub + sub);
  }

  /// Midpoint of the integer values bucket `i` holds.
  static double midpoint(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::uint64_t shift = (i - kSub) / kSub;
    const std::uint64_t sub = (i - kSub) % kSub;
    const std::uint64_t lo = (kSub + sub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_{0};
};

}  // namespace rdsim::bench
