// Virtual simulation time.
//
// The entire testbed (simulator, network emulator, operator model) runs on a
// single discrete virtual clock so experiments are bit-reproducible and never
// depend on wall-clock scheduling. Time is stored as integer microseconds to
// keep comparisons exact; conversions to floating-point seconds are explicit.
#pragma once

#include <cstdint>
#include <compare>
#include <optional>

namespace rdsim::util {

/// A span of virtual time, microsecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration micros(std::int64_t us) { return Duration{us}; }
  static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1000}; }
  static constexpr Duration seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e6)};
  }
  /// micros() and seconds() of a double that may be out of range: nullopt
  /// when the microsecond count is not finite or does not fit int64_t, where
  /// the plain cast is undefined. In range, the same truncation.
  static constexpr std::optional<Duration> checked_micros(double us) {
    // int64_t holds [-2^63, 2^63); NaN fails both comparisons.
    if (!(us >= -0x1p63 && us < 0x1p63)) return std::nullopt;
    return Duration{static_cast<std::int64_t>(us)};
  }
  static constexpr std::optional<Duration> checked_seconds(double s) {
    return checked_micros(s * 1e6);
  }

  constexpr std::int64_t count_micros() const { return us_; }
  constexpr double to_millis() const { return static_cast<double>(us_) / 1e3; }
  constexpr double to_seconds() const { return static_cast<double>(us_) / 1e6; }

  constexpr bool is_zero() const { return us_ == 0; }
  constexpr bool is_negative() const { return us_ < 0; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.us_ + b.us_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.us_ - b.us_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.us_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return Duration{a.us_ * k}; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.us_ / k}; }
  constexpr Duration& operator+=(Duration b) { us_ += b.us_; return *this; }
  constexpr Duration& operator-=(Duration b) { us_ -= b.us_; return *this; }
  constexpr Duration operator-() const { return Duration{-us_}; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

 private:
  constexpr explicit Duration(std::int64_t us) : us_{us} {}
  std::int64_t us_{0};
};

/// An instant on the virtual clock. Zero is the start of the experiment.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  static constexpr TimePoint from_micros(std::int64_t us) { return TimePoint{us}; }
  static constexpr TimePoint from_seconds(double s) {
    return TimePoint{static_cast<std::int64_t>(s * 1e6)};
  }

  constexpr std::int64_t count_micros() const { return us_; }
  constexpr double to_seconds() const { return static_cast<double>(us_) / 1e6; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.us_ + d.count_micros()};
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.us_ - d.count_micros()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::micros(a.us_ - b.us_);
  }
  constexpr TimePoint& operator+=(Duration d) { us_ += d.count_micros(); return *this; }

  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

 private:
  constexpr explicit TimePoint(std::int64_t us) : us_{us} {}
  std::int64_t us_{0};
};

/// Monotonic virtual clock advanced by the top-level stepping loop.
class VirtualClock {
 public:
  TimePoint now() const { return now_; }

  /// Advance by `dt`; `dt` must be non-negative.
  void advance(Duration dt) {
    if (!dt.is_negative()) now_ += dt;
  }

  void reset() { now_ = TimePoint{}; }

 private:
  TimePoint now_{};
};

}  // namespace rdsim::util
