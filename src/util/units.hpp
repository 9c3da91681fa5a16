// Compile-time dimensional-unit strong types.
//
// The paper's safety conclusions hinge on quantities with units — delay and
// jitter in milliseconds, speeds in m/s (reported in km/h), TTC thresholds in
// seconds, shaper rates in bits per second — and related latency studies show
// those conclusions flip on small magnitude errors (exactly the ms-vs-s bug
// class). This header makes the unit part of the type: a wrong-unit
// assignment is a compile error, and every cross-unit conversion is an
// explicit, named function that lives *here* (the only place the lint
// `python3 -m tools.rdsim_lint.cli --rules units` permits conversion
// constants like 1e3 or 3.6).
//
// Design rules:
//   - zero overhead: each type is one double, all operations are the same
//     IEEE operations the raw code performed, in the same order, so a
//     migration from `double x_s` to `Seconds x` is bit-identical;
//   - same-unit arithmetic (+, -, scalar *, /) is implicit, cross-unit
//     arithmetic exists only where dimensionally sound
//     (Meters / MetersPerSecond -> Seconds, MetersPerSecond * Seconds ->
//     Meters, ...), everything else is a compile error;
//   - conversions are explicit and spelled with both units
//     (`to_millis()`, `from_kmh()`, `from_kbit()`); there are no implicit
//     conversions to or from double — use `value()` at the boundary;
//   - `Probability` is range-contracted to [0, 1] via RDSIM_REQUIRE at
//     construction, so an out-of-range config value is rejected when it is
//     built, not when it misbehaves mid-campaign.
#pragma once

#include <compare>

#include "util/time.hpp"

namespace rdsim::units {

/// CRTP base holding the raw double and the same-unit arithmetic shared by
/// every dimensioned quantity. Derived types add only their explicit
/// cross-unit conversions.
template <class Derived>
class QuantityBase {
 public:
  constexpr QuantityBase() = default;

  /// The raw magnitude in the type's canonical unit. The only way out of the
  /// type system; use at numeric boundaries (formatting, hashing, formulas
  /// whose dimensional bookkeeping is done by hand).
  constexpr double value() const { return v_; }

  friend constexpr Derived operator+(Derived a, Derived b) {
    return Derived{a.v_ + b.v_};
  }
  friend constexpr Derived operator-(Derived a, Derived b) {
    return Derived{a.v_ - b.v_};
  }
  friend constexpr Derived operator*(Derived a, double k) { return Derived{a.v_ * k}; }
  friend constexpr Derived operator*(double k, Derived a) { return Derived{k * a.v_}; }
  friend constexpr Derived operator/(Derived a, double k) { return Derived{a.v_ / k}; }
  /// Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Derived a, Derived b) { return a.v_ / b.v_; }
  constexpr Derived operator-() const { return Derived{-v_}; }
  constexpr Derived& operator+=(Derived b) {
    v_ += b.v_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator-=(Derived b) {
    v_ -= b.v_;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator*=(double k) {
    v_ *= k;
    return static_cast<Derived&>(*this);
  }
  constexpr Derived& operator/=(double k) {
    v_ /= k;
    return static_cast<Derived&>(*this);
  }

  friend constexpr auto operator<=>(Derived a, Derived b) { return a.v_ <=> b.v_; }
  friend constexpr bool operator==(Derived a, Derived b) { return a.v_ == b.v_; }

 protected:
  constexpr explicit QuantityBase(double v) : v_{v} {}
  double v_{0.0};
};

class Millis;

/// A duration in seconds (floating point — the analysis-side counterpart of
/// the integer-microsecond util::Duration used by the virtual clock).
class Seconds : public QuantityBase<Seconds> {
 public:
  constexpr Seconds() = default;
  constexpr explicit Seconds(double s) : QuantityBase{s} {}

  constexpr Millis to_millis() const;
  /// Exact round-trip with the virtual clock's integer-microsecond Duration
  /// (same operation the raw code performed: Duration::seconds(x)).
  constexpr util::Duration to_duration() const { return util::Duration::seconds(v_); }
  static constexpr Seconds from_duration(util::Duration d) {
    return Seconds{d.to_seconds()};
  }
};

/// A duration in milliseconds. Deliberately *not* interoperable with Seconds
/// except through the named conversions — mixing the two scales silently is
/// the bug class this header exists to kill.
class Millis : public QuantityBase<Millis> {
 public:
  constexpr Millis() = default;
  constexpr explicit Millis(double ms) : QuantityBase{ms} {}

  constexpr Seconds to_seconds() const { return Seconds{v_ / 1e3}; }
  constexpr util::Duration to_duration() const {
    return util::Duration::seconds(v_ / 1e3);
  }
  static constexpr Millis from_duration(util::Duration d) {
    return Millis{d.to_millis()};
  }
};

constexpr Millis Seconds::to_millis() const { return Millis{v_ * 1e3}; }

/// A length (or arc length along the road) in metres.
class Meters : public QuantityBase<Meters> {
 public:
  constexpr Meters() = default;
  constexpr explicit Meters(double m) : QuantityBase{m} {}
};

/// A speed in metres per second; km/h exists only as an explicit conversion.
class MetersPerSecond : public QuantityBase<MetersPerSecond> {
 public:
  constexpr MetersPerSecond() = default;
  constexpr explicit MetersPerSecond(double mps) : QuantityBase{mps} {}

  static constexpr MetersPerSecond from_kmh(double kmh) {
    return MetersPerSecond{kmh / 3.6};
  }
  constexpr double to_kmh() const { return v_ * 3.6; }
};

/// An acceleration in metres per second squared.
class MetersPerSecond2 : public QuantityBase<MetersPerSecond2> {
 public:
  constexpr MetersPerSecond2() = default;
  constexpr explicit MetersPerSecond2(double mps2) : QuantityBase{mps2} {}
};

/// A data rate in bytes per second. The tc-style bit-rate suffixes (kbit,
/// mbit, ... and the kbps/mbps byte rates) are explicit constructors, so the
/// `* 1000.0 / 8.0` family of conversion constants appears exactly once in
/// the codebase: here.
class BytesPerSecond : public QuantityBase<BytesPerSecond> {
 public:
  constexpr BytesPerSecond() = default;
  constexpr explicit BytesPerSecond(double bytes_per_second)
      : QuantityBase{bytes_per_second} {}

  // Bit rates (tc suffixes bit/kbit/mbit/gbit use decimal multipliers).
  static constexpr BytesPerSecond from_bit(double v) { return BytesPerSecond{v / 8.0}; }
  static constexpr BytesPerSecond from_kbit(double v) {
    return BytesPerSecond{v * 1000.0 / 8.0};
  }
  static constexpr BytesPerSecond from_mbit(double v) {
    return BytesPerSecond{v * 1000.0 * 1000.0 / 8.0};
  }
  static constexpr BytesPerSecond from_gbit(double v) {
    return BytesPerSecond{v * 1000.0 * 1000.0 * 1000.0 / 8.0};
  }
  // Byte rates (tc's bps family is *bytes* per second).
  static constexpr BytesPerSecond from_bps(double v) { return BytesPerSecond{v}; }
  static constexpr BytesPerSecond from_kbps(double v) {
    return BytesPerSecond{v * 1000.0};
  }
  static constexpr BytesPerSecond from_mbps(double v) {
    return BytesPerSecond{v * 1000.0 * 1000.0};
  }

  constexpr double to_bit() const { return v_ * 8.0; }
  constexpr double to_kbit() const { return v_ * 8.0 / 1000.0; }
};

// ---- dimensional arithmetic -------------------------------------------------
// Only the combinations that are dimensionally sound exist; anything else is
// a compile error. Each is the plain double operation, so replacing a
// hand-written formula with the typed one is bit-identical.

constexpr Seconds operator/(Meters d, MetersPerSecond v) {
  return Seconds{d.value() / v.value()};
}
constexpr Meters operator*(MetersPerSecond v, Seconds t) {
  return Meters{v.value() * t.value()};
}
constexpr Meters operator*(Seconds t, MetersPerSecond v) {
  return Meters{t.value() * v.value()};
}
constexpr MetersPerSecond operator/(Meters d, Seconds t) {
  return MetersPerSecond{d.value() / t.value()};
}
constexpr MetersPerSecond operator*(MetersPerSecond2 a, Seconds t) {
  return MetersPerSecond{a.value() * t.value()};
}
constexpr MetersPerSecond operator*(Seconds t, MetersPerSecond2 a) {
  return MetersPerSecond{t.value() * a.value()};
}
constexpr MetersPerSecond2 operator/(MetersPerSecond v, Seconds t) {
  return MetersPerSecond2{v.value() / t.value()};
}
constexpr Seconds operator/(MetersPerSecond v, MetersPerSecond2 a) {
  return Seconds{v.value() / a.value()};
}

/// Serialization time of `bytes` over `rate`, for netem's rate control.
constexpr Seconds transmit_time(double bytes, BytesPerSecond rate) {
  return Seconds{bytes / rate.value()};
}

// ---- Probability ------------------------------------------------------------

/// A probability (or correlation coefficient) contracted to [0, 1].
///
/// The checked constructor dispatches RDSIM_REQUIRE on out-of-range input —
/// under the test policy (kThrow) construction throws, under the counting
/// policies the value is clamped into range so the invariant holds
/// regardless — and is therefore deliberately not constexpr. The default
/// constructor (p = 0) is.
class Probability {
 public:
  constexpr Probability() = default;
  explicit Probability(double p);  // contract-checked, in units.cpp

  constexpr double value() const { return v_; }
  double percent() const { return v_ * 100.0; }
  static Probability from_percent(double pct) { return Probability{pct / 100.0}; }

  /// 1 - p (e.g. tc's gemodel encodes h as its complement).
  Probability complement() const { return Probability{1.0 - v_}; }

  friend constexpr auto operator<=>(Probability a, Probability b) {
    return a.v_ <=> b.v_;
  }
  friend constexpr bool operator==(Probability a, Probability b) {
    return a.v_ == b.v_;
  }

 private:
  double v_{0.0};
};

}  // namespace rdsim::units
