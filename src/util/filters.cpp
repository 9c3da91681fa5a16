#include "util/filters.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace rdsim::util {

ButterworthLowPass::ButterworthLowPass(double cutoff_hz, double sample_rate_hz) {
  if (cutoff_hz <= 0.0 || sample_rate_hz <= 0.0 || cutoff_hz >= sample_rate_hz / 2.0) {
    throw std::invalid_argument{"ButterworthLowPass: cutoff must be in (0, fs/2)"};
  }
  // Bilinear transform with pre-warping of the analog 2nd-order Butterworth.
  const double wc = std::tan(std::numbers::pi * cutoff_hz / sample_rate_hz);
  const double k1 = std::numbers::sqrt2 * wc;
  const double k2 = wc * wc;
  const double norm = 1.0 / (1.0 + k1 + k2);
  b0_ = k2 * norm;
  b1_ = 2.0 * b0_;
  b2_ = b0_;
  a1_ = 2.0 * (k2 - 1.0) * norm;
  a2_ = (1.0 - k1 + k2) * norm;
}

void ButterworthLowPass::prime(double value) {
  // Steady-state initialization: pretend the input has been `value` forever.
  x1_ = x2_ = value;
  y1_ = y2_ = value;
  primed_ = true;
}

double ButterworthLowPass::step(double input) {
  if (!primed_) prime(input);
  const double out = b0_ * input + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = input;
  y2_ = y1_;
  y1_ = out;
  return out;
}

void ButterworthLowPass::reset() {
  x1_ = x2_ = y1_ = y2_ = 0.0;
  primed_ = false;
}

std::vector<double> ButterworthLowPass::filter(const std::vector<double>& input) {
  reset();
  std::vector<double> out;
  out.reserve(input.size());
  for (double v : input) out.push_back(step(v));
  return out;
}

std::vector<double> ButterworthLowPass::filtfilt(const std::vector<double>& input) {
  std::vector<double> forward = filter(input);
  std::reverse(forward.begin(), forward.end());
  std::vector<double> backward = filter(forward);
  std::reverse(backward.begin(), backward.end());
  return backward;
}

}  // namespace rdsim::util
