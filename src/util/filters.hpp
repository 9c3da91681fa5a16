// Signal filter for the SRR metric.
//
// SAE J2944's steering-reversal algorithm requires a low-pass filter in front
// of the stationary-point search; we provide a 2nd-order Butterworth (the
// common choice in the driving-metrics literature).
#pragma once

#include <vector>

namespace rdsim::util {

/// 2nd-order Butterworth low-pass via bilinear transform. Fixed sample rate.
class ButterworthLowPass {
 public:
  /// `cutoff_hz` must be < sample_rate_hz / 2.
  ButterworthLowPass(double cutoff_hz, double sample_rate_hz);

  double step(double input);
  void reset();

  /// Filter a whole sequence, priming the state with the first sample to
  /// avoid a start-up transient.
  std::vector<double> filter(const std::vector<double>& input);

  /// Zero-phase (forward-backward) filtering, as recommended for offline
  /// metric computation where phase lag would bias reversal timing.
  std::vector<double> filtfilt(const std::vector<double>& input);

 private:
  void prime(double value);

  double b0_, b1_, b2_, a1_, a2_;
  double x1_{0.0}, x2_{0.0}, y1_{0.0}, y2_{0.0};
  bool primed_{false};
};

}  // namespace rdsim::util
