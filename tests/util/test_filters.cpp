#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/filters.hpp"

namespace rdsim::util {
namespace {

TEST(Butterworth, RejectsInvalidCutoff) {
  EXPECT_THROW(ButterworthLowPass(0.0, 100.0), std::invalid_argument);
  EXPECT_THROW(ButterworthLowPass(60.0, 100.0), std::invalid_argument);
  EXPECT_THROW(ButterworthLowPass(1.0, 0.0), std::invalid_argument);
}

TEST(Butterworth, UnityDcGain) {
  ButterworthLowPass lp{1.0, 50.0};
  double v = 0.0;
  for (int i = 0; i < 2000; ++i) v = lp.step(2.5);
  EXPECT_NEAR(v, 2.5, 1e-6);
}

TEST(Butterworth, AttenuatesAboveCutoff) {
  // 10 Hz sine through a 1 Hz filter at 100 Hz sampling: -40 dB/decade for a
  // 2nd-order filter means roughly 1% passband amplitude remains.
  ButterworthLowPass lp{1.0, 100.0};
  double peak = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double x = std::sin(2.0 * std::numbers::pi * 10.0 * i / 100.0);
    const double y = lp.step(x);
    if (i > 500) peak = std::max(peak, std::fabs(y));
  }
  EXPECT_LT(peak, 0.03);
}

TEST(Butterworth, PassesBelowCutoff) {
  ButterworthLowPass lp{5.0, 100.0};
  double peak = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double x = std::sin(2.0 * std::numbers::pi * 0.2 * i / 100.0);
    const double y = lp.step(x);
    if (i > 2000) peak = std::max(peak, std::fabs(y));
  }
  EXPECT_GT(peak, 0.97);
}

TEST(Butterworth, FiltFiltIsZeroPhase) {
  // The peak of a slow pulse should not shift in time.
  ButterworthLowPass lp{2.0, 100.0};
  std::vector<double> x(400, 0.0);
  for (int i = 150; i < 250; ++i) {
    x[static_cast<std::size_t>(i)] =
        std::sin(std::numbers::pi * (i - 150) / 100.0);
  }
  const auto y = lp.filtfilt(x);
  std::size_t argmax_x = 0;
  std::size_t argmax_y = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > x[argmax_x]) argmax_x = i;
    if (y[i] > y[argmax_y]) argmax_y = i;
  }
  EXPECT_NEAR(static_cast<double>(argmax_y), static_cast<double>(argmax_x), 3.0);
}

TEST(Butterworth, FilterPrimedAvoidsStartupTransient) {
  ButterworthLowPass lp{1.0, 100.0};
  const std::vector<double> constant(100, 5.0);
  const auto out = lp.filter(constant);
  for (double v : out) EXPECT_NEAR(v, 5.0, 1e-9);
}

}  // namespace
}  // namespace rdsim::util
