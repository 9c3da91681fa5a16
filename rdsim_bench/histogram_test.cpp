// Checks LogLinearHistogram quantiles against an exact nearest-rank sort on
// synthetic data, including the bimodal idle/frame-tick shape the benchmark
// records. Exits non-zero on the first quantile off by more than 1 %.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "histogram.hpp"

namespace {

int g_failures = 0;

double exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const double want = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t rank = want < 1.0 ? 1 : static_cast<std::size_t>(want);
  return static_cast<double>(sorted[rank - 1]);
}

void check(const std::string& name, const std::vector<std::uint64_t>& values) {
  rdsim::bench::LogLinearHistogram h;
  for (const std::uint64_t v : values) h.record(v);
  if (h.count() != values.size()) {
    std::printf("FAIL %s: count %llu != %zu\n", name.c_str(),
                static_cast<unsigned long long>(h.count()), values.size());
    ++g_failures;
  }
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.935, 0.99, 0.999, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double approx = h.quantile(q);
    const double err = exact == 0.0 ? std::abs(approx) : std::abs(approx - exact) / exact;
    if (err > 0.01) {
      std::printf("FAIL %s q=%.3f: histogram %.1f vs exact %.1f (%.3f %%)\n",
                  name.c_str(), q, approx, exact, 100.0 * err);
      ++g_failures;
    }
  }
}

}  // namespace

int main() {
  std::mt19937_64 rng{20230612};
  const std::size_t n = 200000;

  std::vector<std::uint64_t> uniform;
  std::uniform_int_distribution<std::uint64_t> u{0, 5'000'000};
  for (std::size_t i = 0; i < n; ++i) uniform.push_back(u(rng));
  check("uniform", uniform);

  std::vector<std::uint64_t> lognormal;
  std::lognormal_distribution<double> ln{8.0, 2.0};
  for (std::size_t i = 0; i < n; ++i) {
    lognormal.push_back(static_cast<std::uint64_t>(std::min(ln(rng), 1e13)));
  }
  check("lognormal", lognormal);

  // Idle ticks near 260 ns, 6.5 % frame-encode ticks near 63 µs.
  std::vector<std::uint64_t> ticks;
  std::normal_distribution<double> idle{260.0, 40.0};
  std::normal_distribution<double> frame{63000.0, 9000.0};
  std::bernoulli_distribution is_frame{0.065};
  for (std::size_t i = 0; i < n; ++i) {
    const double v = is_frame(rng) ? frame(rng) : idle(rng);
    ticks.push_back(static_cast<std::uint64_t>(std::max(v, 1.0)));
  }
  check("bimodal_ticks", ticks);

  std::vector<std::uint64_t> small;
  std::uniform_int_distribution<std::uint64_t> s{0, 300};
  for (std::size_t i = 0; i < n; ++i) small.push_back(s(rng));
  check("small_exact", small);

  check("constant", std::vector<std::uint64_t>(1000, 123456789));
  check("single", {42});
  check("wide", {(std::uint64_t{1} << 47) + 12345, std::uint64_t{1} << 40, 7});

  // Bucket boundaries: every bucket's midpoint must sit inside the bucket.
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 + 1) {
    const std::size_t i = rdsim::bench::LogLinearHistogram::index(v);
    const double mid = rdsim::bench::LogLinearHistogram::midpoint(i);
    if (std::abs(mid - static_cast<double>(v)) > 0.004 * static_cast<double>(v)) {
      std::printf("FAIL boundary v=%llu midpoint %.1f\n",
                  static_cast<unsigned long long>(v), mid);
      ++g_failures;
    }
  }

  if (g_failures == 0) std::printf("histogram_test: all quantiles within 1 %%\n");
  return g_failures == 0 ? 0 : 1;
}
