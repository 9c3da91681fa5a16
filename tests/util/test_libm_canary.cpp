// libm canary: pins the bit patterns of every libm function src/ calls
// (sqrt and fmod are exact and left out). The golden campaign hashes depend
// on these results, so after a libm change this test names the function
// whose rounding moved instead of the whole corpus failing at once. The
// arguments are seeded draws over the ranges src/ feeds each function.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "util/rng.hpp"

namespace rdsim::util {
namespace {

constexpr int kArguments = 300;

/// FNV-1a over the bit patterns of `f` at kArguments seeded draws of `draw`.
std::uint64_t digest(const std::function<double(Random&)>& f, std::uint64_t stream) {
  Random rng{0x11b3c0a7, stream};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kArguments; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(f(rng));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(LibmCanary, PinsTheBitsOfEveryLibmCallInSrc) {
  struct Case {
    const char* name;
    std::function<double(Random&)> f;
    std::uint64_t expected;
  };
  // (0, 1]: the log arguments of the normal and exponential samplers, and
  // the probabilities of the entropy metric.
  const auto unit = [](Random& r) { return 1.0 - r.uniform(); };
  const auto coord = [](Random& r) { return r.uniform(-500.0, 500.0); };
  const Case cases[] = {
      {"hypot",
       [&](Random& r) {
         const double x = coord(r);
         return std::hypot(x, coord(r));
       },
       0xa038254a25de26beULL},
      {"sin", [](Random& r) { return std::sin(r.uniform(-700.0, 700.0)); },
       0x754e7c7ae519ecdaULL},
      {"cos", [](Random& r) { return std::cos(r.uniform(-700.0, 700.0)); },
       0x0a237ce2dbe63303ULL},
      {"tan", [](Random& r) { return std::tan(r.uniform(-1.5, 1.5)); },
       0x0819006dc1943eb3ULL},
      {"pow",
       [&](Random& r) {
         const double base = unit(r);
         return std::pow(base, r.uniform(-2.0, 4.0));
       },
       0xb78d24becedf08d1ULL},
      {"log", [&](Random& r) { return std::log(unit(r)); }, 0x3a1e24470c6530c7ULL},
      {"log2", [&](Random& r) { return std::log2(unit(r)); }, 0x3f890db5a7ec4cabULL},
      {"atan", [](Random& r) { return std::atan(r.uniform(-10.0, 10.0)); },
       0xa78af300836b901eULL},
      {"atan2",
       [&](Random& r) {
         const double y = coord(r);
         return std::atan2(y, coord(r));
       },
       0xdcfc9723ee649d52ULL},
  };
  std::uint64_t stream = 1;
  for (const Case& c : cases) {
    const std::uint64_t got = digest(c.f, stream++);
    EXPECT_EQ(got, c.expected)
        << "std::" << c.name << " rounds differently from the pin: 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace rdsim::util
