// Global heap-allocation counter for zero-allocation regression gates.
//
// Linking the rdsim_alloc_hook library replaces the global operator new /
// delete; every operator new counts. Benchmarks and tests snapshot alloc_count()
// around a code region to assert the region performs no heap allocation —
// the enforcement mechanism behind the zero-allocation packet path.
//
// Only link this into binaries that gate on allocations (bench_packet_path,
// test_net); production binaries keep the stock allocator.
#pragma once

#include <cstdint>

namespace rdsim::util {

/// Allocations (operator new calls) since process start. Referencing this
/// function also forces the counting operators in alloc_hook.cpp to be
/// pulled out of the static library and override the default ones.
std::uint64_t alloc_count();

/// Convenience guard: allocations between construction and delta().
class AllocCounter {
 public:
  AllocCounter() : start_{alloc_count()} {}
  std::uint64_t delta() const { return alloc_count() - start_; }
  void reset() { start_ = alloc_count(); }

 private:
  std::uint64_t start_;
};

}  // namespace rdsim::util
