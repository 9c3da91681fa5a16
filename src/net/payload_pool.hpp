// Deterministic freelist of size-bucketed payload buffers.
//
// The packet hot path used to allocate one payload vector per packet sent
// and free it once the receiver parsed the delivery. A PayloadPool recycles
// those buffers instead: acquire() hands out a cleared buffer whose capacity
// covers the requested size, release() returns it to a per-size-class LIFO
// freelist. Each Channel owns one pool, so recycling is single-threaded and
// fully deterministic — the pool affects *where* bytes live, never what they
// are, and the golden campaign hashes are bit-identical with or without it.
#pragma once

#include <array>
#include <cstdint>

#include "net/packet.hpp"

namespace rdsim::net {

class PayloadPool {
 public:
  struct Stats {
    std::uint64_t fresh{0};      ///< acquire() had to heap-allocate
    std::uint64_t reused{0};     ///< acquire() served from a freelist
    std::uint64_t recycled{0};   ///< release() kept the buffer
    std::uint64_t discarded{0};  ///< release() dropped it (full/odd-sized)
  };

  /// `max_per_bucket` bounds the buffers cached per size class, which caps
  /// pool memory at roughly max_per_bucket * sum(bucket sizes). The default
  /// holds a whole video frame burst: a 6 MB frame is 93 segments, and its
  /// 93 ACKs are in flight at the same time.
  explicit PayloadPool(std::size_t max_per_bucket = 256)
      : max_per_bucket_{max_per_bucket} {}

  /// A cleared buffer with capacity >= size_hint (when size_hint fits the
  /// largest size class; bigger requests fall through to a plain allocation).
  Payload acquire(std::size_t size_hint);

  /// Return a buffer to the freelist of the largest size class its capacity
  /// covers. Undersized or surplus buffers are freed normally.
  void release(Payload&& payload);

  const Stats& stats() const { return stats_; }

  /// Buffers currently cached across all size classes.
  std::size_t cached() const;

  static constexpr std::size_t kNumBuckets = 8;
  /// Size classes, geometric: 64 B .. 1 MiB.
  static constexpr std::array<std::size_t, kNumBuckets> kBucketBytes{
      64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};

 private:
  std::size_t max_per_bucket_;
  std::array<std::vector<Payload>, kNumBuckets> free_;
  Stats stats_;
};

}  // namespace rdsim::net
