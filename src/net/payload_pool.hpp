// Deterministic free list of payload buffers.
//
// The packet hot path used to allocate one payload vector per packet sent
// and free it once the receiver parsed the delivery. A PayloadPool recycles
// those buffers instead: release() pushes a buffer onto one LIFO list as it
// is, and acquire() pops the most recently released one, growing it when it
// is too short. A reused buffer keeps its last packet's length and bytes
// (only a grown or new one comes back empty); the writer overwrites it and
// cuts it to the bytes written (ByteWriter{lease, size}, then take()), so no
// stale byte reaches the wire and a lease is zero-filled only where it is
// shorter than the packet written into it. Each Channel owns one pool, so
// recycling is single-threaded and fully deterministic — the pool affects
// *where* bytes live, never what they are, and the golden campaign hashes
// are bit-identical with or without it.
//
// The list needs no cap: the Channel returns every buffer, delivered or
// dropped, so the pool never holds more buffers than the link once held at
// the same time, and netem's packet limit bounds that.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace rdsim::net {

class PayloadPool {
 public:
  struct Stats {
    std::uint64_t fresh{0};     ///< acquire() allocated or grew a buffer
    std::uint64_t reused{0};    ///< acquire() served a cached buffer as it was
    std::uint64_t recycled{0};  ///< release() kept the buffer
  };

  /// A buffer with capacity >= size_hint: the most recently released one,
  /// or a new one when none is cached. Its length and contents are
  /// unspecified; a buffer grown or allocated here is empty.
  Payload acquire(std::size_t size_hint);

  /// Keep `payload`, bytes and all, for the next acquire().
  void release(Payload&& payload);

  const Stats& stats() const { return stats_; }

  /// Buffers currently cached.
  std::size_t cached() const { return free_.size(); }

 private:
  std::vector<Payload> free_;
  Stats stats_;
};

}  // namespace rdsim::net
