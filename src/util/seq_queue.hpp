// SeqQueue: a growable FIFO addressed by a monotone counter, for transport
// queues.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdsim::util {

/// Growable FIFO on a power-of-two slot array. Every element has a position:
/// the n-th element ever pushed sits at position n (mod 2^32) in slot
/// `n & mask`, so a caller whose keys are dense counters (message ids,
/// sequence numbers) indexes straight into the queue. Popping leaves the
/// slot's object in place, so a later push_back() hands it back and any
/// buffer it owns keeps its capacity. The slot array is allocated on the
/// first push and doubles when full; it never shrinks.
template <typename T>
class SeqQueue {
 public:
  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  /// Position of the front element (of the next push when empty).
  std::uint32_t head() const { return head_; }
  /// Position the next push_back() will take.
  std::uint32_t tail() const { return tail_; }

  /// Element at `pos`; the caller keeps head() <= pos < tail().
  T& operator[](std::uint32_t pos) { return slots_[pos & mask_]; }
  const T& operator[](std::uint32_t pos) const { return slots_[pos & mask_]; }
  T& front() { return (*this)[head_]; }
  const T& front() const { return (*this)[head_]; }
  /// The last element pushed; the caller keeps the queue non-empty.
  const T& back() const { return (*this)[tail_ - 1]; }

  /// Appends a slot and returns it, still holding whatever the slot's last
  /// occupant left behind; the caller overwrites every field it uses.
  T& push_back() {
    if (size() == slots_.size()) grow(std::max<std::size_t>(8, slots_.size() * 2));
    return slots_[tail_++ & mask_];
  }
  void pop_front() { ++head_; }

  /// Allocates room for `n` elements at once, rounded up to a power of two,
  /// unless the slot array already holds that many.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(std::bit_ceil(n));
  }

 private:
  /// Moves the elements into a slot array of `slots` entries, a power of two.
  void grow(std::size_t slots) {
    std::vector<T> bigger(slots);
    const auto mask = static_cast<std::uint32_t>(bigger.size() - 1);
    for (std::uint32_t pos = head_; pos != tail_; ++pos) {
      bigger[pos & mask] = std::move(slots_[pos & mask_]);
    }
    slots_ = std::move(bigger);
    mask_ = mask;
  }

  std::vector<T> slots_;
  std::uint32_t mask_{0};
  std::uint32_t head_{0};
  std::uint32_t tail_{0};
};

}  // namespace rdsim::util
