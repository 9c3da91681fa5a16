// Time-indexed delay line.
//
// Models signals that are observed only after a latency — the operator's
// reaction time, display latency, and input-device latency in the remote
// station. Values are timestamped on push; read(t) returns the newest value
// whose timestamp is <= t - delay.
#pragma once

#include "util/seq_queue.hpp"
#include "util/time.hpp"

namespace rdsim::util {

template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Duration delay) : delay_{delay} {}

  /// Record `value` as produced at time `t`. Timestamps must be monotone.
  /// The value is copied into a recycled slot, so a T that owns buffers
  /// reuses their capacity.
  void push(TimePoint t, const T& value) {
    Entry& e = entries_.push_back();
    e.t = t;
    e.value = value;
  }

  /// Newest value visible at time `now` (produced at or before now - delay),
  /// or nullptr while nothing is visible yet. Once a value has been visible
  /// it stays visible until a newer one is; older entries are discarded. The
  /// pointer is valid until the next push().
  const T* read(TimePoint now) {
    const TimePoint visible_until = now - delay_;
    if (!front_visible_) {
      if (entries_.empty() || entries_.front().t > visible_until) return nullptr;
      front_visible_ = true;
    }
    // The front entry is the newest visible one; step past it while its
    // successor is visible too.
    while (entries_.size() > 1 && entries_[entries_.head() + 1].t <= visible_until) {
      entries_.pop_front();
    }
    return &entries_.front().value;
  }

 private:
  struct Entry {
    TimePoint t;
    T value;
  };

  Duration delay_;
  SeqQueue<Entry> entries_;
  bool front_visible_{false};  ///< entries_.front() has been visible
};

}  // namespace rdsim::util
