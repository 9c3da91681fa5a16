// NETEM: network emulation queueing discipline.
//
// Re-implements the semantics of the Linux `sch_netem` discipline at user
// level on the shared virtual clock. Supported, as in the paper (§II.C):
// fixed and variable delay (jitter with correlation and a choice of
// distributions), random and Gilbert–Elliott packet loss, duplication,
// corruption, re-ordering, rate control, and a queue limit.
//
// NetemQdisc is also the root qdisc of the emulated `lo` when no rule is
// installed: with no rule it releases every packet at its enqueue time behind
// netem's default 1000-packet limit, which is exactly what the kernel's
// default pfifo does, so the link has one queue type.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/catalog.hpp"
#include "util/rng.hpp"
#include "util/seq_queue.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace rdsim::net {

/// Jitter distribution, one per name tc's `distribution` keyword accepts.
enum class DelayDistribution : std::uint8_t {
  kUniform,        ///< uniform in [-jitter, +jitter] (netem default)
  kNormal,         ///< truncated normal, sigma = jitter
  kPareto,         ///< heavy-tailed, scaled to jitter
  kParetoNormal,   ///< netem's paretonormal mixture (0.75 normal + 0.25 pareto)
};

/// Two-state Gilbert–Elliott loss model parameters (netem `loss gemodel`).
struct GilbertElliott {
  units::Probability p{};     ///< P(good -> bad)
  units::Probability r{1.0};  ///< P(bad -> good)
  units::Probability h{};     ///< loss probability in the good state (1-k in tc terms)
  units::Probability k{1.0};  ///< loss prob., bad state
};

/// Full parameter set of one netem rule, the analogue of a
/// `tc qdisc add dev lo root netem ...` command line.
struct NetemConfig {
  // Delay.
  util::Duration delay{};             ///< base one-way delay
  util::Duration jitter{};            ///< +/- variation
  units::Probability delay_correlation{};  ///< correlation of successive jitter
  DelayDistribution distribution{DelayDistribution::kUniform};

  // Loss.
  units::Probability loss_probability{};  ///< independent random loss
  units::Probability loss_correlation{};  ///< correlation of successive losses
  std::optional<GilbertElliott> gemodel{};  ///< takes precedence when set

  // Duplication / corruption.
  units::Probability duplicate_probability{};
  units::Probability duplicate_correlation{};
  units::Probability corrupt_probability{};
  units::Probability corrupt_correlation{};

  // Reordering: with probability `reorder_probability`, every `reorder_gap`-th
  // packet is transmitted immediately while the rest take the full delay.
  units::Probability reorder_probability{};
  units::Probability reorder_correlation{};
  std::uint32_t reorder_gap{1};

  // Rate control; zero rate disables the shaper.
  units::BytesPerSecond rate{};

  // Queue limit in packets (netem default 1000).
  std::size_t limit{1000};

  bool has_delay() const { return delay > util::Duration{} || jitter > util::Duration{}; }
  bool has_loss() const {
    return loss_probability > units::Probability{} || gemodel.has_value();
  }

  /// Render back to a `tc`-style argument string (for logs).
  std::string describe() const;
};

/// The root qdisc of `lo`. Default-constructed it holds no rule and is the
/// kernel's default pfifo: kind() "pfifo", every packet released at its
/// enqueue time in FIFO order, tail drop past 1000 packets. Constructed from
/// a NetemConfig it is an installed netem rule.
///
/// A qdisc receives packets on enqueue and releases them at (virtual) times
/// of its choosing. dequeue_ready() appends every packet whose release time
/// has passed, in release order, to a caller-owned vector. The Channel
/// drives it from the shared virtual clock and early-outs on
/// next_event_at(), so an idle link costs one comparison per tick.
class NetemQdisc {
 public:
  /// No rule: the default pfifo.
  NetemQdisc();
  /// An installed rule whose random draws come from `seed`.
  explicit NetemQdisc(NetemConfig config, std::uint64_t seed = 1);

  /// Replace parameters in place (tc qdisc change); queued packets keep the
  /// release times they were assigned under the old parameters, exactly as
  /// the kernel behaves. Only an installed rule changes.
  void change(NetemConfig config);

  /// True for an installed rule, false for the default pfifo.
  bool has_rule() const { return has_rule_; }
  const NetemConfig& config() const { return config_; }

  /// Hand a packet to the discipline at time `now`; it may duplicate or
  /// corrupt it before scheduling it. Returns false when the loss model or
  /// the limit drops it: the packet then stays with the caller, payload and
  /// all, so the caller can recycle its buffer.
  bool enqueue(Packet&& packet, util::TimePoint now);

  /// Append every packet whose scheduled release time is <= now to `out`,
  /// in (release, enqueue) order.
  void dequeue_ready(util::TimePoint now, std::vector<Packet>& out);

  /// Earliest pending release time, or nullopt when idle. While
  /// now < next_event_at(), dequeue_ready() would release nothing and have
  /// no observable effect, so callers may skip it.
  std::optional<util::TimePoint> next_event_at() const;

  /// Packets currently queued.
  std::size_t backlog() const { return tail_.size() + heap_.size(); }
  /// Wire bytes currently queued (sum of effective_wire_size).
  std::uint64_t backlog_bytes() const { return backlog_bytes_; }
  /// Cumulative tc -s counters.
  const QdiscStats& stats() const { return stats_; }
  std::string kind() const { return has_rule_ ? "netem" : "pfifo"; }

  /// Convenience for tests and tooling: the ready packets in a fresh vector.
  std::vector<Packet> drain(util::TimePoint now);

  /// `tc -s qdisc show`-style one-liner: kind, counters, live backlog.
  std::string summary() const;

 private:
  /// AR(1)-correlated uniform deviate in [0,1), one state per fault class.
  double correlated_uniform(double correlation, double& state);
  /// The jitter offset added to the base delay; only called under jitter.
  util::Duration sample_jitter();
  /// Whether the loss model drops the next packet; only called when
  /// config_.has_loss().
  bool sample_loss();
  double sample_jitter_unit();  ///< in [-1, 1], per the configured distribution

  /// Queue key of a waiting packet; the packet itself stays in slots_[slot],
  /// so the queues move 24-byte keys instead of whole packets.
  struct Key {
    util::TimePoint release;
    std::uint64_t seq;  ///< tie-break to keep FIFO order for equal times
    std::uint32_t slot;
  };

  /// Min-heap comparator: the key releasing *later* sorts first so that
  /// std::push_heap/pop_heap keep the earliest (release, seq) at the root.
  struct KeyAfter {
    bool operator()(const Key& a, const Key& b) const {
      if (a.release != b.release) return b.release < a.release;
      return b.seq < a.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// A waiting packet, or a link of the intrusive free list once released.
  struct Slot {
    Packet packet;
    std::uint32_t next_free{kNoSlot};
  };

  /// The obs ids the queue records into, fixed at construction:
  /// qdisc.fifo.* with no rule, qdisc.netem.* with one.
  struct QueueMetrics {
    obs::MetricId enqueued;
    obs::MetricId dequeued;
    obs::MetricId dropped_overlimit;
    obs::MetricId depth;
  };

  /// slots_, tail_ and heap_ are each reserved to this many entries on first
  /// use, so they reallocate only once the backlog passes 64 packets.
  static constexpr std::size_t kInitialSlots = 64;

  void schedule(Packet&& packet, util::TimePoint release);
  /// Whether the earliest waiting key by (release, seq) is the heap's root
  /// rather than the tail's head; the caller keeps backlog() > 0.
  bool head_in_heap() const {
    return tail_.empty() || (!heap_.empty() && KeyAfter{}(tail_.front(), heap_.front()));
  }

  NetemConfig config_;
  util::Random rng_;
  QueueMetrics metrics_;
  bool has_rule_;
  /// The kernel's tfifo: a key whose release is no earlier than the tail's
  /// last is appended to the tail, already in (release, seq) order; only an
  /// earlier one (jitter, reorder, a change to a shorter delay) goes on the
  /// binary min-heap. The earliest key is the earlier of the two heads, and
  /// since (release, seq) is unique and seq breaks ties in FIFO order, the
  /// release order does not depend on which structure holds a key.
  util::SeqQueue<Key> tail_;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_{kNoSlot};  ///< first free slot, kNoSlot when none
  std::uint64_t backlog_bytes_{0};
  std::uint64_t seq_{0};
  std::uint64_t since_reorder_{0};

  // Correlation states.
  double delay_corr_state_{0.5};
  bool last_loss_{false};
  double dup_corr_state_{0.5};
  double corrupt_corr_state_{0.5};
  double reorder_corr_state_{0.5};
  bool ge_in_bad_state_{false};

  // Rate-control bookkeeping: when the previous packet finishes serializing.
  util::TimePoint last_tx_finish_{};

  QdiscStats stats_;
};

}  // namespace rdsim::net
