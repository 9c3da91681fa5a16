// NETEM: network emulation queueing discipline.
//
// Re-implements the semantics of the Linux `sch_netem` discipline at user
// level on the shared virtual clock. Supported, as in the paper (§II.C):
// fixed and variable delay (jitter with correlation and a choice of
// distributions), random and Gilbert–Elliott packet loss, duplication,
// corruption, re-ordering, rate control, and a queue limit.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "net/qdisc.hpp"
#include "util/rng.hpp"
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

/// The netem discipline proper.
class NetemQdisc final : public Qdisc {
 public:
  explicit NetemQdisc(NetemConfig config, std::uint64_t seed = 1);

  /// Replace parameters in place (tc qdisc change); queued packets keep the
  /// release times they were assigned under the old parameters, exactly as
  /// the kernel behaves.
  void change(NetemConfig config) { config_ = std::move(config); }

  const NetemConfig& config() const { return config_; }

  void enqueue(Packet packet, util::TimePoint now) override;
  void dequeue_ready(util::TimePoint now, std::vector<Packet>& out) override;
  std::optional<util::TimePoint> next_event_at() const override;
  std::size_t backlog() const override { return keys_.size(); }
  std::uint64_t backlog_bytes() const override { return backlog_bytes_; }
  const QdiscStats& stats() const override { return stats_; }
  std::string kind() const override { return "netem"; }

 private:
  /// AR(1)-correlated uniform deviate in [0,1), one state per fault class.
  double correlated_uniform(double correlation, double& state);
  util::Duration sample_delay();
  bool sample_loss();
  double sample_jitter_unit();  ///< in [-1, 1], per the configured distribution

  /// Heap key of a waiting packet; the packet itself stays in slots_[slot],
  /// so heap sifts move 24-byte keys instead of whole packets.
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

  /// Both arrays are reserved to this many entries on first use, so a new
  /// rule's arrays reallocate only once its backlog passes 64 packets.
  static constexpr std::size_t kInitialSlots = 64;

  void schedule(Packet packet, util::TimePoint release);

  NetemConfig config_;
  util::Random rng_;
  /// Timer structure: binary min-heap of keys on (release, seq). The seq
  /// tie-break makes the pop order identical to the kernel's tfifo (stable
  /// FIFO among equal release times); (release, seq) is unique, so the pop
  /// order does not depend on the heap's layout.
  std::vector<Key> keys_;
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
