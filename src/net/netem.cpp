#include "net/netem.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/contracts.hpp"
#include "obs/catalog.hpp"
#include "obs/obs.hpp"
#include "util/vec2.hpp"

namespace rdsim::net {

namespace {

void append_percent(std::ostringstream& os, const char* name, units::Probability p,
                    units::Probability corr) {
  os << ' ' << name << ' ' << p.percent() << '%';
  if (corr.value() > 0.0) os << ' ' << corr.percent() << '%';
}

}  // namespace

std::string NetemConfig::describe() const {
  std::ostringstream os;
  os << "netem";
  if (has_delay()) {
    os << " delay " << delay.to_millis() << "ms";
    if (jitter > util::Duration{}) {
      os << ' ' << jitter.to_millis() << "ms";
      if (delay_correlation.value() > 0.0) os << ' ' << delay_correlation.percent() << '%';
    }
    switch (distribution) {
      case DelayDistribution::kUniform: break;
      case DelayDistribution::kNormal: os << " distribution normal"; break;
      case DelayDistribution::kPareto: os << " distribution pareto"; break;
      case DelayDistribution::kParetoNormal: os << " distribution paretonormal"; break;
    }
  }
  if (gemodel) {
    os << " loss gemodel " << gemodel->p.percent() << '%' << ' ' << gemodel->r.percent()
       << '%';
  } else if (loss_probability.value() > 0.0) {
    append_percent(os, "loss", loss_probability, loss_correlation);
  }
  if (duplicate_probability.value() > 0.0) {
    append_percent(os, "duplicate", duplicate_probability, duplicate_correlation);
  }
  if (corrupt_probability.value() > 0.0) {
    append_percent(os, "corrupt", corrupt_probability, corrupt_correlation);
  }
  if (reorder_probability.value() > 0.0) {
    append_percent(os, "reorder", reorder_probability, reorder_correlation);
    if (reorder_gap > 1) os << " gap " << reorder_gap;
  }
  if (rate.value() > 0.0) os << " rate " << rate.to_kbit() << "kbit";
  return os.str();
}

namespace {
constexpr std::uint64_t kRngStream = 0x6e6574656dULL;
}  // namespace

std::string QdiscStats::summary() const {
  std::ostringstream os;
  os << "sent " << dequeued << " pkt (" << bytes_sent << " bytes)"
     << " dropped " << total_dropped() << " (loss " << dropped_loss << ", overlimit "
     << dropped_overlimit << ")"
     << " duplicated " << duplicated << " corrupted " << corrupted << " reordered "
     << reordered;
  return os.str();
}

NetemQdisc::NetemQdisc()
    : rng_{1, kRngStream},
      metrics_{obs::metric::kFifoEnqueued, obs::metric::kFifoDequeued,
               obs::metric::kFifoDroppedOverlimit, obs::metric::kFifoDepth},
      has_rule_{false} {}

NetemQdisc::NetemQdisc(NetemConfig config, std::uint64_t seed)
    : config_{std::move(config)},
      rng_{seed, kRngStream},
      metrics_{obs::metric::kNetemEnqueued, obs::metric::kNetemDequeued,
               obs::metric::kNetemDroppedOverlimit, obs::metric::kNetemDepth},
      has_rule_{true} {}

void NetemQdisc::change(NetemConfig config) {
  RDSIM_REQUIRE(has_rule_, "only an installed netem rule can be changed");
  config_ = std::move(config);
}

std::vector<Packet> NetemQdisc::drain(util::TimePoint now) {
  std::vector<Packet> out;
  dequeue_ready(now, out);
  return out;
}

std::string NetemQdisc::summary() const {
  std::ostringstream os;
  os << "qdisc " << kind() << ": " << stats_.summary() << " backlog " << backlog_bytes_
     << "b " << backlog() << "p";
  return os.str();
}

double NetemQdisc::correlated_uniform(double correlation, double& state) {
  // netem's get_crandom: blend the previous deviate with a fresh one.
  const double fresh = rng_.uniform();
  if (correlation <= 0.0) {
    state = fresh;
    return fresh;
  }
  const double rho = std::min(correlation, 1.0);
  state = rho * state + (1.0 - rho) * fresh;
  return state;
}

double NetemQdisc::sample_jitter_unit() {
  switch (config_.distribution) {
    case DelayDistribution::kUniform:
      return 2.0 * rng_.uniform() - 1.0;
    case DelayDistribution::kNormal: {
      // Truncate at 4 sigma as netem's table generation effectively does;
      // scale so jitter acts as one standard deviation.
      const double z = rng_.normal();
      return util::clamp(z, -4.0, 4.0) / 4.0;
    }
    case DelayDistribution::kPareto: {
      // One-sided heavy tail, shifted to zero mean-ish, clamped to [-1, 4].
      const double alpha = 3.0;
      const double u = std::max(rng_.uniform(), 1e-9);
      const double x = std::pow(u, -1.0 / alpha) - 1.0;  // >= 0, heavy tail
      return util::clamp(x - 0.5, -1.0, 4.0);
    }
    case DelayDistribution::kParetoNormal: {
      const double z = util::clamp(rng_.normal() / 4.0, -1.0, 1.0);
      const double alpha = 3.0;
      const double u = std::max(rng_.uniform(), 1e-9);
      const double x = util::clamp(std::pow(u, -1.0 / alpha) - 1.5, -1.0, 4.0);
      return 0.75 * z + 0.25 * x;
    }
  }
  return 0.0;
}

util::Duration NetemQdisc::sample_jitter() {
  double unit = 0.0;
  if (config_.delay_correlation.value() > 0.0) {
    // Correlated uniform mapped to [-1, 1].
    unit = 2.0 * correlated_uniform(config_.delay_correlation.value(), delay_corr_state_) -
           1.0;
  } else {
    unit = sample_jitter_unit();
  }
  return util::Duration::micros(
      static_cast<std::int64_t>(unit * static_cast<double>(config_.jitter.count_micros())));
}

bool NetemQdisc::sample_loss() {
  if (config_.gemodel) {
    const auto& ge = *config_.gemodel;
    // Transition first, then sample the state's loss probability.
    if (ge_in_bad_state_) {
      if (rng_.bernoulli(ge.r.value())) ge_in_bad_state_ = false;
    } else {
      if (rng_.bernoulli(ge.p.value())) ge_in_bad_state_ = true;
    }
    const double p_loss = ge_in_bad_state_ ? ge.k.value() : ge.h.value();
    return rng_.bernoulli(p_loss);
  }
  const double p = config_.loss_probability.value();
  const double rho = util::clamp(config_.loss_correlation.value(), 0.0, 1.0);
  if (rho <= 0.0) {
    const bool lost = rng_.bernoulli(p);
    last_loss_ = lost;
    return lost;
  }
  // Correlated loss as a two-state chain that preserves the marginal rate p
  // exactly while clustering losses: P(loss|loss) = p + rho(1-p),
  // P(loss|ok) = p(1-rho). (The kernel's blended-uniform scheme distorts the
  // marginal badly at high correlation — a known netem quirk we fix here.)
  const double p_cond = last_loss_ ? p + rho * (1.0 - p) : p * (1.0 - rho);
  const bool lost = rng_.bernoulli(p_cond);
  last_loss_ = lost;
  return lost;
}

bool NetemQdisc::enqueue(Packet&& packet, util::TimePoint now) {
  ++stats_.enqueued;
  RDSIM_OBS_COUNT(metrics_.enqueued, 1);
  packet.enqueued_at = now;

  if (config_.has_loss() && sample_loss()) {
    ++stats_.dropped_loss;
    RDSIM_OBS_COUNT(obs::metric::kNetemDroppedLoss, 1);
    return false;
  }

  bool duplicate = false;
  if (config_.duplicate_probability.value() > 0.0) {
    const double u =
        correlated_uniform(config_.duplicate_correlation.value(), dup_corr_state_);
    duplicate = u < config_.duplicate_probability.value();
  }

  if (config_.corrupt_probability.value() > 0.0) {
    const double u =
        correlated_uniform(config_.corrupt_correlation.value(), corrupt_corr_state_);
    if (u < config_.corrupt_probability.value() && !packet.payload.empty()) {
      // Flip one random bit, as sch_netem does.
      const auto byte_idx = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(packet.payload.size()) - 1));
      const auto bit = static_cast<std::uint8_t>(1u << rng_.uniform_int(0, 7));
      packet.payload[byte_idx] ^= bit;
      packet.corrupted = true;
      ++stats_.corrupted;
      RDSIM_OBS_COUNT(obs::metric::kNetemCorrupted, 1);
    }
  }

  util::Duration delay = config_.delay;
  if (config_.jitter > util::Duration{}) delay += sample_jitter();
  if (delay.is_negative()) delay = util::Duration{};

  // Reordering: the selected packets jump the delay queue (sent "now"),
  // which makes them arrive ahead of earlier, still-delayed packets.
  bool send_immediately = false;
  if (config_.reorder_probability.value() > 0.0 && config_.has_delay()) {
    ++since_reorder_;
    if (since_reorder_ >= config_.reorder_gap) {
      const double u =
          correlated_uniform(config_.reorder_correlation.value(), reorder_corr_state_);
      if (u < config_.reorder_probability.value()) {
        send_immediately = true;
        since_reorder_ = 0;
      }
    }
  }
  if (send_immediately) {
    delay = util::Duration{};
    if (backlog() > 0) {
      ++stats_.reordered;
      RDSIM_OBS_COUNT(obs::metric::kNetemReordered, 1);
    }
  }

  util::TimePoint release = now + delay;

  // Rate control: serialization starts when the previous packet finished.
  if (config_.rate.value() > 0.0) {
    const util::TimePoint start = std::max(release, last_tx_finish_);
    const units::Seconds tx = units::transmit_time(
        static_cast<double>(packet.effective_wire_size()), config_.rate);
    release = start + tx.to_duration();
    last_tx_finish_ = release;
  }

  if (backlog() >= config_.limit) {
    ++stats_.dropped_overlimit;
    RDSIM_OBS_COUNT(metrics_.dropped_overlimit, 1);
    return false;
  }

  RDSIM_ENSURE(release >= now, "netem release time cannot precede enqueue time");

  if (duplicate && backlog() + 1 < config_.limit) {
    Packet copy = packet.clone();
    copy.duplicate = true;
    ++stats_.duplicated;
    RDSIM_OBS_COUNT(obs::metric::kNetemDuplicated, 1);
    schedule(std::move(copy), release);
  }
  schedule(std::move(packet), release);
  RDSIM_OBS_GAUGE_SET(metrics_.depth, static_cast<double>(backlog()));
  return true;
}

void NetemQdisc::schedule(Packet&& packet, util::TimePoint release) {
  if (slots_.capacity() == 0) {
    slots_.reserve(kInitialSlots);
    tail_.reserve(kInitialSlots);
  }
  backlog_bytes_ += packet.effective_wire_size();
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
    slots_[slot].packet = std::move(packet);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(packet)});
  }
  const Key key{release, seq_++, slot};
  if (tail_.empty() || !(release < tail_.back().release)) {
    tail_.push_back() = key;
  } else {
    if (heap_.capacity() == 0) heap_.reserve(kInitialSlots);
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), KeyAfter{});
  }
}

void NetemQdisc::dequeue_ready(util::TimePoint now, std::vector<Packet>& out) {
  std::size_t n = 0;
  std::uint64_t bytes = 0;
  util::TimePoint last_release{};
  while (backlog() > 0) {
    const bool in_heap = head_in_heap();
    const Key key = in_heap ? heap_.front() : tail_.front();
    if (now < key.release) break;
    if (in_heap) {
      std::pop_heap(heap_.begin(), heap_.end(), KeyAfter{});
      heap_.pop_back();
    } else {
      tail_.pop_front();
    }
    RDSIM_INVARIANT(n == 0 || !(key.release < last_release),
                    "netem must release packets in non-decreasing time order");
    last_release = key.release;
    Slot& slot = slots_[key.slot];
    bytes += slot.packet.effective_wire_size();
    out.push_back(std::move(slot.packet));
    slot.next_free = free_head_;
    free_head_ = key.slot;
    ++n;
  }
  if (n > 0) {
    stats_.dequeued += n;
    stats_.bytes_sent += bytes;
    backlog_bytes_ -= bytes;
    RDSIM_OBS_COUNT(metrics_.dequeued, n);
    RDSIM_OBS_GAUGE_SET(metrics_.depth, static_cast<double>(backlog()));
  }
}

std::optional<util::TimePoint> NetemQdisc::next_event_at() const {
  if (backlog() == 0) return std::nullopt;
  return head_in_heap() ? heap_.front().release : tail_.front().release;
}

}  // namespace rdsim::net
