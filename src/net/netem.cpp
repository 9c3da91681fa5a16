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

NetemQdisc::NetemQdisc(NetemConfig config, std::uint64_t seed)
    : config_{std::move(config)}, rng_{seed, /*stream=*/0x6e6574656dULL} {}

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

util::Duration NetemQdisc::sample_delay() {
  util::Duration d = config_.delay;
  if (config_.jitter > util::Duration{}) {
    double unit = 0.0;
    if (config_.delay_correlation.value() > 0.0) {
      // Correlated uniform mapped to [-1, 1].
      unit = 2.0 * correlated_uniform(config_.delay_correlation.value(),
                                      delay_corr_state_) -
             1.0;
    } else {
      unit = sample_jitter_unit();
    }
    const auto jitter_us = static_cast<std::int64_t>(
        unit * static_cast<double>(config_.jitter.count_micros()));
    d += util::Duration::micros(jitter_us);
  }
  if (d.is_negative()) d = util::Duration{};
  RDSIM_ENSURE(!d.is_negative(), "netem delay samples must be non-negative");
  return d;
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
  if (config_.loss_probability.value() <= 0.0) return false;
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

void NetemQdisc::enqueue(Packet packet, util::TimePoint now) {
  ++stats_.enqueued;
  RDSIM_OBS_COUNT(obs::metric::kNetemEnqueued, 1);
  packet.enqueued_at = now;

  if (sample_loss()) {
    ++stats_.dropped_loss;
    RDSIM_OBS_COUNT(obs::metric::kNetemDroppedLoss, 1);
    return;
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

  util::Duration delay = sample_delay();

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
    if (!keys_.empty()) {
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

  if (keys_.size() >= config_.limit) {
    ++stats_.dropped_overlimit;
    RDSIM_OBS_COUNT(obs::metric::kNetemDroppedOverlimit, 1);
    return;
  }

  RDSIM_ENSURE(release >= now, "netem release time cannot precede enqueue time");

  if (duplicate && keys_.size() + 1 < config_.limit) {
    Packet copy = packet.clone();
    copy.duplicate = true;
    ++stats_.duplicated;
    RDSIM_OBS_COUNT(obs::metric::kNetemDuplicated, 1);
    schedule(std::move(copy), release);
  }
  schedule(std::move(packet), release);
  RDSIM_OBS_GAUGE_SET(obs::metric::kNetemDepth,
                      static_cast<double>(keys_.size()));
}

void NetemQdisc::schedule(Packet packet, util::TimePoint release) {
  if (slots_.capacity() == 0) {
    slots_.reserve(kInitialSlots);
    keys_.reserve(kInitialSlots);
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
  keys_.push_back(Key{release, seq_++, slot});
  std::push_heap(keys_.begin(), keys_.end(), KeyAfter{});
  // tfifo ordering: the heap root must be the earliest pending release.
  RDSIM_INVARIANT(!(release < keys_.front().release),
                  "netem heap root must be the earliest (release, seq)");
}

void NetemQdisc::dequeue_ready(util::TimePoint now, std::vector<Packet>& out) {
  std::size_t n = 0;
  util::TimePoint last_release{};
  while (!keys_.empty() && keys_.front().release <= now) {
    std::pop_heap(keys_.begin(), keys_.end(), KeyAfter{});
    const Key key = keys_.back();
    keys_.pop_back();
    RDSIM_INVARIANT(n == 0 || !(key.release < last_release),
                    "netem must release packets in non-decreasing time order");
    last_release = key.release;
    Slot& slot = slots_[key.slot];
    slot.next_free = free_head_;
    free_head_ = key.slot;
    ++stats_.dequeued;
    const std::uint32_t bytes = slot.packet.effective_wire_size();
    stats_.bytes_sent += bytes;
    backlog_bytes_ -= bytes;
    out.push_back(std::move(slot.packet));
    ++n;
  }
  if (n > 0) {
    RDSIM_OBS_COUNT(obs::metric::kNetemDequeued, n);
    RDSIM_OBS_GAUGE_SET(obs::metric::kNetemDepth,
                        static_cast<double>(keys_.size()));
  }
}

std::optional<util::TimePoint> NetemQdisc::next_event_at() const {
  if (keys_.empty()) return std::nullopt;
  return keys_.front().release;
}

}  // namespace rdsim::net
