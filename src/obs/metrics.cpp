#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/time.hpp"

namespace rdsim::obs {

void Context::count(MetricId id, std::uint64_t delta) {
  counters_.at(id) += delta;
}

void Context::gauge_set(MetricId id, double value) {
  GaugeCell& cell = gauges_.at(id);
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  cell.last = value;
  cell.sum += value;
  ++cell.count;
}

void HistogramCell::add(std::span<const double> bounds, double value) {
  if (counts.empty()) counts.assign(bounds.size() + 1, 0);
  ++counts[histogram_bucket(bounds, value)];
  ++count;
  sum += value;
}

void Context::observe(MetricId id, double value) {
  histograms_.at(id).add(histogram_bounds(id), value);
}

void Context::timer_add(MetricId id, std::uint64_t ns) {
  TimerCell& cell = timers_.at(id);
  cell.total_ns += ns;
  ++cell.count;
}

std::size_t Context::span_open(MetricId id, util::TimePoint begin,
                               std::uint32_t lane) {
  Span span;
  span.metric = id;
  span.lane = lane;
  span.begin_us = begin.count_micros();
  span.end_us = span.begin_us - 1;  // open until span_close
  spans_.push_back(span);
  return spans_.size() - 1;
}

void Context::span_close(std::size_t handle, util::TimePoint end) {
  if (handle >= spans_.size()) return;
  spans_[handle].end_us = end.count_micros();
}

void Context::instant(MetricId id, util::TimePoint ts, std::uint32_t lane) {
  Instant ev;
  ev.metric = id;
  ev.lane = lane;
  ev.ts_us = ts.count_micros();
  instants_.push_back(ev);
}

std::uint64_t Context::counter(MetricId id) const {
  return counters_.at(id);
}

const GaugeCell* Context::gauge(MetricId id) const {
  const GaugeCell& cell = gauges_.at(id);
  return cell.count > 0 ? &cell : nullptr;
}

const HistogramCell* Context::histogram(MetricId id) const {
  const HistogramCell& cell = histograms_.at(id);
  return !cell.counts.empty() ? &cell : nullptr;
}

const TimerCell* Context::timer(MetricId id) const {
  const TimerCell& cell = timers_.at(id);
  return cell.count > 0 ? &cell : nullptr;
}

bool Context::empty() const {
  const auto nonzero = [](std::uint64_t v) { return v != 0; };
  if (std::any_of(counters_.begin(), counters_.end(), nonzero)) return false;
  for (const GaugeCell& g : gauges_) {
    if (g.count > 0) return false;
  }
  for (const HistogramCell& h : histograms_) {
    if (h.count > 0) return false;
  }
  for (const TimerCell& t : timers_) {
    if (t.count > 0) return false;
  }
  return spans_.empty() && instants_.empty();
}

void Context::merge_from(const Context& other) {
  for (std::size_t i = 0; i < metric::kCount; ++i) counters_[i] += other.counters_[i];

  for (std::size_t i = 0; i < metric::kCount; ++i) {
    const GaugeCell& b = other.gauges_[i];
    if (b.count == 0) continue;
    GaugeCell& a = gauges_[i];
    if (a.count == 0) {
      a = b;
      continue;
    }
    a.min = std::min(a.min, b.min);
    a.max = std::max(a.max, b.max);
    a.sum += b.sum;
    a.count += b.count;
    a.last = b.last;
  }

  for (std::size_t i = 0; i < metric::kCount; ++i) {
    const HistogramCell& b = other.histograms_[i];
    if (b.counts.empty()) continue;
    HistogramCell& a = histograms_[i];
    if (a.counts.size() < b.counts.size()) a.counts.resize(b.counts.size());
    for (std::size_t k = 0; k < b.counts.size(); ++k) a.counts[k] += b.counts[k];
    a.count += b.count;
    a.sum += b.sum;
  }

  for (std::size_t i = 0; i < metric::kCount; ++i) {
    timers_[i].total_ns += other.timers_[i].total_ns;
    timers_[i].count += other.timers_[i].count;
  }

  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  instants_.insert(instants_.end(), other.instants_.begin(), other.instants_.end());
}

std::size_t histogram_bucket(std::span<const double> bounds, double value) {
  if (!(value >= bounds.front())) return 0;  // below min, or NaN
  if (value >= bounds.back()) return bounds.size();
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), value);
  return static_cast<std::size_t>(it - bounds.begin());
}

double histogram_quantile(std::span<const double> bounds, const HistogramCell& cell,
                          double q) {
  if (cell.count == 0 || cell.counts.empty()) return 0.0;
  const double clamped_q = std::min(std::max(q, 0.0), 1.0);
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(clamped_q * static_cast<double>(cell.count))));
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < cell.counts.size(); ++bucket) {
    cumulative += cell.counts[bucket];
    if (cumulative >= rank) {
      if (bucket == 0) return bounds.front();
      return bounds[std::min(bucket, bounds.size() - 1)];
    }
  }
  return bounds.back();
}

}  // namespace rdsim::obs
