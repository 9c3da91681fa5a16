#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "obs/trace_export.hpp"
#include "util/thread_annotations.hpp"

namespace rdsim::obs {

namespace {

constexpr double kNanosPerMilli = 1e6;

std::string format_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

/// Emit `context`'s metrics as one JSON object, keys in metric-name order.
/// Metric ids follow catalog order, so gather (name, payload) pairs first
/// and sort by name for an export that does not depend on that order.
void append_metrics_object(std::string& out, const Context& context) {
  std::vector<std::pair<std::string_view, std::string>> entries;
  for (std::uint32_t i = 0; i < metric::kCount; ++i) {
    const MetricId id{i};
    const MetricDef& def = metric_def(id);
    std::string payload;
    switch (def.kind) {
      case MetricKind::kCounter: {
        const std::uint64_t value = context.counter(id);
        if (value == 0) continue;
        payload = std::to_string(value);
        break;
      }
      case MetricKind::kGauge: {
        const GaugeCell* cell = context.gauge(id);
        if (cell == nullptr) continue;
        payload = "{\"last\":" + format_double(cell->last) +
                  ",\"min\":" + format_double(cell->min) +
                  ",\"max\":" + format_double(cell->max) +
                  ",\"mean\":" + format_double(cell->mean()) +
                  ",\"count\":" + std::to_string(cell->count) + "}";
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramCell* cell = context.histogram(id);
        if (cell == nullptr) continue;
        const std::span<const double> bounds = histogram_bounds(id);
        payload = "{\"count\":" + std::to_string(cell->count) +
                  ",\"sum\":" + format_double(cell->sum) +
                  ",\"p50\":" + format_double(histogram_quantile(bounds, *cell, 0.5)) +
                  ",\"p90\":" + format_double(histogram_quantile(bounds, *cell, 0.9)) +
                  ",\"p99\":" + format_double(histogram_quantile(bounds, *cell, 0.99)) +
                  ",\"underflow\":" + std::to_string(cell->counts.front()) +
                  ",\"overflow\":" + std::to_string(cell->counts.back()) + "}";
        break;
      }
      case MetricKind::kTimer: {
        const TimerCell* cell = context.timer(id);
        if (cell == nullptr) continue;
        const double total_millis =
            static_cast<double>(cell->total_ns) / kNanosPerMilli;
        payload = "{\"total_ms\":" + format_double(total_millis) +
                  ",\"count\":" + std::to_string(cell->count) + "}";
        break;
      }
    }
    entries.emplace_back(def.name, std::move(payload));
  }
  std::sort(entries.begin(), entries.end());

  out += "{";
  bool first = true;
  for (const auto& [name, payload] : entries) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"";
    append_json_escaped(out, name);
    out += "\": " + payload;
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

void CampaignCollector::submit_run(std::string_view run_id, Context context) {
  const util::MutexLock lock{mutex_};
  auto [it, inserted] = runs_.try_emplace(std::string{run_id});
  if (inserted) {
    it->second = std::move(context);
  } else {
    it->second.merge_from(context);
  }
}

Context CampaignCollector::merged() const {
  const util::MutexLock lock{mutex_};
  Context total;
  for (const auto& [run_id, context] : runs_) total.merge_from(context);
  return total;
}

std::string CampaignCollector::report_json() const {
  const Context total = merged();
  const util::MutexLock lock{mutex_};
  std::string out = "{\n";
  out += "  \"schema\": \"rdsim.obs.report/1\",\n";
  out += "  \"runs\": " + std::to_string(runs_.size()) + ",\n";
  out += "  \"campaign\": ";
  append_metrics_object(out, total);
  out += ",\n  \"per_run\": {";
  bool first = true;
  for (const auto& [run_id, context] : runs_) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"";
    append_json_escaped(out, run_id);
    out += "\": ";
    append_metrics_object(out, context);
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

void CampaignCollector::write_trace(const std::string& path) const {
  std::vector<TraceTrack> tracks;
  {
    const util::MutexLock lock{mutex_};
    tracks.reserve(runs_.size());
    for (const auto& [run_id, context] : runs_) {
      tracks.push_back(TraceTrack{run_id, &context});
    }
  }
  write_chrome_trace(path, tracks);
}

}  // namespace rdsim::obs
