#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace rdsim::obs {

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
}

namespace {

void append_metadata(std::string& out, std::string_view what, int pid, int tid,
                     std::string_view name, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += R"({"ph":"M","name":")";
  out += what;
  out += R"(","pid":)" + std::to_string(pid);
  out += R"(,"tid":)" + std::to_string(tid);
  out += R"(,"args":{"name":")";
  append_json_escaped(out, name);
  out += R"("}})";
}

struct NormalizedSpan {
  std::int64_t begin_us{0};
  std::int64_t end_us{0};
};

/// Greedy interval partitioning: spans sorted by begin are packed into the
/// first sub-thread whose previous span has already ended, so spans within a
/// sub-thread never overlap and B/E events stay properly nested.
std::vector<std::vector<NormalizedSpan>> partition_sub_threads(
    std::vector<NormalizedSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const NormalizedSpan& a, const NormalizedSpan& b) {
              return a.begin_us != b.begin_us ? a.begin_us < b.begin_us
                                              : a.end_us < b.end_us;
            });
  std::vector<std::vector<NormalizedSpan>> sub_threads;
  for (const NormalizedSpan& span : spans) {
    bool placed = false;
    for (std::vector<NormalizedSpan>& lane : sub_threads) {
      if (lane.back().end_us <= span.begin_us) {
        lane.push_back(span);
        placed = true;
        break;
      }
    }
    if (!placed) sub_threads.push_back({span});
  }
  return sub_threads;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceTrack>& tracks) {
  std::string events;
  bool first = true;

  int pid = 0;
  for (const TraceTrack& track : tracks) {
    ++pid;
    append_metadata(events, "process_name", pid, 0, track.name, first);
    if (track.context == nullptr) continue;

    // Group by (metric name, lane). std::map keeps thread order stable and
    // sorted regardless of the order events were recorded in.
    std::map<std::pair<std::string, std::uint32_t>, std::vector<NormalizedSpan>>
        span_groups;
    for (const Span& span : track.context->spans()) {
      NormalizedSpan n;
      n.begin_us = span.begin_us;
      n.end_us = std::max(span.end_us, span.begin_us);  // clamp open spans
      const std::string name{metric_def(span.metric).name};
      span_groups[{name, span.lane}].push_back(n);
    }
    std::map<std::pair<std::string, std::uint32_t>, std::vector<std::int64_t>>
        instant_groups;
    for (const Instant& ev : track.context->instants()) {
      const std::string name{metric_def(ev.metric).name};
      instant_groups[{name, ev.lane}].push_back(ev.ts_us);
    }

    int tid = 0;
    for (auto& [key, spans] : span_groups) {
      const auto sub_threads = partition_sub_threads(std::move(spans));
      for (std::size_t sub = 0; sub < sub_threads.size(); ++sub) {
        ++tid;
        std::string thread_name = key.first + "#" + std::to_string(key.second);
        if (sub > 0) thread_name += "/" + std::to_string(sub);
        append_metadata(events, "thread_name", pid, tid, thread_name, first);
        for (const NormalizedSpan& span : sub_threads[sub]) {
          events += ",\n";
          events += R"({"ph":"B","name":")";
          append_json_escaped(events, key.first);
          events += R"(","pid":)" + std::to_string(pid);
          events += R"(,"tid":)" + std::to_string(tid);
          events += R"(,"ts":)" + std::to_string(span.begin_us) + "}";
          events += ",\n";
          events += R"({"ph":"E","name":")";
          append_json_escaped(events, key.first);
          events += R"(","pid":)" + std::to_string(pid);
          events += R"(,"tid":)" + std::to_string(tid);
          events += R"(,"ts":)" + std::to_string(span.end_us) + "}";
        }
      }
    }
    for (auto& [key, stamps] : instant_groups) {
      ++tid;
      std::sort(stamps.begin(), stamps.end());
      append_metadata(events, "thread_name", pid, tid,
                      key.first + "#" + std::to_string(key.second), first);
      for (const std::int64_t ts : stamps) {
        events += ",\n";
        events += R"({"ph":"i","s":"t","name":")";
        append_json_escaped(events, key.first);
        events += R"(","pid":)" + std::to_string(pid);
        events += R"(,"tid":)" + std::to_string(tid);
        events += R"(,"ts":)" + std::to_string(ts) + "}";
      }
    }
  }

  std::string out = "{\"traceEvents\":[\n";
  out += events;
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceTrack>& tracks) {
  std::ofstream file{path, std::ios::binary | std::ios::trunc};
  if (!file) {
    throw std::runtime_error{"obs: cannot open trace file: " + path};
  }
  file << chrome_trace_json(tracks);
  if (!file.good()) {
    throw std::runtime_error{"obs: failed writing trace file: " + path};
  }
}

}  // namespace rdsim::obs
