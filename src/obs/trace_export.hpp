// Chrome trace-event export (the JSON array format Perfetto and
// chrome://tracing load directly). Timestamps are the *virtual* simulation
// clock in microseconds — a trace of what the simulated system did, not of
// where wall time went — so traces are bit-identical across reruns and
// worker counts.
//
// Layout: each TraceTrack becomes one trace "process"; inside it, every
// (metric, lane) pair gets its own "thread" so per-thread timestamps are
// monotone and B/E pairs balance. Spans of one pair that overlap in virtual
// time (e.g. nested disturbance windows) are split greedily across numbered
// sub-threads, because the B/E format cannot represent overlap on a single
// thread.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace rdsim::obs {

/// One exported trace process: a name (e.g. the run id) and the context
/// whose spans and instants to emit. The context must outlive the call.
struct TraceTrack {
  std::string name;
  const Context* context{nullptr};
};

/// Serialize `tracks` as a Chrome trace-event JSON object. Deterministic:
/// tracks keep their given order, threads are ordered by (metric name, lane,
/// sub-thread), events by virtual timestamp within each thread. Open spans
/// (never closed) export with zero duration at their begin time.
std::string chrome_trace_json(const std::vector<TraceTrack>& tracks);

/// Append `text` to `out` as the inside of a JSON string: quotes,
/// backslashes and control characters escaped. Shared by every obs JSON
/// writer.
void append_json_escaped(std::string& out, std::string_view text);

/// Write chrome_trace_json(tracks) to `path`; throws std::runtime_error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceTrack>& tracks);

}  // namespace rdsim::obs
