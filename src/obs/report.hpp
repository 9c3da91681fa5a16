// Campaign-level rollup of per-run observability contexts.
//
// The harness runs one Context per subject run (on whatever pool worker the
// scheduler picked) and submits it here under the run's stable id. The
// collector stores runs in a std::map keyed by that id, so iteration —
// and therefore every merge and every exported report — happens in run-id
// order, never completion order. That is the whole worker-count-independence
// argument: merges are associative/commutative AND applied in a fixed order.
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace rdsim::obs {

class CampaignCollector {
 public:
  /// Move `context` in under `run_id`. Thread-safe; empty contexts are kept
  /// (a run that recorded nothing is still a run). A duplicate id folds into
  /// the existing entry via Context::merge_from.
  void submit_run(std::string_view run_id, Context context)
      RDSIM_EXCLUDES(mutex_);

  /// Per-run contexts in run-id order. Not thread-safe against concurrent
  /// submit_run — read after the campaign joins its workers; that contract
  /// is why the deliberately-unlocked access is exempt from the analysis.
  const std::map<std::string, Context>& runs() const
      RDSIM_NO_THREAD_SAFETY_ANALYSIS {
    return runs_;
  }

  /// All runs folded into one context, merging in run-id order.
  Context merged() const RDSIM_EXCLUDES(mutex_);

  std::size_t run_count() const RDSIM_EXCLUDES(mutex_) {
    const util::MutexLock lock{mutex_};
    return runs_.size();
  }

  /// JSON report: campaign-wide totals plus per-run sections, every metric
  /// map sorted by metric name. Shape documented in docs/observability.md.
  std::string report_json() const RDSIM_EXCLUDES(mutex_);

  /// Write one Chrome trace with a track per run (run-id order) to `path`.
  void write_trace(const std::string& path) const RDSIM_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::map<std::string, Context> runs_ RDSIM_GUARDED_BY(mutex_);
};

}  // namespace rdsim::obs
