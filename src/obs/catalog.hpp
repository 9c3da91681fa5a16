// The metric catalog: every first-party instrumentation id, fixed at compile
// time. Each id is an enumerator of obs::metric, and catalog.cpp holds one
// table row per id with its kind, name, help text, unit and histogram
// layout; static_asserts there check that every row sits at its id, that
// names are unique and match [a-z0-9_.]+, and that each histogram spec is
// valid. Hot paths take a MetricId, which only these enumerators convert
// to, so a name string never reaches a sample site. Adding a metric means
// adding one enumerator here and one row in catalog.cpp. The full metric
// reference with units and semantics lives in docs/observability.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rdsim::obs {

namespace metric {

enum Id : std::uint32_t {
  // ---- qdisc layer (netem / pfifo) ----
  kFifoEnqueued,
  kFifoDequeued,
  kFifoDroppedOverlimit,
  kFifoDepth,
  kNetemEnqueued,
  kNetemDequeued,
  kNetemDroppedLoss,
  kNetemDroppedOverlimit,
  kNetemDuplicated,
  kNetemCorrupted,
  kNetemReordered,
  kNetemDepth,
  kTbfDequeued,  ///< always zero; see catalog.cpp

  // ---- payload pool (per-channel buffer freelist) ----
  kPoolFresh,     ///< acquisitions that allocated or grew a buffer
  kPoolReused,    ///< acquisitions served from the freelist
  kPoolRecycled,  ///< released buffers kept for reuse

  // ---- reliable stream (TCP analogue) ----
  kStreamSegmentsTx,  ///< every DATA transmission
  kStreamSegmentsRx,  ///< every decoded DATA arrival
  kStreamRetransmittedSegments,
  kStreamRtoEvents,
  kStreamFastRetransmits,
  kStreamDupAcks,
  kStreamStaleSegments,
  kStreamHolStallMicros,  ///< virtual µs blocked head-of-line
  kStreamHolStallSpan,    ///< traced stall windows

  // ---- fault injection ----
  kFaultsInjected,
  kFaultWindowSpan,  ///< traced active-fault windows

  // ---- operator / driver path ----
  kOpFramesDisplayed,
  kOpFramesSuperseded,
  kOpFrameAgeMillis,   ///< capture-to-display age
  kOpStalenessMillis,  ///< displayed-frame age per poll
  kOpFreezeSpan,       ///< traced display freezes

  // ---- simulation ----
  kSimWorldStep,  ///< wall time in World::step
  kSimCollision,  ///< instant collision markers

  // ---- mitigation (rdsim::mitigate) ----
  kMitStateTransitions,  ///< governor state changes
  kMitState,             ///< current LinkState (gauge)
  kMitInterventions,     ///< commands the governor shaped
  kMitWatchdogFired,     ///< command-stale deadline crossings
  kMitMrmActivations,    ///< minimal-risk maneuvers started
  kMitStateSpan,         ///< traced non-NOMINAL windows (lane = state)
  kMitMrmSpan,           ///< traced MRM windows

  // ---- teleop session tick phases (wall time) ----
  kPhaseStep,
  kPhasePhysics,
  kPhaseFaults,
  kPhaseVideo,
  kPhaseRouter,
  kPhaseCommands,
  kPhaseMitigate,

  // ---- per-run rollup ----
  kRunWall,  ///< wall time of a whole run

  kCount  ///< number of metrics; not an id
};

}  // namespace metric

using MetricId = metric::Id;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram, kTimer };

/// Log-scale bucket layout: `bucket_count` geometric buckets spanning
/// [min_value, max_value), plus an underflow bucket (index 0, values below
/// min_value — NaN included) and an overflow bucket (last index, values at or
/// above max_value).
struct HistogramSpec {
  double min_value{1e-3};
  double max_value{1e4};
  std::size_t bucket_count{48};
};

struct MetricDef {
  MetricId id{};
  MetricKind kind{MetricKind::kCounter};
  std::string_view name;
  std::string_view help;
  std::string_view unit;
  HistogramSpec spec{};  ///< bucket layout; read for histograms only
};

/// Catalog row for `id`; throws std::out_of_range for kCount and beyond.
const MetricDef& metric_def(MetricId id);

/// Bucket boundaries of histogram `id` (spec.bucket_count + 1 values);
/// empty for other kinds. Computed once per process.
std::span<const double> histogram_bounds(MetricId id);

/// Geometric boundaries for `spec`: bounds.front() == min_value and
/// bounds.back() == max_value exactly, so underflow/overflow classification
/// never depends on std::pow rounding.
std::vector<double> geometric_bounds(const HistogramSpec& spec);

}  // namespace rdsim::obs
