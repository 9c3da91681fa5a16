// The catalog table: one row per obs::metric id, in enumerator order. The
// static_asserts below turn a misplaced row, a duplicate or malformed name
// and an invalid histogram layout into compile errors.
#include "obs/catalog.hpp"

#include <array>
#include <cmath>

namespace rdsim::obs {

namespace {

using namespace metric;

constexpr MetricDef counter(MetricId id, std::string_view name, std::string_view help,
                            std::string_view unit = "") {
  return {id, MetricKind::kCounter, name, help, unit, {}};
}

constexpr MetricDef gauge(MetricId id, std::string_view name, std::string_view help,
                          std::string_view unit) {
  return {id, MetricKind::kGauge, name, help, unit, {}};
}

constexpr MetricDef timer(MetricId id, std::string_view name, std::string_view help) {
  return {id, MetricKind::kTimer, name, help, "ns", {}};
}

constexpr MetricDef histogram(MetricId id, std::string_view name, std::string_view help,
                              std::string_view unit, HistogramSpec spec) {
  return {id, MetricKind::kHistogram, name, help, unit, spec};
}

// Frame ages and staleness live in roughly [5 ms, 2 s] under the paper's
// disturbance grid; a 1 ms .. 10 s log-scale layout brackets that with
// headroom for freeze-heavy runs.
constexpr HistogramSpec kMillisSpec{1.0, 1e4, 48};

constexpr std::array<MetricDef, kCount> kCatalog{{
    // ---- qdisc layer ----
    counter(kFifoEnqueued, "qdisc.fifo.enqueued", "Packets accepted by the pfifo root qdisc"),
    counter(kFifoDequeued, "qdisc.fifo.dequeued", "Packets released by the pfifo root qdisc"),
    counter(kFifoDroppedOverlimit, "qdisc.fifo.dropped_overlimit",
            "Packets tail-dropped at the FIFO limit"),
    gauge(kFifoDepth, "qdisc.fifo.depth", "FIFO backlog after each op", "packets"),
    counter(kNetemEnqueued, "qdisc.netem.enqueued", "Packets accepted by a netem rule"),
    counter(kNetemDequeued, "qdisc.netem.dequeued", "Packets released by a netem rule"),
    counter(kNetemDroppedLoss, "qdisc.netem.dropped_loss",
            "Packets dropped by the loss model"),
    counter(kNetemDroppedOverlimit, "qdisc.netem.dropped_overlimit",
            "Packets tail-dropped at the netem limit"),
    counter(kNetemDuplicated, "qdisc.netem.duplicated", "Packets duplicated by netem"),
    counter(kNetemCorrupted, "qdisc.netem.corrupted", "Packets corrupted by netem"),
    counter(kNetemReordered, "qdisc.netem.reordered",
            "Packets sent ahead of queue order"),
    gauge(kNetemDepth, "qdisc.netem.depth", "Netem backlog after each op", "packets"),
    // No qdisc records this counter, so it reads 0. It stays in the catalog
    // because rdsim_bench/bench.cpp sums it into its packet count.
    counter(kTbfDequeued, "qdisc.tbf.dequeued",
            "Packets released by a TBF qdisc (none is built: always 0)"),

    // ---- payload pool ----
    counter(kPoolFresh, "pool.fresh", "Payload acquisitions that allocated or grew"),
    counter(kPoolReused, "pool.reused", "Payload acquisitions served from the freelist"),
    counter(kPoolRecycled, "pool.recycled", "Released payload buffers kept for reuse"),

    // ---- reliable stream ----
    counter(kStreamSegmentsTx, "stream.segments_tx",
            "DATA segment transmissions (incl. retransmits)"),
    counter(kStreamSegmentsRx, "stream.segments_rx", "DATA segments decoded on arrival"),
    counter(kStreamRetransmittedSegments, "stream.segments_retransmitted",
            "DATA transmissions that were retries"),
    counter(kStreamRtoEvents, "stream.rto_events", "Retransmission-timeout firings"),
    counter(kStreamFastRetransmits, "stream.retransmits_fast",
            "Retransmits triggered by duplicate ACKs or SACK gaps"),
    counter(kStreamDupAcks, "stream.dup_acks", "Duplicate cumulative ACKs received"),
    counter(kStreamStaleSegments, "stream.stale_segments",
            "Received segments at or below the cumulative ack"),
    counter(kStreamHolStallMicros, "stream.hol_stall_us",
            "Virtual microseconds with delivery blocked head-of-line", "us"),
    counter(kStreamHolStallSpan, "stream.hol_stall_windows",
            "Distinct head-of-line stall windows"),

    // ---- fault injection ----
    counter(kFaultsInjected, "fault.injected", "Network disturbances activated"),
    counter(kFaultWindowSpan, "fault.windows", "Disturbance windows traced"),

    // ---- operator / driver path ----
    counter(kOpFramesDisplayed, "operator.frames_displayed",
            "Frames shown to the operator"),
    counter(kOpFramesSuperseded, "operator.frames_superseded",
            "Frames replaced before display"),
    histogram(kOpFrameAgeMillis, "operator.frame_age_ms",
              "Capture-to-display age of displayed frames", "ms", kMillisSpec),
    histogram(kOpStalenessMillis, "operator.staleness_ms",
              "Age of the displayed frame at each poll", "ms", kMillisSpec),
    counter(kOpFreezeSpan, "operator.freezes", "Display freeze episodes traced"),

    // ---- simulation ----
    timer(kSimWorldStep, "sim.world_step", "Wall time inside World::step"),
    counter(kSimCollision, "sim.collisions", "Collision events sensed"),

    // ---- mitigation ----
    counter(kMitStateTransitions, "mitigate.state_transitions",
            "DegradationGovernor state changes"),
    gauge(kMitState, "mitigate.state",
          "Current governor LinkState (0=NOMINAL..3=LINK_LOSS)", "state"),
    counter(kMitInterventions, "mitigate.interventions",
            "Outgoing commands the governor modified"),
    counter(kMitWatchdogFired, "mitigate.watchdog_fired",
            "Vehicle-side command-stale deadline crossings"),
    counter(kMitMrmActivations, "mitigate.mrm_activations",
            "Minimal-risk maneuvers started"),
    counter(kMitStateSpan, "mitigate.state_windows",
            "Traced non-NOMINAL governor windows"),
    counter(kMitMrmSpan, "mitigate.mrm_windows", "Traced MRM windows"),

    // ---- teleop tick phases ----
    timer(kPhaseStep, "teleop.phase.step", "Wall time of a whole session tick"),
    timer(kPhasePhysics, "teleop.phase.physics", "Wall time in the physics sub-loop"),
    timer(kPhaseFaults, "teleop.phase.faults",
          "Wall time in fault-plan updates and injection"),
    timer(kPhaseVideo, "teleop.phase.video", "Wall time in the video pipeline"),
    timer(kPhaseRouter, "teleop.phase.router",
          "Wall time in Channel::poll (packet delivery)"),
    timer(kPhaseCommands, "teleop.phase.commands", "Wall time in the command pipeline"),
    timer(kPhaseMitigate, "teleop.phase.mitigate",
          "Wall time in link estimation and the governor"),

    // ---- per-run rollup ----
    timer(kRunWall, "run.wall", "Wall time of one full teleop run"),
}};

constexpr bool rows_sit_at_their_ids() {
  for (std::size_t i = 0; i < kCatalog.size(); ++i) {
    if (kCatalog[i].id != i) return false;
  }
  return true;
}

constexpr bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

constexpr bool names_valid_and_unique() {
  for (std::size_t i = 0; i < kCatalog.size(); ++i) {
    if (!valid_name(kCatalog[i].name)) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (kCatalog[j].name == kCatalog[i].name) return false;
    }
  }
  return true;
}

constexpr bool histogram_specs_valid() {
  for (const MetricDef& def : kCatalog) {
    if (def.kind != MetricKind::kHistogram) continue;
    const HistogramSpec& spec = def.spec;
    if (!(spec.min_value > 0.0) || !(spec.max_value > spec.min_value) ||
        spec.bucket_count == 0) {
      return false;
    }
  }
  return true;
}

static_assert(rows_sit_at_their_ids(),
              "obs catalog: rows must follow the obs::metric enumerator order");
static_assert(names_valid_and_unique(),
              "obs catalog: metric names must be unique and match [a-z0-9_.]+");
static_assert(histogram_specs_valid(),
              "obs catalog: histogram specs need 0 < min < max and >= 1 bucket");

}  // namespace

const MetricDef& metric_def(MetricId id) { return kCatalog.at(id); }

std::vector<double> geometric_bounds(const HistogramSpec& spec) {
  std::vector<double> bounds(spec.bucket_count + 1);
  const double n = static_cast<double>(spec.bucket_count);
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    bounds[i] = spec.min_value * std::pow(spec.max_value / spec.min_value,
                                          static_cast<double>(i) / n);
  }
  bounds.front() = spec.min_value;
  bounds.back() = spec.max_value;
  return bounds;
}

std::span<const double> histogram_bounds(MetricId id) {
  static const std::array<std::vector<double>, kCount> bounds = [] {
    std::array<std::vector<double>, kCount> out;
    for (const MetricDef& def : kCatalog) {
      if (def.kind == MetricKind::kHistogram) out[def.id] = geometric_bounds(def.spec);
    }
    return out;
  }();
  return bounds.at(id);
}

}  // namespace rdsim::obs
