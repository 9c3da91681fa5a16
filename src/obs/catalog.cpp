// The ONLY translation unit that registers first-party metrics (enforced by
// `python3 -m tools.rdsim_lint.cli --rules obs`). Registration runs during static initialization, before
// main() and before the thread pool exists, so ids are stable process-wide
// and hot paths never touch the registry lock.
#include "obs/catalog.hpp"

namespace rdsim::obs::metric {

namespace {

// Frame ages and staleness live in roughly [5 ms, 2 s] under the paper's
// disturbance grid; a 1 ms .. 10 s log-scale layout brackets that with
// headroom for freeze-heavy runs.
HistogramSpec millis_spec() {
  HistogramSpec spec;
  spec.min_value = 1.0;
  spec.max_value = 1e4;
  spec.bucket_count = 48;
  return spec;
}

}  // namespace

// ---- qdisc layer ----
const MetricId kFifoEnqueued =
    register_counter("qdisc.fifo.enqueued", "Packets accepted by FifoQdisc");
const MetricId kFifoDequeued =
    register_counter("qdisc.fifo.dequeued", "Packets released by FifoQdisc");
const MetricId kFifoDroppedOverlimit = register_counter(
    "qdisc.fifo.dropped_overlimit", "Packets tail-dropped at the FIFO limit");
const MetricId kFifoDepth =
    register_gauge("qdisc.fifo.depth", "FIFO backlog after each op", "packets");
const MetricId kNetemEnqueued =
    register_counter("qdisc.netem.enqueued", "Packets accepted by NetemQdisc");
const MetricId kNetemDequeued =
    register_counter("qdisc.netem.dequeued", "Packets released by NetemQdisc");
const MetricId kNetemDroppedLoss = register_counter(
    "qdisc.netem.dropped_loss", "Packets dropped by the loss model");
const MetricId kNetemDroppedOverlimit = register_counter(
    "qdisc.netem.dropped_overlimit", "Packets tail-dropped at the netem limit");
const MetricId kNetemDuplicated =
    register_counter("qdisc.netem.duplicated", "Packets duplicated by netem");
const MetricId kNetemCorrupted =
    register_counter("qdisc.netem.corrupted", "Packets corrupted by netem");
const MetricId kNetemReordered =
    register_counter("qdisc.netem.reordered", "Packets sent ahead of queue order");
const MetricId kNetemDepth = register_gauge(
    "qdisc.netem.depth", "Netem backlog after each op", "packets");
// No qdisc records this counter, so it reads 0. It stays registered because
// rdsim_bench/bench.cpp sums it into its packet count.
const MetricId kTbfDequeued = register_counter(
    "qdisc.tbf.dequeued", "Packets released by a TBF qdisc (none is built: always 0)");

// ---- payload pool ----
const MetricId kPoolFresh = register_counter(
    "pool.fresh", "Payload acquisitions that fell back to the heap");
const MetricId kPoolReused = register_counter(
    "pool.reused", "Payload acquisitions served from the freelist");
const MetricId kPoolRecycled =
    register_counter("pool.recycled", "Released payload buffers kept for reuse");
const MetricId kPoolDiscarded = register_counter(
    "pool.discarded", "Released payload buffers dropped (bucket full or undersized)");

// ---- reliable stream ----
const MetricId kStreamSegmentsTx = register_counter(
    "stream.segments_tx", "DATA segment transmissions (incl. retransmits)");
const MetricId kStreamSegmentsRx =
    register_counter("stream.segments_rx", "DATA segments decoded on arrival");
const MetricId kStreamRetransmittedSegments = register_counter(
    "stream.segments_retransmitted", "DATA transmissions that were retries");
const MetricId kStreamRtoEvents =
    register_counter("stream.rto_events", "Retransmission-timeout firings");
const MetricId kStreamFastRetransmits = register_counter(
    "stream.retransmits_fast", "Retransmits triggered by duplicate ACKs or SACK gaps");
const MetricId kStreamDupAcks =
    register_counter("stream.dup_acks", "Duplicate cumulative ACKs received");
const MetricId kStreamStaleSegments = register_counter(
    "stream.stale_segments", "Received segments at or below the cumulative ack");
const MetricId kStreamHolStallMicros = register_counter(
    "stream.hol_stall_us",
    "Virtual microseconds with delivery blocked head-of-line", "us");
const MetricId kStreamHolStallSpan = register_counter(
    "stream.hol_stall_windows", "Distinct head-of-line stall windows");

// ---- fault injection ----
const MetricId kFaultsInjected =
    register_counter("fault.injected", "Network disturbances activated");
const MetricId kFaultWindowSpan =
    register_counter("fault.windows", "Disturbance windows traced");

// ---- operator / driver path ----
const MetricId kOpFramesDisplayed =
    register_counter("operator.frames_displayed", "Frames shown to the operator");
const MetricId kOpFramesSuperseded = register_counter(
    "operator.frames_superseded", "Frames replaced before display");
const MetricId kOpFrameAgeMillis = register_histogram(
    "operator.frame_age_ms", "Capture-to-display age of displayed frames", "ms",
    millis_spec());
const MetricId kOpStalenessMillis = register_histogram(
    "operator.staleness_ms", "Age of the displayed frame at each poll", "ms",
    millis_spec());
const MetricId kOpFreezeSpan =
    register_counter("operator.freezes", "Display freeze episodes traced");

// ---- simulation ----
const MetricId kSimWorldStep =
    register_timer("sim.world_step", "Wall time inside World::step");
const MetricId kSimCollision =
    register_counter("sim.collisions", "Collision events sensed");

// ---- mitigation ----
const MetricId kMitStateTransitions = register_counter(
    "mitigate.state_transitions", "DegradationGovernor state changes");
const MetricId kMitState = register_gauge(
    "mitigate.state", "Current governor LinkState (0=NOMINAL..3=LINK_LOSS)",
    "state");
const MetricId kMitInterventions = register_counter(
    "mitigate.interventions", "Outgoing commands the governor modified");
const MetricId kMitWatchdogFired = register_counter(
    "mitigate.watchdog_fired", "Vehicle-side command-stale deadline crossings");
const MetricId kMitMrmActivations = register_counter(
    "mitigate.mrm_activations", "Minimal-risk maneuvers started");
const MetricId kMitStateSpan = register_counter(
    "mitigate.state_windows", "Traced non-NOMINAL governor windows");
const MetricId kMitMrmSpan =
    register_counter("mitigate.mrm_windows", "Traced MRM windows");

// ---- teleop tick phases ----
const MetricId kPhaseStep =
    register_timer("teleop.phase.step", "Wall time of a whole session tick");
const MetricId kPhasePhysics =
    register_timer("teleop.phase.physics", "Wall time in the physics sub-loop");
const MetricId kPhaseFaults = register_timer(
    "teleop.phase.faults", "Wall time in fault-plan updates and injection");
const MetricId kPhaseVideo =
    register_timer("teleop.phase.video", "Wall time in the video pipeline");
const MetricId kPhaseRouter =
    register_timer("teleop.phase.router", "Wall time in Channel::poll (packet delivery)");
const MetricId kPhaseCommands =
    register_timer("teleop.phase.commands", "Wall time in the command pipeline");
const MetricId kPhaseMitigate = register_timer(
    "teleop.phase.mitigate", "Wall time in link estimation and the governor");

// ---- per-run rollup ----
const MetricId kRunWall =
    register_timer("run.wall", "Wall time of one full teleop run");

}  // namespace rdsim::obs::metric
