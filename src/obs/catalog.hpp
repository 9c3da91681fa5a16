// The metric-name catalog: every first-party instrumentation id, declared
// here and registered exactly once in catalog.cpp. Hot paths refer to these
// ids only — never to name strings — which is what
// `python3 -m tools.rdsim_lint.cli --rules obs` enforces (`metric-registration` / `hot-path-literal` rules). The full
// metric reference with units and semantics lives in docs/observability.md.
#pragma once

#include "obs/metrics.hpp"

namespace rdsim::obs::metric {

// ---- qdisc layer (netem / pfifo) ----
extern const MetricId kFifoEnqueued;
extern const MetricId kFifoDequeued;
extern const MetricId kFifoDroppedOverlimit;
extern const MetricId kFifoDepth;
extern const MetricId kNetemEnqueued;
extern const MetricId kNetemDequeued;
extern const MetricId kNetemDroppedLoss;
extern const MetricId kNetemDroppedOverlimit;
extern const MetricId kNetemDuplicated;
extern const MetricId kNetemCorrupted;
extern const MetricId kNetemReordered;
extern const MetricId kNetemDepth;
extern const MetricId kTbfDequeued;  ///< always zero; see catalog.cpp

// ---- payload pool (per-channel buffer freelist) ----
extern const MetricId kPoolFresh;       ///< acquisitions that heap-allocated
extern const MetricId kPoolReused;      ///< acquisitions served from the freelist
extern const MetricId kPoolRecycled;    ///< released buffers kept for reuse
extern const MetricId kPoolDiscarded;   ///< released buffers dropped (cap/odd size)

// ---- reliable stream (TCP analogue) ----
extern const MetricId kStreamSegmentsTx;          ///< every DATA transmission
extern const MetricId kStreamSegmentsRx;          ///< every decoded DATA arrival
extern const MetricId kStreamRetransmittedSegments;
extern const MetricId kStreamRtoEvents;
extern const MetricId kStreamFastRetransmits;
extern const MetricId kStreamDupAcks;
extern const MetricId kStreamStaleSegments;
extern const MetricId kStreamHolStallMicros;      ///< virtual µs blocked head-of-line
extern const MetricId kStreamHolStallSpan;        ///< traced stall windows

// ---- fault injection ----
extern const MetricId kFaultsInjected;
extern const MetricId kFaultWindowSpan;           ///< traced active-fault windows

// ---- operator / driver path ----
extern const MetricId kOpFramesDisplayed;
extern const MetricId kOpFramesSuperseded;
extern const MetricId kOpFrameAgeMillis;          ///< capture-to-display age
extern const MetricId kOpStalenessMillis;         ///< displayed-frame age per poll
extern const MetricId kOpFreezeSpan;              ///< traced display freezes

// ---- simulation ----
extern const MetricId kSimWorldStep;              ///< wall time in World::step
extern const MetricId kSimCollision;              ///< instant collision markers

// ---- mitigation (rdsim::mitigate) ----
extern const MetricId kMitStateTransitions;       ///< governor state changes
extern const MetricId kMitState;                  ///< current LinkState (gauge)
extern const MetricId kMitInterventions;          ///< commands the governor shaped
extern const MetricId kMitWatchdogFired;          ///< command-stale deadline crossings
extern const MetricId kMitMrmActivations;         ///< minimal-risk maneuvers started
extern const MetricId kMitStateSpan;              ///< traced non-NOMINAL windows (lane = state)
extern const MetricId kMitMrmSpan;                ///< traced MRM windows

// ---- teleop session tick phases (wall time) ----
extern const MetricId kPhaseStep;
extern const MetricId kPhasePhysics;
extern const MetricId kPhaseFaults;
extern const MetricId kPhaseVideo;
extern const MetricId kPhaseRouter;
extern const MetricId kPhaseCommands;
extern const MetricId kPhaseMitigate;

// ---- per-run rollup ----
extern const MetricId kRunWall;                   ///< wall time of a whole run

}  // namespace rdsim::obs::metric
