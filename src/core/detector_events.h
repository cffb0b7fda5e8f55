#ifndef SPOT_CORE_DETECTOR_EVENTS_H_
#define SPOT_CORE_DETECTOR_EVENTS_H_

// Structured engine events (DESIGN.md Section 10). The detector, the SST
// and the synapse manager report their *rare* state transitions — subspace
// churn, evolution rounds, drift, reservoir turnover, grid compactions —
// through a pluggable sink so the core stays free of any observability
// dependency. The per-point hot path never emits an event: every emission
// site sits on a path that runs at most once per batch (and usually far
// less often), so an attached sink costs one pointer test there and
// nothing anywhere else. Events are pure reporting — verdicts, stats and
// checkpoint bytes are bit-identical with or without a sink attached.

#include <cstdint>

#include "subspace/subspace.h"

namespace spot {

enum class DetectorEventKind : std::uint8_t {
  /// SynapseManager started tracking `subspace` (tick = grid serial).
  kSubspaceTracked = 0,
  /// SynapseManager dropped `subspace` (tick = revision at removal).
  kSubspaceUntracked = 1,
  /// Sst accepted `subspace` into CS or OS (a = subset, value = score).
  kSstInsert = 2,
  /// Sst::ClearClustering dropped the whole CS (a = subspaces dropped).
  kSstClear = 3,
  /// One CS self-evolution round ran (a = evolution_rounds so far).
  kEvolutionRound = 4,
  /// One outlier-driven OS growth run (a = os_growth_runs so far).
  kOsGrowthRun = 5,
  /// PageHinkley fired (a = drifts_detected so far).
  kDriftDetected = 6,
  /// Post-drift CS relearning ran (a = reservoir points it learned from).
  kDriftRelearn = 7,
  /// The reservoir replaced ~capacity items since the last refresh event
  /// (a = completed turnover count): Vitter's-R churn made visible
  /// without a per-replacement event.
  kReservoirRefresh = 8,
  /// Decayed grids pruned dead cells (a = compaction sweeps since the
  /// last event, value = cells reclaimed by them).
  kGridCompaction = 9,
  /// Service-layer lifecycle (emitted by SpotService, not the core):
  kCheckpointSave = 10,
  kCheckpointLoad = 11,
  kSessionEvict = 12,
  kSessionReload = 13,
  /// One ApplyFeedback round ran (a = labeled examples it learned from,
  /// value = feedback_rounds so far).
  kFeedbackApplied = 14,
};

/// Stable lower-case name used by the journal's JSON rendering.
inline const char* DetectorEventKindName(DetectorEventKind kind) {
  switch (kind) {
    case DetectorEventKind::kSubspaceTracked:
      return "subspace_tracked";
    case DetectorEventKind::kSubspaceUntracked:
      return "subspace_untracked";
    case DetectorEventKind::kSstInsert:
      return "sst_insert";
    case DetectorEventKind::kSstClear:
      return "sst_clear";
    case DetectorEventKind::kEvolutionRound:
      return "evolution_round";
    case DetectorEventKind::kOsGrowthRun:
      return "os_growth_run";
    case DetectorEventKind::kDriftDetected:
      return "drift_detected";
    case DetectorEventKind::kDriftRelearn:
      return "drift_relearn";
    case DetectorEventKind::kReservoirRefresh:
      return "reservoir_refresh";
    case DetectorEventKind::kGridCompaction:
      return "grid_compaction";
    case DetectorEventKind::kCheckpointSave:
      return "checkpoint_save";
    case DetectorEventKind::kCheckpointLoad:
      return "checkpoint_load";
    case DetectorEventKind::kSessionEvict:
      return "session_evict";
    case DetectorEventKind::kSessionReload:
      return "session_reload";
    case DetectorEventKind::kFeedbackApplied:
      return "feedback_applied";
  }
  return "unknown";
}

/// One engine event. `tick` is the detector tick at emission (or the
/// synapse revision for tracking events, which fire from the manager);
/// `subspace` is empty when the event is not subspace-scoped; `a` and
/// `value` carry the kind-specific detail documented on the enum.
struct DetectorEvent {
  DetectorEventKind kind = DetectorEventKind::kSubspaceTracked;
  std::uint64_t tick = 0;
  Subspace subspace;
  std::uint64_t a = 0;
  double value = 0.0;
};

/// Receives events from one detector (or one of its sub-objects). The
/// sink must tolerate being called from whichever thread drives the
/// detector. In SpotService that may be any caller's thread, but one at a
/// time: detector work runs under the session's lease, and lifecycle
/// events are emitted under the service lock by the lease holder or while
/// no lease is held, so a per-session sink sees one writer at any moment.
class DetectorEventSink {
 public:
  virtual ~DetectorEventSink() = default;
  virtual void OnDetectorEvent(const DetectorEvent& event) = 0;
};

}  // namespace spot

#endif  // SPOT_CORE_DETECTOR_EVENTS_H_
