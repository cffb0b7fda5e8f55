#ifndef SPOT_CORE_DETECTOR_H_
#define SPOT_CORE_DETECTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/detector_events.h"
#include "core/drift_detector.h"
#include "core/finding.h"
#include "core/reservoir.h"
#include "core/spot_config.h"
#include "core/topk_outliers.h"
#include "grid/synapse_manager.h"
#include "learning/sst.h"
#include "learning/supervised.h"
#include "obs/perf_counters.h"
#include "stream/detector_iface.h"

namespace spot {

class ShardedSpotEngine;

/// One engine window of the last batch (DESIGN.md Section 12.3): the start
/// of its first tile (µs, SteadyMicrosSinceStart timebase) and the
/// windows' totals over the batch's tiles — their summed length
/// (`perf.clock_ns`) and the CPU time the measuring thread spent inside
/// them (`perf.cpu_ns`).
struct StageEntry {
  std::uint64_t start_us = 0;
  obs::PerfStageTotals perf;
};

/// The per-batch stage record: the phase-0 bin pass and one probe entry per
/// engine shard. The serving tier turns probe entries into `shard_probe`
/// spans and folds the perf totals into `stage="bin"` / `stage="probe"`.
struct BatchStageRecord {
  StageEntry bin;
  std::vector<StageEntry> probes;
};

// SubspaceFinding lives in core/finding.h (included above) so the top-k
// retention structure can share it without a header cycle.

/// Verdict of SPOT on one streaming point: the label plus the outlying
/// subspace(s) — "the context where these projected outliers exist"
/// (paper, Section I).
struct SpotResult {
  bool is_outlier = false;
  std::vector<SubspaceFinding> findings;

  /// Anomaly score in [0, 1]: 1 - min cell RD over all checked subspaces,
  /// clamped. Monotone in sparsity; used for ROC sweeps.
  double score = 0.0;
};

/// Running counters of the detection stage.
struct SpotStats {
  std::uint64_t points_processed = 0;
  std::uint64_t outliers_detected = 0;
  std::uint64_t evolution_rounds = 0;
  std::uint64_t os_growth_runs = 0;
  std::uint64_t drifts_detected = 0;
  /// ApplyFeedback rounds that reached the supervised learner (part of the
  /// deterministic detector state: each round consumes one RNG draw, so the
  /// count is checkpointed alongside the RNG stream).
  std::uint64_t feedback_rounds = 0;

  /// Wall-clock seconds spent inside Process()/ProcessBatch() since
  /// Learn(), and the number of ProcessBatch() calls completed. These are
  /// the one source benches and the sharded engine report throughput from
  /// (instead of each re-deriving rates around the call sites).
  double detection_seconds = 0.0;
  std::uint64_t batches_processed = 0;

  /// Mean detection throughput since Learn(): points per wall-clock second
  /// spent in the detection entry points (0 before any point is timed).
  double PointsPerSecond() const {
    return detection_seconds > 0.0
               ? static_cast<double>(points_processed) / detection_seconds
               : 0.0;
  }
};

/// The Stream Projected Outlier deTector.
///
/// Lifecycle: construct with a SpotConfig, call Learn() once with a batch
/// of training data (plus optional expert knowledge), then call Process()
/// for every streaming point. Learn() builds the partition and the SST
/// (FS + CS + OS); Process() updates the decaying data synapses, checks the
/// point's PCS in every SST subspace, grows OS from detected outliers,
/// periodically self-evolves CS, and watches for concept drift.
class SpotDetector {
 public:
  explicit SpotDetector(const SpotConfig& config);

  SpotDetector(const SpotDetector&) = delete;
  SpotDetector& operator=(const SpotDetector&) = delete;

  /// Offline learning stage. `knowledge` may be nullptr (pure unsupervised).
  /// Training points also warm-start the data synapses. Returns false (and
  /// leaves the detector unlearned) when the config is invalid or the
  /// training batch is empty or holds a NaN or infinite attribute.
  bool Learn(const std::vector<std::vector<double>>& training_data,
             const DomainKnowledge* knowledge = nullptr);

  /// Online detection stage: one-pass processing of the next point — a
  /// batch of one through the same engine as ProcessBatch (it is not
  /// counted in SpotStats::batches_processed). Requires Learn() to have
  /// succeeded.
  SpotResult Process(const DataPoint& point);

  /// Convenience overload for raw value vectors (ids auto-assigned).
  SpotResult Process(const std::vector<double>& values);

  /// Batch detection: processes `points` in arrival order and returns one
  /// verdict per point. Produces results identical to calling Process() on
  /// each point in sequence (same synapse updates, OS growth, evolution and
  /// drift side effects at the same ticks) — batching amortizes per-point
  /// overhead, it is not a semantic change. Every batch runs through a
  /// ShardedSpotEngine, which splits the per-subspace synapse work into
  /// config.num_shards jobs on the process's shared pool (inline at one
  /// shard); verdicts stay bit-identical at every shard count.
  std::vector<SpotResult> ProcessBatch(const std::vector<DataPoint>& points);

  /// Convenience overload for raw value vectors (ids auto-assigned).
  std::vector<SpotResult> ProcessBatch(
      const std::vector<std::vector<double>>& batch);

  /// Supervised feedback entry point (the wire kFeedback request lands
  /// here): labels previously seen points by id — resolved against the
  /// top-k retention window — and/or submits fresh labeled outlier
  /// examples, then routes them through the supervised outlier-driven
  /// learner against the reservoir sample and grows OS with the result.
  /// Must be called at a batch boundary (never mid-batch): each successful
  /// round consumes one RNG draw, so call order relative to Process()
  /// determines all subsequent verdicts. Returns false without touching
  /// any state (or the RNG stream) when the detector is unlearned, no
  /// labels or more than SpotConfig::kMaxFeedbackLabels were given, an id
  /// is not retained, an example's width does not match the stream or it
  /// holds a NaN or infinite attribute, or the reservoir is still too
  /// small; `error` (may be nullptr) then names the problem.
  bool ApplyFeedback(const std::vector<std::uint64_t>& point_ids,
                     const std::vector<std::vector<double>>& examples,
                     std::string* error = nullptr);

  /// Up to k worst outliers in the current (omega, epsilon) window, best
  /// first, with decayed scores stamped at the current tick. Const: query
  /// timing can never perturb detection state.
  std::vector<TopKEntry> QueryTopK(std::size_t k) const {
    return topk_.Query(k, tick_);
  }

  bool learned() const { return synapses_ != nullptr; }
  /// Attribute count the detector was trained on (0 before Learn()).
  /// Callers feeding externally sourced points (e.g. the network ingest
  /// layer) validate widths against this before Process/ProcessBatch.
  int dimension() const {
    return partition_.has_value() ? partition_->num_dims() : 0;
  }
  const Sst& sst() const { return sst_; }
  const SynapseManager& synapses() const { return *synapses_; }
  const SpotStats& stats() const { return stats_; }
  const SpotConfig& config() const { return config_; }
  const ReservoirSample& reservoir() const { return reservoir_; }
  const TopKOutliers& topk() const { return topk_; }

  /// Number of SST subspaces currently tracked by the synapses.
  std::size_t TrackedSubspaces() const;

  /// Reconfigures the shard count used by ProcessBatch (see
  /// SpotConfig::num_shards), clamped to [1, SpotConfig::kMaxShards].
  /// Takes effect from the next batch; verdicts do not depend on the
  /// setting.
  void set_num_shards(std::size_t num_shards) {
    config_.num_shards =
        std::clamp<std::size_t>(num_shards, 1, SpotConfig::kMaxShards);
  }
  std::size_t num_shards() const { return config_.num_shards; }

  /// Full-state binary checkpointing (see src/core/checkpoint.h): builds /
  /// restores an in-memory image of config, partition, SST, synapses,
  /// reservoir, drift state, RNG and all deterministic counters, such that
  /// save → load → Process is bit-identical to an uninterrupted run.
  /// (SpotStats::detection_seconds is wall-clock measurement, not detector
  /// state; it restarts at zero on restore.) SaveState returns the
  /// CRC-sealed image, built in a buffer that reserves `capacity` bytes up
  /// front. LoadState returns false on a corrupt, malformed or
  /// incompatible image and leaves the detector unlearned (never
  /// half-restored). SaveCheckpointFile/LoadCheckpointFile put the image
  /// in a file.
  std::string SaveState(std::size_t capacity = 0) const;
  bool LoadState(const std::string& image);

  /// Attaches an observability sink (borrowed; must outlive the detector
  /// or be detached with nullptr) that receives the engine's rare state
  /// transitions — subspace churn, evolution/OS-growth rounds, drift,
  /// reservoir turnover (DESIGN.md Section 10). Propagated into the SST
  /// and the synapse manager, and re-applied when Learn()/LoadState()
  /// rebuild the latter. Pure reporting: verdicts, stats and checkpoint
  /// bytes are bit-identical with or without a sink, and the per-point
  /// hot path pays one pointer test.
  void set_event_sink(DetectorEventSink* sink);
  DetectorEventSink* event_sink() const { return event_sink_; }

  /// The last ProcessBatch's (or Process's) stage record, overwritten per
  /// batch (2 + 2K steady-clock and as many thread-CPU-clock reads per
  /// tile). Pure measurement: verdicts, stats and checkpoint bytes never
  /// depend on it.
  const BatchStageRecord& stage_record() const { return stage_record_; }

 private:
  // The sharded engine drives the per-point pipeline from its batch join
  // (reservoir, verdict assembly, ApplyPointSideEffects) and borrows the
  // synapses for its shard views.
  friend class ShardedSpotEngine;

  /// Runs `points` through a ShardedSpotEngine built for this call and adds
  /// the wall-clock time to the stats. Requires learned().
  std::vector<SpotResult> Detect(const std::vector<DataPoint>& points);

  void SyncTrackedSubspaces();
  /// Post-verdict machinery of one point, run by the engine's serial join:
  /// stats, top-k retention, OS growth cadence, CS self-evolution, drift
  /// watch. `point_id`/`tick` identify the point for the top-k window (tick
  /// is the value the point's synapse update used).
  void ApplyPointSideEffects(std::uint64_t point_id, std::uint64_t tick,
                             const std::vector<double>& values,
                             const SpotResult& result);
  void GrowOutlierDriven(const std::vector<double>& values);
  void RunSelfEvolution();
  void RelearnAfterDrift();
  /// Reservoir offer of the engine's serial join: counts post-warm-up
  /// replacements and emits kReservoirRefresh once per full turnover
  /// (~capacity replacements).
  void AddToReservoir(const std::vector<double>& values);
  /// Emits a detector-scoped event at the current tick (no-op unsinked).
  void Emit(DetectorEventKind kind, std::uint64_t a, double value = 0.0);

  SpotConfig config_;
  Rng rng_;
  Sst sst_;
  std::optional<Partition> partition_;
  std::unique_ptr<SynapseManager> synapses_;
  ReservoirSample reservoir_;
  /// Worst-outlier retention for QueryTopK / feedback-by-id; rebuilt by
  /// Learn() and LoadState() so it always matches the live config's
  /// capacity and decay model.
  TopKOutliers topk_;
  PageHinkley drift_;
  SpotStats stats_;
  std::uint64_t tick_ = 0;
  std::uint64_t outliers_since_os_update_ = 0;
  DetectorEventSink* event_sink_ = nullptr;
  /// Post-warm-up reservoir replacements (observability cadence only —
  /// never checkpointed, so a restored detector restarts the count).
  std::uint64_t reservoir_replacements_ = 0;
  /// Filled by the engine for every batch (see stage_record()).
  BatchStageRecord stage_record_;
};

/// Adapter exposing SpotDetector through the generic StreamDetector
/// interface used by the comparative-evaluation harness.
class SpotStreamAdapter : public StreamDetector {
 public:
  /// Borrows `detector`, which must be learned and outlive the adapter.
  explicit SpotStreamAdapter(SpotDetector* detector) : detector_(detector) {}

  Detection Process(const DataPoint& point) override;
  std::vector<Detection> ProcessBatch(
      const std::vector<DataPoint>& points) override;
  std::string name() const override { return "SPOT"; }

 private:
  static Detection ToDetection(const SpotResult& r);

  SpotDetector* detector_;
};

}  // namespace spot

#endif  // SPOT_CORE_DETECTOR_H_
