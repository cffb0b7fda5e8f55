#ifndef SPOT_SERVICE_SPOT_SERVICE_H_
#define SPOT_SERVICE_SPOT_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/spot_config.h"
#include "learning/supervised.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/quality.h"
#include "stream/data_point.h"

namespace spot {

/// Configuration of a SpotService instance.
struct SpotServiceConfig {
  /// Maximum number of detector sessions resident in memory at once. When
  /// admitting one more would exceed this, the least-recently-used
  /// resident session is checkpointed to `checkpoint_dir` and dropped;
  /// the next Ingest for it transparently reloads it.
  std::size_t max_resident = 8;

  /// Shard count applied to every session's ProcessBatch (clamped to
  /// [1, SpotConfig::kMaxShards]). It sets the jobs per batch tile, not a
  /// thread count: every session of every service dispatches on the
  /// process's one compute pool (ThreadPool::Shared). Verdicts never
  /// depend on this — it is purely a throughput knob, exactly as for a
  /// standalone detector.
  std::size_t num_shards = 1;

  /// Directory for session checkpoints (`<dir>/<id>.ckpt`, written via the
  /// binary full-state format of src/core/checkpoint.h). Must already
  /// exist. When empty, eviction and persistence are disabled: sessions
  /// beyond max_resident are refused instead of evicted.
  std::string checkpoint_dir;

  /// Capacity of the service's detector event journal (DESIGN.md Section
  /// 10): the bounded ring of engine state transitions (SST churn, drift,
  /// evolution, compactions, checkpoint lifecycle) across all sessions.
  /// 0 disables journaling entirely — detectors run unsinked and pay
  /// nothing.
  std::size_t journal_capacity = 8192;

  /// Accumulate per-session detection-quality metrics (per-subspace alarm
  /// tallies + verdict-margin histograms) from every ingest. On by
  /// default: the cost is one map update per *finding* (findings are rare)
  /// plus two histogram records per finding — never per clean point.
  bool collect_quality = true;

  /// Collect hardware-counter deltas for each ProcessBatch's
  /// phase-0 binning pass and per-shard probe loops (DESIGN.md Section
  /// 12) and accumulate them into the service's ObsSnapshot as labeled
  /// `perf_*` families (`stage="bin"`, `stage="probe",engine_shard="k"`).
  /// Degrades to a clock-only software fallback where perf_event_open is
  /// denied. Off by default; verdicts and checkpoint bytes are
  /// bit-identical either way.
  bool collect_perf_counters = false;
};

/// Point-in-time view of one session (the per-session half of the metrics
/// registry). `stats` is the session detector's SpotStats — live when the
/// session is resident, the values captured at eviction otherwise, so the
/// registry stays meaningful for evicted sessions too.
struct SessionMetrics {
  std::string id;
  bool resident = false;
  bool on_disk = false;
  SpotStats stats;
  std::uint64_t batches_ingested = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reloads = 0;
};

/// Aggregate view over every known session plus service-level counters
/// (the global half of the metrics registry).
struct ServiceMetrics {
  std::size_t sessions = 0;
  std::size_t resident_sessions = 0;
  std::uint64_t points_processed = 0;
  std::uint64_t outliers_detected = 0;
  std::uint64_t drifts_detected = 0;
  std::uint64_t batches_ingested = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reloads = 0;
  std::uint64_t checkpoints_written = 0;
  double detection_seconds = 0.0;
};

/// Folds `from` into `into` by summing every field. Used by the
/// multi-reactor server to aggregate its per-reactor service shards.
void MergeServiceMetrics(ServiceMetrics* into, const ServiceMetrics& from);

/// Result of one Ingest call. `ok` is false when the session is unknown,
/// its reload from disk failed, or the service could not admit it.
struct IngestResult {
  bool ok = false;
  std::vector<SpotResult> verdicts;
  /// Where the batch's engine time went (see BatchStageRecord); the
  /// serving layer turns its probe entries into `shard_probe` spans.
  BatchStageRecord stages;
};

/// Long-lived detection service multiplexing many independent SPOT
/// sessions (DESIGN.md Section 4); their sharded batches, like those of
/// every other service in the process, run on the one process pool.
///
/// Each *session* is a named, fully independent detector: its own config,
/// partition, SST and synapses. The service routes interleaved
/// `Ingest(session_id, batch)` calls to the right session, keeps at most
/// `max_resident` of them in memory (LRU-evicting the rest to binary
/// checkpoints and reloading them transparently on their next batch), and
/// maintains a per-session + global metrics registry built on SpotStats.
///
/// Because eviction uses the full-state checkpoint format, an evicted
/// session resumes *bit-identically*: the verdict sequence of a session is
/// independent of how often it was evicted, reloaded, or interleaved with
/// other sessions (tests/service_test.cc proves this).
///
/// Thread-safety: all public methods are safe to call from multiple
/// threads; calls are serialized by an internal mutex. Parallelism comes
/// from the shard jobs *inside* a batch, not from concurrent batches —
/// a session's stream is inherently ordered anyway.
class SpotService {
 public:
  explicit SpotService(SpotServiceConfig config);

  SpotService(const SpotService&) = delete;
  SpotService& operator=(const SpotService&) = delete;

  /// True when `id` is usable as a session name (and hence a checkpoint
  /// file stem): non-empty, at most 128 chars, `[A-Za-z0-9._-]` only, and
  /// not starting with a dot.
  static bool ValidSessionId(const std::string& id);

  /// Creates and learns a new session. Fails (false) on an invalid or
  /// duplicate id, a failed Learn(), or when no residency slot can be
  /// freed. The training batch is the session's offline learning stage.
  bool CreateSession(const std::string& id, const SpotConfig& config,
                     const std::vector<std::vector<double>>& training,
                     const DomainKnowledge* knowledge = nullptr);

  /// Registers a session persisted by an earlier service instance (e.g.
  /// after a process restart) from `checkpoint_dir/<id>.ckpt`. The
  /// checkpoint embeds the full config, so nothing else is needed. The
  /// session is admitted resident immediately.
  bool OpenSession(const std::string& id);

  bool HasSession(const std::string& id) const;
  bool IsResident(const std::string& id) const;

  /// All known session ids, sorted.
  std::vector<std::string> SessionIds() const;

  /// Routes one batch to `id`'s detector, transparently reloading it from
  /// disk (and LRU-evicting another session) when it is not resident.
  IngestResult Ingest(const std::string& id,
                      const std::vector<DataPoint>& batch);

  /// Convenience overload for raw value vectors.
  IngestResult Ingest(const std::string& id,
                      const std::vector<std::vector<double>>& batch);

  /// Routes one supervised feedback round to `id`'s detector (reloading it
  /// if needed): labels retained points by id and/or submits fresh labeled
  /// examples (see SpotDetector::ApplyFeedback). Must be called at a batch
  /// boundary of the session's stream — feedback consumes one RNG draw, so
  /// its position relative to Ingest calls determines all later verdicts.
  /// False with `error` (may be nullptr) set when the session is unknown,
  /// cannot be made resident, or the detector refused the round.
  bool ApplyFeedback(const std::string& id,
                     const std::vector<std::uint64_t>& point_ids,
                     const std::vector<std::vector<double>>& examples,
                     std::string* error = nullptr);

  /// The k worst outliers in `id`'s current (omega, epsilon) window, best
  /// first (reloads the session if needed; the query itself never mutates
  /// detection state). False with `error` set when the session is unknown
  /// or cannot be made resident.
  bool QueryTopK(const std::string& id, std::size_t k,
                 std::vector<TopKEntry>* out, std::string* error = nullptr);

  /// Writes `id`'s checkpoint without evicting it. True for a session that
  /// is already (only) on disk.
  bool Checkpoint(const std::string& id);

  /// Checkpoints every resident session (e.g. before shutdown). True only
  /// when all writes succeeded.
  bool CheckpointAll();

  /// Checkpoints `id` and drops its detector from memory.
  bool Evict(const std::string& id);

  /// Forgets the session. With `persist` (and a checkpoint_dir) its final
  /// state is written first; otherwise any previous checkpoint file is
  /// left as-is and the in-memory state is discarded.
  bool CloseSession(const std::string& id, bool persist = true);

  /// Per-session metrics; false when `id` is unknown.
  bool GetMetrics(const std::string& id, SessionMetrics* out) const;

  /// Global metrics over all known sessions.
  ServiceMetrics TotalMetrics() const;

  /// Observability snapshot (DESIGN.md Section 9): checkpoint save/load
  /// duration histograms plus eviction/reload/checkpoint counters and
  /// session-count gauges. Safe from any thread (locks internally); the
  /// serving layer scrapes one snapshot per shard.
  obs::MetricsSnapshot ObsSnapshot() const;

  /// Per-session detection-quality snapshots (DESIGN.md Section 10), one
  /// per known session in id order: alarm tallies per subspace (top
  /// `kQualityTopSubspaces` by alarms), verdict-margin histograms, and —
  /// for resident sessions — live grid occupancy gauges. Empty when
  /// collect_quality is off. Safe from any thread.
  std::vector<obs::SessionQuality> QualitySnapshot() const;

  /// The detector event journal shared by every session of this service,
  /// or nullptr when journal_capacity == 0.
  obs::Journal* journal() const { return journal_.get(); }

  /// Per-subspace rows retained in a QualitySnapshot entry (the map keeps
  /// every alarming subspace; only the snapshot is capped).
  static constexpr std::size_t kQualityTopSubspaces = 64;

  const SpotServiceConfig& config() const { return config_; }

 private:
  /// Per-subspace alarm tally (see obs::SubspaceQuality): `first_points`
  /// is the session's q_points value when the subspace first alarmed, so
  /// the snapshot's alarm-rate denominator is q_points - first_points.
  struct SubspaceTally {
    std::uint64_t first_points = 0;
    std::uint64_t alarms = 0;
  };

  struct Session {
    std::unique_ptr<SpotDetector> detector;  // null while evicted
    SpotStats last_stats;  // captured at eviction / refreshed per batch
    bool on_disk = false;
    std::uint64_t last_used = 0;
    std::uint64_t batches_ingested = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reloads = 0;

    /// Journal binding (set once at create/open when the journal exists;
    /// survives eviction so lifecycle events keep their session tag).
    std::unique_ptr<obs::JournalSink> sink;

    /// Detection-quality accumulation (survives eviction — these describe
    /// the session's served stream, not the resident detector).
    std::uint64_t q_points = 0;
    std::uint64_t q_alarms = 0;
    obs::Histogram rd_margin;
    obs::Histogram irsd_margin;
    std::map<Subspace, SubspaceTally> per_subspace;
    /// Last sampled synapse compaction totals (for per-batch deltas; the
    /// totals can shrink when Untrack removes a grid, so deltas clamp).
    std::uint64_t last_compactions = 0;
    std::uint64_t last_reclaimed = 0;
  };

  /// Shared body of both Ingest overloads (they differ only in the batch
  /// type SpotDetector::ProcessBatch accepts).
  template <typename Batch>
  IngestResult IngestImpl(const std::string& id, const Batch& batch);

  std::string CheckpointPath(const std::string& id) const;
  std::size_t ResidentCountLocked() const;
  /// SaveCheckpointFile / LoadCheckpointFile with the duration recorded
  /// into the checkpoint histograms (call with mu_ held, like everything
  /// else touching obs_).
  bool SaveTimedLocked(const SpotDetector& detector, const std::string& path);
  bool LoadTimedLocked(SpotDetector* detector, const std::string& path);
  /// Evicts LRU resident sessions (sparing `spare`) until one more can be
  /// admitted; false when that is impossible (no checkpoint_dir or a
  /// checkpoint write failed).
  bool MakeRoomLocked(const Session* spare);
  bool EvictLocked(const std::string& id, Session& session);
  /// Returns `id`'s session resident (reloading if needed), else nullptr.
  Session* ResidentLocked(const std::string& id);
  /// Applies the service-wide detector settings: shard count and perf
  /// counter collection.
  void ApplyServiceConfigLocked(SpotDetector* detector);
  /// Creates the session's journal sink (no-op without a journal) and
  /// attaches it to the detector.
  void BindSinkLocked(const std::string& id, Session* session);
  /// Emits a service-lifecycle event (checkpoint save/load, evict,
  /// reload) into the journal under the session's tag; no-op unsinked.
  void JournalLifecycleLocked(Session& session, DetectorEventKind kind,
                              std::uint64_t a, double value = 0.0);
  /// Folds one batch's verdicts into the session's quality tallies and
  /// journals the batch's grid-compaction delta.
  void AccumulateQualityLocked(Session* session,
                               const std::vector<SpotResult>& verdicts);
  /// Merges one batch's counter deltas (bin pass + per-shard probe loops)
  /// into the service running totals and republishes the labeled `perf_*`
  /// families into obs_ (mu_ held).
  void HarvestPerfLocked(const BatchStageRecord& record);

  SpotServiceConfig config_;

  mutable std::mutex mu_;
  /// Ordered map: SessionIds() and LRU scans are deterministic.
  std::map<std::string, Session> sessions_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t reloads_ = 0;
  std::uint64_t checkpoints_written_ = 0;

  /// Service-level instruments; written only with mu_ held (the service
  /// is mutex-serialized anyway, so this adds no locking of its own) and
  /// exported as a copy by ObsSnapshot().
  obs::Registry obs_;
  obs::Histogram* h_ckpt_save_us_ = obs_.GetHistogram("checkpoint_save_us");
  obs::Histogram* h_ckpt_load_us_ = obs_.GetHistogram("checkpoint_load_us");

  /// Engine-tier perf accumulation (collect_perf_counters): detectors
  /// overwrite their stage record every batch; IngestImpl merges its
  /// deltas here (mu_ held) and republishes the labeled families into
  /// obs_. `engine_shard=` (not `shard=`) because the
  /// serving tier already sections service snapshots under shard="i".
  obs::PerfStageTotals perf_bin_total_;
  std::vector<obs::PerfStageTotals> perf_probe_totals_;

  /// Event journal shared by every session (null when disabled). Created
  /// once in the constructor; sinks hand out stable pointers to it.
  std::unique_ptr<obs::Journal> journal_;
};

}  // namespace spot

#endif  // SPOT_SERVICE_SPOT_SERVICE_H_
