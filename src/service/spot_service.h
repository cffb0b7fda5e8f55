#ifndef SPOT_SERVICE_SPOT_SERVICE_H_
#define SPOT_SERVICE_SPOT_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/spot_config.h"
#include "learning/supervised.h"
#include "obs/exposition.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "stream/data_point.h"

namespace spot {

/// Configuration of a SpotService instance. The event journal and the
/// detection-quality sections are always on (see QualitySnapshot).
struct SpotServiceConfig {
  /// Maximum number of detector sessions resident in memory at once. When
  /// admitting one more would exceed this, the least-recently-used idle
  /// resident session is checkpointed to `checkpoint_dir` and dropped;
  /// the next Ingest for it transparently reloads it.
  std::size_t max_resident = 8;

  /// Shard count applied to every session's ProcessBatch (clamped to
  /// [1, SpotConfig::kMaxShards]). It sets the jobs per batch tile, not a
  /// thread count: every session dispatches on the process's one compute
  /// pool (ThreadPool::Shared). Verdicts never depend on this — it is
  /// purely a throughput knob, exactly as for a standalone detector.
  std::size_t num_shards = 1;

  /// Directory for session checkpoints (`<dir>/<id>.ckpt`, written via the
  /// binary full-state format of src/core/checkpoint.h). Must already
  /// exist. When empty, eviction and persistence are disabled: sessions
  /// beyond max_resident are refused instead of evicted.
  std::string checkpoint_dir;
};

/// Point-in-time view of one session (the per-session half of the metrics
/// registry). `stats` is the session detector's SpotStats as of the end
/// of its last call, so the registry stays meaningful for evicted (and
/// mid-call) sessions too.
struct SessionMetrics {
  std::string id;
  bool resident = false;
  bool on_disk = false;
  SpotStats stats;
  std::uint64_t batches_ingested = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reloads = 0;
};

/// The service's lifetime counters plus its two session-count gauges
/// (the global half of the metrics registry). The counters cover every
/// batch this service processed since it started, closed sessions
/// included; a session reopened from a checkpoint adds only what it
/// processes after reopening.
struct ServiceMetrics {
  std::size_t sessions = 0;
  std::size_t resident_sessions = 0;
  std::uint64_t points_processed = 0;
  std::uint64_t outliers_detected = 0;
  std::uint64_t drifts_detected = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reloads = 0;
  std::uint64_t checkpoints_written = 0;
};

/// Result of one Ingest call. `ok` is false when the session is unknown,
/// its reload from disk failed, the service could not admit it, or the
/// batch was refused (see Ingest).
struct IngestResult {
  bool ok = false;
  std::vector<SpotResult> verdicts;
  /// Where the batch's engine time went (see BatchStageRecord); the
  /// serving layer turns its probe entries into `shard_probe` spans.
  BatchStageRecord stages;
};

/// Long-lived detection service multiplexing many independent SPOT
/// sessions (DESIGN.md Section 4); their sharded batches run on the one
/// process pool.
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
/// Thread-safety (DESIGN.md Section 4.1): all public methods are safe to
/// call from multiple threads. One mutex guards the session table, the
/// LRU clock, the counters and every Session field; detector work
/// (Learn, ProcessBatch, ApplyFeedback, QueryTopK) runs with it released
/// while the caller holds the session's *lease*, so calls on different
/// sessions overlap and calls on one session queue in arrival order. The
/// metric readers never wait for a lease and never touch a detector.
/// Checkpoint file I/O (eviction, reload, Checkpoint, CheckpointAll)
/// runs under the mutex.
///
/// Attachment: a session may carry an *owner* token (non-zero), which
/// the serving tier sets to the connection that created or resumed it.
/// The service only records and enforces exclusivity; embedders pass no
/// owner and never see it.
class SpotService {
 public:
  explicit SpotService(SpotServiceConfig config);

  SpotService(const SpotService&) = delete;
  SpotService& operator=(const SpotService&) = delete;

  /// True when `id` is usable as a session name (and hence a checkpoint
  /// file stem): non-empty, at most 128 chars, `[A-Za-z0-9._-]` only, and
  /// not starting with a dot.
  static bool ValidSessionId(const std::string& id);

  /// Creates and learns a new session, attached to `owner` (0 leaves it
  /// unattached). The id is reserved while Learn() runs unlocked, so a
  /// concurrent create of the same id is refused. Fails (false) on an
  /// invalid id, an id that is live or being created (`*taken` set when
  /// given), a failed Learn(), or when no residency slot can be freed.
  /// The training batch is the session's offline learning stage.
  bool CreateSession(const std::string& id, const SpotConfig& config,
                     const std::vector<std::vector<double>>& training,
                     const DomainKnowledge* knowledge = nullptr,
                     std::uint64_t owner = 0, bool* taken = nullptr);

  /// Registers a session persisted by an earlier service instance (e.g.
  /// after a process restart) from `checkpoint_dir/<id>.ckpt`. The
  /// checkpoint embeds the full config, so nothing else is needed. The
  /// session is admitted resident immediately.
  bool OpenSession(const std::string& id);

  /// Attaches `id` to `owner` (non-zero), reopening it from
  /// `checkpoint_dir` when it is not in memory. Succeeds again for the
  /// owner already holding it. False when another owner holds it (that
  /// owner written to `*holder`) or when the session is neither in memory
  /// nor loadable (`*holder` = 0).
  bool AttachSession(const std::string& id, std::uint64_t owner,
                     std::uint64_t* holder = nullptr);

  /// Releases `owner`'s attachment of `id`; the session stays in the
  /// table, unattached. No-op unless `owner` holds it.
  void DetachSession(const std::string& id, std::uint64_t owner);

  bool HasSession(const std::string& id) const;
  bool IsResident(const std::string& id) const;

  /// All known session ids, sorted.
  std::vector<std::string> SessionIds() const;

  /// Routes one batch to `id`'s detector, transparently reloading it from
  /// disk (and LRU-evicting another session) when it is not resident. A
  /// batch with a point of the wrong width or a NaN or infinite
  /// coordinate is refused whole (`ok` false) before the detector sees it.
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

  /// The service's counters as ObsSnapshot reports them (lifetime totals,
  /// see ServiceMetrics) plus the session counts.
  ServiceMetrics TotalMetrics() const;

  /// Observability snapshot (DESIGN.md Section 9): checkpoint save/load
  /// duration histograms, the lifetime counters (points, outliers,
  /// drifts, evictions, reloads, checkpoints written), and, written at
  /// read time, the session-count gauges and the engine's `perf_*`
  /// counters (`stage="bin"`, `stage="probe",engine_shard="k"`; DESIGN.md
  /// Section 12.3). Safe from any thread (locks internally).
  obs::MetricsSnapshot ObsSnapshot() const;

  /// Per-session detection quality (DESIGN.md Section 10.2) as labeled
  /// sections, sessions in id order. A `session="<id>"` section holds the
  /// counters `session_points` (points probed since the session opened
  /// here) and `session_alarms` (points with a finding); the histograms
  /// `rd_margin_x1000` and `irsd_margin_x1000`, each outlier finding's rd
  /// or irsd over its threshold x1000, so mass just under 1000 means
  /// borderline verdicts; the grid gauges `tracked_subspaces`,
  /// `slab_slots` and `slab_free_slots`, sampled when the session's last
  /// call ended, which read 0 while it is evicted; and the counters
  /// `grid_compactions` and `grid_cells_reclaimed`, the sums of the
  /// session's journaled `grid_compaction` events since it opened here,
  /// which survive eviction and never decrease. Then come its top
  /// `kQualityTopSubspaces` alarming subspaces by alarms, then mask, one
  /// `session="<id>",subspace="0x<mask>"` section each: `subspace_alarms`
  /// and `subspace_points`, the alarm rate's denominator (session points
  /// since the subspace first alarmed). Safe from any thread.
  std::vector<obs::LabeledSnapshot> QualitySnapshot() const;

  /// The detector event journal shared by every session of this service.
  const obs::Journal& journal() const { return journal_; }

  /// Per-session subspace sections a QualitySnapshot carries (the tally
  /// map keeps every alarming subspace; only the snapshot is capped).
  static constexpr std::size_t kQualityTopSubspaces = 64;

  /// Capacity of the service's event journal (DESIGN.md Section 10.1).
  static constexpr std::size_t kJournalCapacity = 8192;

  const SpotServiceConfig& config() const { return config_; }

 private:
  /// `first_points` is the session's `points` when the subspace first
  /// alarmed.
  struct SubspaceTally {
    std::uint64_t first_points = 0;
    std::uint64_t alarms = 0;
  };

  struct Session {
    std::unique_ptr<SpotDetector> detector;  // null while evicted
    /// The detector's stats as of the end of its last call (the readers'
    /// only view: they never touch a detector).
    SpotStats last_stats;
    bool on_disk = false;
    /// Leased: one caller runs detector work with mu_ released. A busy
    /// session is never evicted, checkpointed or closed.
    bool busy = false;
    std::uint64_t owner = 0;  // attached connection token; 0 = unattached
    std::uint64_t last_used = 0;
    std::uint64_t batches_ingested = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reloads = 0;

    /// Journal binding (set once at create/open; survives eviction so
    /// lifecycle events keep their session tag).
    std::unique_ptr<obs::JournalSink> sink;

    /// Detection quality (see QualitySnapshot); the tallies and margins
    /// survive eviction.
    std::uint64_t points = 0;
    std::uint64_t alarms = 0;
    obs::Histogram rd_margin;
    obs::Histogram irsd_margin;
    std::map<Subspace, SubspaceTally> per_subspace;
    std::uint64_t tracked_subspaces = 0;
    std::uint64_t slab_slots = 0;
    std::uint64_t free_slots = 0;
    /// Sums of the journaled grid-compaction deltas (sweeps, cells).
    std::uint64_t compactions = 0;
    std::uint64_t cells_reclaimed = 0;
    /// The resident detector's synapse compaction totals as of the last
    /// delta, or of its install (for per-batch deltas; the totals can
    /// shrink when Untrack removes a grid, so deltas clamp).
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
  /// Evicts LRU idle resident sessions until one more can be admitted,
  /// waiting while every candidate is leased; false when that is
  /// impossible (no checkpoint_dir or a checkpoint write failed).
  bool MakeRoomLocked(std::unique_lock<std::mutex>& lock);
  /// Writes a resident, idle session's checkpoint; false without a
  /// checkpoint_dir or when the write fails.
  bool SaveLocked(const std::string& id, Session& session);
  bool EvictLocked(const std::string& id, Session& session);
  /// `id`'s session once no lease holds it (looked up again after every
  /// wait), or nullptr when it is unknown.
  Session* IdleLocked(std::unique_lock<std::mutex>& lock,
                      const std::string& id);
  /// Leases `id`'s session, reloading it when evicted; nullptr when it is
  /// unknown or cannot be made resident. The caller may drop the lock and
  /// use the detector until ReleaseLocked.
  Session* LeaseLocked(std::unique_lock<std::mutex>& lock,
                       const std::string& id);
  /// Ends a lease: stores the detector's stats and quality gauges for
  /// the readers and wakes every waiter.
  void ReleaseLocked(Session* session);
  /// Loads `id` from its checkpoint and admits it attached to `owner`
  /// (reserving the id while room is made). False when the file is
  /// missing or corrupt or no slot can be freed.
  bool OpenLocked(std::unique_lock<std::mutex>& lock, const std::string& id,
                  std::uint64_t owner);
  /// Refreshes last_stats and the quality grid gauges from the resident
  /// detector (zero gauges while evicted).
  void SampleLocked(Session* session);
  /// Makes `detector` the session's resident detector: applies the
  /// service-wide shard count and takes the baseline its compaction
  /// deltas count from.
  void InstallLocked(Session* session, std::unique_ptr<SpotDetector> detector);
  /// Creates the session's journal sink once and attaches it to the
  /// detector.
  void BindSinkLocked(const std::string& id, Session* session);
  /// Emits a service-lifecycle event (checkpoint save/load, evict,
  /// reload) into the journal under the session's tag.
  void JournalLifecycleLocked(Session& session, DetectorEventKind kind,
                              std::uint64_t a, double value = 0.0);
  /// Folds one batch's verdicts into the session's quality tallies and
  /// journals the batch's grid-compaction delta.
  void AccumulateQualityLocked(Session* session,
                               const std::vector<SpotResult>& verdicts);
  /// Merges one batch's stage windows (bin pass + per-shard probe loops)
  /// into the service's running perf totals (mu_ held).
  void HarvestPerfLocked(const BatchStageRecord& record);

  SpotServiceConfig config_;

  mutable std::mutex mu_;
  /// Signalled whenever a lease ends or a session leaves the table.
  std::condition_variable idle_;
  /// Ordered map: SessionIds() and LRU scans are deterministic. Nodes are
  /// stable, so a leased Session stays valid while the lock is dropped.
  std::map<std::string, Session> sessions_;
  /// Ids reserved by a create or open in flight, with the owner they will
  /// be attached to.
  std::map<std::string, std::uint64_t> reserved_;
  std::uint64_t use_clock_ = 0;

  /// Service-level instruments, the only record of the service's
  /// counters; written only with mu_ held and exported as a copy by
  /// ObsSnapshot().
  obs::Registry obs_;
  obs::Histogram* h_ckpt_save_us_ = obs_.GetHistogram("checkpoint_save_us");
  obs::Histogram* h_ckpt_load_us_ = obs_.GetHistogram("checkpoint_load_us");
  obs::Counter* c_evicted_ = obs_.GetCounter("evictions");
  obs::Counter* c_reloaded_ = obs_.GetCounter("reloads");
  obs::Counter* c_ckpt_written_ = obs_.GetCounter("checkpoints_written");
  /// The detectors' SpotStats deltas across every ProcessBatch.
  obs::Counter* c_points_ = obs_.GetCounter("points_processed");
  obs::Counter* c_outliers_ = obs_.GetCounter("outliers_detected");
  obs::Counter* c_drifts_ = obs_.GetCounter("drifts_detected");

  /// Engine-tier perf totals, their counters' one record: detectors
  /// overwrite their stage record every batch, IngestImpl merges its
  /// deltas here (mu_ held), and ObsSnapshot writes them as the labeled
  /// `perf_*` families (DESIGN.md Section 12.3).
  obs::PerfStageTotals perf_bin_total_;
  std::vector<obs::PerfStageTotals> perf_probe_totals_;

  /// Event journal shared by every session; sinks hold pointers to it.
  obs::Journal journal_{kJournalCapacity};
};

}  // namespace spot

#endif  // SPOT_SERVICE_SPOT_SERVICE_H_
