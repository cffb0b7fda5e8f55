#include "service/spot_service.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

#include "common/log.h"
#include "common/math_util.h"
#include "core/checkpoint.h"
#include "grid/synapse_manager.h"
#include "obs/stage.h"

namespace spot {

SpotService::SpotService(SpotServiceConfig config)
    : config_(std::move(config)) {
  if (config_.max_resident == 0) config_.max_resident = 1;
}

bool SpotService::ValidSessionId(const std::string& id) {
  if (id.empty() || id.size() > 128 || id.front() == '.') return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string SpotService::CheckpointPath(const std::string& id) const {
  return config_.checkpoint_dir + "/" + id + ".ckpt";
}

std::size_t SpotService::ResidentCountLocked() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.detector != nullptr) ++n;
  }
  return n;
}

bool SpotService::SaveTimedLocked(const SpotDetector& detector,
                                  const std::string& path) {
  obs::Stage timer(h_ckpt_save_us_);
  return SaveCheckpointFile(detector, path);
}

bool SpotService::LoadTimedLocked(SpotDetector* detector,
                                  const std::string& path) {
  obs::Stage timer(h_ckpt_load_us_);
  return LoadCheckpointFile(detector, path);
}

void SpotService::InstallLocked(Session* session,
                                std::unique_ptr<SpotDetector> detector) {
  detector->set_num_shards(config_.num_shards);
  // The grids' compaction counters are not checkpointed, so a reloaded
  // detector restarts them at 0: deltas count from what this one holds.
  session->last_compactions = detector->synapses().TotalCompactions();
  session->last_reclaimed = detector->synapses().TotalCellsReclaimed();
  session->detector = std::move(detector);
}

void SpotService::BindSinkLocked(const std::string& id, Session* session) {
  if (session->sink == nullptr) {
    session->sink = std::make_unique<obs::JournalSink>(
        &journal_, journal_.InternSession(id));
  }
  if (session->detector != nullptr) {
    session->detector->set_event_sink(session->sink.get());
  }
}

void SpotService::JournalLifecycleLocked(Session& session,
                                         DetectorEventKind kind,
                                         std::uint64_t a, double value) {
  DetectorEvent event;
  event.kind = kind;
  event.tick = session.last_stats.points_processed;
  event.a = a;
  event.value = value;
  session.sink->OnDetectorEvent(event);
}

void SpotService::SampleLocked(Session* session) {
  const SpotDetector* detector = session->detector.get();
  if (detector == nullptr) {
    session->tracked_subspaces = session->slab_slots = 0;
    session->free_slots = 0;
    return;
  }
  session->last_stats = detector->stats();
  const SynapseManager& synapses = detector->synapses();
  session->tracked_subspaces = detector->TrackedSubspaces();
  session->slab_slots = synapses.TotalSlabSlots();
  session->free_slots = synapses.TotalFreeSlots();
}

bool SpotService::SaveLocked(const std::string& id, Session& session) {
  if (config_.checkpoint_dir.empty() ||
      !SaveTimedLocked(*session.detector, CheckpointPath(id))) {
    return false;
  }
  c_ckpt_written_->Inc();
  session.on_disk = true;
  JournalLifecycleLocked(session, DetectorEventKind::kCheckpointSave, 0);
  return true;
}

bool SpotService::EvictLocked(const std::string& id, Session& session) {
  if (session.detector == nullptr) return true;
  if (!SaveLocked(id, session)) {
    if (!config_.checkpoint_dir.empty()) {
      SPOT_LOG(Error) << "eviction checkpoint for session '" << id
                      << "' failed; keeping it resident";
    }
    return false;
  }
  session.detector.reset();
  SampleLocked(&session);
  ++session.evictions;
  c_evicted_->Inc();
  JournalLifecycleLocked(session, DetectorEventKind::kSessionEvict,
                         session.evictions);
  return true;
}

bool SpotService::MakeRoomLocked(std::unique_lock<std::mutex>& lock) {
  while (ResidentCountLocked() >= config_.max_resident) {
    if (config_.checkpoint_dir.empty()) return false;
    // LRU scan over idle resident sessions (the use clock is strictly
    // increasing, so there are no ties). A leased session is never a
    // victim — that includes the one being admitted.
    std::string victim_id;
    Session* victim = nullptr;
    bool leased = false;
    for (auto& [id, session] : sessions_) {
      if (session.detector == nullptr) continue;
      if (session.busy) {
        leased = true;
        continue;
      }
      if (victim == nullptr || session.last_used < victim->last_used) {
        victim = &session;
        victim_id = id;
      }
    }
    if (victim == nullptr) {
      if (!leased) return false;
      idle_.wait(lock);  // every candidate is mid-call: wait for one
      continue;
    }
    if (!EvictLocked(victim_id, *victim)) return false;
  }
  return true;
}

SpotService::Session* SpotService::IdleLocked(
    std::unique_lock<std::mutex>& lock, const std::string& id) {
  while (true) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return nullptr;
    if (!it->second.busy) return &it->second;
    idle_.wait(lock);
  }
}

SpotService::Session* SpotService::LeaseLocked(
    std::unique_lock<std::mutex>& lock, const std::string& id) {
  Session* session = IdleLocked(lock, id);
  if (session == nullptr) return nullptr;
  // Claim before reloading: MakeRoomLocked may wait, and a second call
  // for this session must queue behind this one, not reload it again.
  session->busy = true;
  if (session->detector == nullptr) {
    // Load before evicting anyone (see OpenSession): a corrupt checkpoint
    // must not cost a resident session its slot.
    auto detector = std::make_unique<SpotDetector>(SpotConfig{});
    if (!session->on_disk ||
        !LoadTimedLocked(detector.get(), CheckpointPath(id))) {
      SPOT_LOG(Error) << "reload of session '" << id << "' from "
                      << CheckpointPath(id) << " failed";
      ReleaseLocked(session);
      return nullptr;
    }
    if (!MakeRoomLocked(lock)) {
      ReleaseLocked(session);
      return nullptr;
    }
    InstallLocked(session, std::move(detector));
    BindSinkLocked(id, session);
    ++session->reloads;
    c_reloaded_->Inc();
    JournalLifecycleLocked(*session, DetectorEventKind::kCheckpointLoad, 0);
    JournalLifecycleLocked(*session, DetectorEventKind::kSessionReload,
                           session->reloads);
  }
  session->last_used = ++use_clock_;
  return session;
}

void SpotService::ReleaseLocked(Session* session) {
  SampleLocked(session);
  session->busy = false;
  idle_.notify_all();
}

bool SpotService::CreateSession(
    const std::string& id, const SpotConfig& config,
    const std::vector<std::vector<double>>& training,
    const DomainKnowledge* knowledge, std::uint64_t owner, bool* taken) {
  if (taken != nullptr) *taken = false;
  if (!ValidSessionId(id)) {
    SPOT_LOG(Error) << "invalid session id '" << id << "'";
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (sessions_.count(id) > 0 || !reserved_.emplace(id, owner).second) {
    SPOT_LOG(Error) << "session '" << id << "' already exists";
    if (taken != nullptr) *taken = true;
    return false;
  }
  lock.unlock();
  // Learn unlocked, BEFORE evicting anyone: a failed admission must not
  // knock a hot session out of memory. (Residency transiently exceeds
  // max_resident by the one detector being built, which is the admission
  // itself.) Sink before Learn so the initial Track() sweep journals the
  // session's starting SST.
  auto detector = std::make_unique<SpotDetector>(config);
  auto sink = std::make_unique<obs::JournalSink>(
      &journal_, journal_.InternSession(id));
  detector->set_event_sink(sink.get());
  const bool learned = detector->Learn(training, knowledge);
  lock.lock();
  const bool admitted = learned && MakeRoomLocked(lock);
  reserved_.erase(id);
  if (!admitted) {
    if (learned) {
      SPOT_LOG(Error) << "no residency slot for new session '" << id
                      << "' (max_resident=" << config_.max_resident
                      << ", eviction "
                      << (config_.checkpoint_dir.empty() ? "disabled"
                                                         : "failed")
                      << ")";
    }
    return false;
  }
  Session& session = sessions_[id];
  InstallLocked(&session, std::move(detector));
  session.sink = std::move(sink);
  session.owner = owner;
  session.last_used = ++use_clock_;
  SampleLocked(&session);
  return true;
}

bool SpotService::OpenLocked(std::unique_lock<std::mutex>& lock,
                             const std::string& id, std::uint64_t owner) {
  if (!ValidSessionId(id) || config_.checkpoint_dir.empty()) return false;
  // Load before evicting anyone: a missing/corrupt checkpoint must not
  // cost a resident session its slot.
  auto detector = std::make_unique<SpotDetector>(SpotConfig{});
  if (!LoadTimedLocked(detector.get(), CheckpointPath(id))) {
    SPOT_LOG(Error) << "cannot open session '" << id << "' from "
                    << CheckpointPath(id);
    return false;
  }
  // Reserved while MakeRoomLocked may wait, so nobody creates or opens
  // the id meanwhile.
  reserved_.emplace(id, owner);
  const bool admitted = MakeRoomLocked(lock);
  reserved_.erase(id);
  if (!admitted) return false;
  Session& session = sessions_[id];
  InstallLocked(&session, std::move(detector));
  session.on_disk = true;
  session.owner = owner;
  session.last_used = ++use_clock_;
  SampleLocked(&session);
  BindSinkLocked(id, &session);
  JournalLifecycleLocked(session, DetectorEventKind::kCheckpointLoad, 0);
  return true;
}

bool SpotService::OpenSession(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (sessions_.count(id) > 0 || reserved_.count(id) > 0) return false;
  return OpenLocked(lock, id, /*owner=*/0);
}

bool SpotService::AttachSession(const std::string& id, std::uint64_t owner,
                                std::uint64_t* holder) {
  std::uint64_t unused = 0;
  if (holder == nullptr) holder = &unused;
  *holder = 0;
  std::unique_lock<std::mutex> lock(mu_);
  auto reserved = reserved_.find(id);
  if (reserved != reserved_.end()) {
    *holder = reserved->second;
    return false;
  }
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return OpenLocked(lock, id, owner);
  Session& session = it->second;
  if (session.owner != 0 && session.owner != owner) {
    *holder = session.owner;
    return false;
  }
  session.owner = owner;
  return true;
}

void SpotService::DetachSession(const std::string& id, std::uint64_t owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it != sessions_.end() && it->second.owner == owner) {
    it->second.owner = 0;
  }
}

bool SpotService::HasSession(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.find(id) != sessions_.end();
}

bool SpotService::IsResident(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it != sessions_.end() && it->second.detector != nullptr;
}

namespace {

const std::vector<double>& Values(const DataPoint& p) { return p.values; }
const std::vector<double>& Values(const std::vector<double>& v) { return v; }

}  // namespace

template <typename Batch>
IngestResult SpotService::IngestImpl(const std::string& id,
                                     const Batch& batch) {
  IngestResult result;
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = LeaseLocked(lock, id);
  if (session == nullptr) return result;
  SpotDetector& detector = *session->detector;
  // Width and finiteness guard (possible when the batch crossed a process
  // boundary, e.g. the network ingest layer): a point of the wrong
  // dimensionality would index out of the session's partition, and a NaN
  // or infinite coordinate would stay in its cells' sums for as long as
  // they live — refuse the batch whole, before the detector sees any of it.
  const std::size_t dims = static_cast<std::size_t>(detector.dimension());
  for (const auto& point : batch) {
    const std::vector<double>& values = Values(point);
    if (values.size() != dims || !AllFinite(values)) {
      SPOT_LOG(Error) << "Ingest('" << id << "'): point of width "
                      << values.size() << " (session dimensionality " << dims
                      << ") or with a non-finite coordinate";
      ReleaseLocked(session);
      return result;
    }
  }
  lock.unlock();
  const SpotStats before = detector.stats();
  result.verdicts = detector.ProcessBatch(batch);
  result.ok = true;
  result.stages = detector.stage_record();
  const SpotStats& after = detector.stats();
  lock.lock();
  c_points_->Inc(after.points_processed - before.points_processed);
  c_outliers_->Inc(after.outliers_detected - before.outliers_detected);
  c_drifts_->Inc(after.drifts_detected - before.drifts_detected);
  HarvestPerfLocked(result.stages);
  ++session->batches_ingested;
  AccumulateQualityLocked(session, result.verdicts);
  ReleaseLocked(session);
  return result;
}

void SpotService::AccumulateQualityLocked(
    Session* session, const std::vector<SpotResult>& verdicts) {
  const SpotDetector& detector = *session->detector;
  const double rd_t = detector.config().rd_threshold;
  const double irsd_t = detector.config().irsd_threshold;
  for (const SpotResult& v : verdicts) {
    ++session->points;
    if (!v.is_outlier) continue;
    ++session->alarms;
    for (const SubspaceFinding& f : v.findings) {
      auto [it, inserted] = session->per_subspace.try_emplace(f.subspace);
      if (inserted) it->second.first_points = session->points - 1;
      ++it->second.alarms;
      // Ratio-to-threshold x1000 (shared ratio-metric convention): mass
      // just under 1000 = borderline verdicts.
      if (rd_t > 0.0) session->rd_margin.Record(f.pcs.rd / rd_t * 1000.0);
      if (irsd_t > 0.0) {
        session->irsd_margin.Record(f.pcs.irsd / irsd_t * 1000.0);
      }
    }
  }
  // Journal this batch's grid-compaction delta, and add it to the
  // session's totals, which survive eviction. The synapse totals can
  // shrink when Untrack drops a grid's contribution, so only a growth is
  // an event; either way resample so the next delta starts clean.
  const std::uint64_t comp = detector.synapses().TotalCompactions();
  const std::uint64_t rec = detector.synapses().TotalCellsReclaimed();
  if (comp > session->last_compactions) {
    const std::uint64_t reclaimed =
        rec >= session->last_reclaimed ? rec - session->last_reclaimed : 0;
    DetectorEvent event;
    event.kind = DetectorEventKind::kGridCompaction;
    event.tick = detector.stats().points_processed;
    event.a = comp - session->last_compactions;
    event.value = static_cast<double>(reclaimed);
    session->sink->OnDetectorEvent(event);
    session->compactions += event.a;
    session->cells_reclaimed += reclaimed;
  }
  session->last_compactions = comp;
  session->last_reclaimed = rec;
}

void SpotService::HarvestPerfLocked(const BatchStageRecord& record) {
  // The detector overwrites its record every batch, so each harvest folds
  // exactly one batch's deltas: one bin total plus one probe total per
  // engine shard (a single engine_shard="0" family at num_shards == 1).
  perf_bin_total_.Merge(record.bin.perf);
  if (perf_probe_totals_.size() < record.probes.size()) {
    perf_probe_totals_.resize(record.probes.size());
  }
  for (std::size_t k = 0; k < record.probes.size(); ++k) {
    perf_probe_totals_[k].Merge(record.probes[k].perf);
  }
}

IngestResult SpotService::Ingest(const std::string& id,
                                 const std::vector<DataPoint>& batch) {
  return IngestImpl(id, batch);
}

IngestResult SpotService::Ingest(
    const std::string& id, const std::vector<std::vector<double>>& batch) {
  return IngestImpl(id, batch);
}

bool SpotService::ApplyFeedback(
    const std::string& id, const std::vector<std::uint64_t>& point_ids,
    const std::vector<std::vector<double>>& examples, std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = LeaseLocked(lock, id);
  if (session == nullptr) {
    if (error != nullptr) {
      *error = "unknown session '" + id + "' (or reload failed)";
    }
    return false;
  }
  lock.unlock();
  const bool ok = session->detector->ApplyFeedback(point_ids, examples, error);
  lock.lock();
  ReleaseLocked(session);
  return ok;
}

bool SpotService::QueryTopK(const std::string& id, std::size_t k,
                            std::vector<TopKEntry>* out, std::string* error) {
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = LeaseLocked(lock, id);
  if (session == nullptr) {
    if (error != nullptr) {
      *error = "unknown session '" + id + "' (or reload failed)";
    }
    return false;
  }
  lock.unlock();
  *out = session->detector->QueryTopK(k);
  lock.lock();
  ReleaseLocked(session);
  return true;
}

bool SpotService::Checkpoint(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = IdleLocked(lock, id);
  if (session == nullptr) return false;
  if (session->detector == nullptr) return session->on_disk;
  return SaveLocked(id, *session);
}

bool SpotService::CheckpointAll() {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  bool all_ok = true;
  for (const std::string& id : ids) {
    Session* session = IdleLocked(lock, id);
    if (session == nullptr || session->detector == nullptr) continue;
    all_ok &= SaveLocked(id, *session);
  }
  return all_ok;
}

bool SpotService::Evict(const std::string& id) {
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = IdleLocked(lock, id);
  return session != nullptr && EvictLocked(id, *session);
}

bool SpotService::CloseSession(const std::string& id, bool persist) {
  std::unique_lock<std::mutex> lock(mu_);
  Session* session = IdleLocked(lock, id);
  if (session == nullptr) return false;
  if (persist && session->detector != nullptr &&
      !config_.checkpoint_dir.empty() && !SaveLocked(id, *session)) {
    return false;
  }
  sessions_.erase(id);
  idle_.notify_all();  // a waiter in MakeRoomLocked may now fit
  return true;
}

bool SpotService::GetMetrics(const std::string& id,
                             SessionMetrics* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  const Session& session = it->second;
  out->id = id;
  out->resident = session.detector != nullptr;
  out->on_disk = session.on_disk;
  out->stats = session.last_stats;
  out->batches_ingested = session.batches_ingested;
  out->evictions = session.evictions;
  out->reloads = session.reloads;
  return true;
}

ServiceMetrics SpotService::TotalMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceMetrics total;
  total.sessions = sessions_.size();
  total.resident_sessions = ResidentCountLocked();
  total.points_processed = c_points_->value();
  total.outliers_detected = c_outliers_->value();
  total.drifts_detected = c_drifts_->value();
  total.evictions = c_evicted_->value();
  total.reloads = c_reloaded_->value();
  total.checkpoints_written = c_ckpt_written_->value();
  return total;
}

std::vector<obs::LabeledSnapshot> SpotService::QualitySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<obs::LabeledSnapshot> out;
  for (const auto& [id, session] : sessions_) {
    const std::string label = "session=\"" + id + "\"";
    obs::MetricsSnapshot s;
    s.counters["session_points"] = session.points;
    s.counters["session_alarms"] = session.alarms;
    s.counters["grid_compactions"] = session.compactions;
    s.counters["grid_cells_reclaimed"] = session.cells_reclaimed;
    s.gauges["tracked_subspaces"] =
        static_cast<double>(session.tracked_subspaces);
    s.gauges["slab_slots"] = static_cast<double>(session.slab_slots);
    s.gauges["slab_free_slots"] = static_cast<double>(session.free_slots);
    s.histograms["rd_margin_x1000"] = session.rd_margin;
    s.histograms["irsd_margin_x1000"] = session.irsd_margin;
    out.emplace_back(label, std::move(s));
    // (~alarms, mask) ascending ranks by alarms, ties on the mask, so the
    // snapshot is deterministic.
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> top;
    for (const auto& [subspace, tally] : session.per_subspace) {
      top.emplace_back(~tally.alarms, subspace.bits(),
                       session.points - tally.first_points);
    }
    std::sort(top.begin(), top.end());
    top.resize(std::min(top.size(), kQualityTopSubspaces));
    for (const auto& [not_alarms, mask, points] : top) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(mask));
      obs::MetricsSnapshot sub;
      sub.counters["subspace_points"] = points;
      sub.counters["subspace_alarms"] = ~not_alarms;
      out.emplace_back(label + ",subspace=\"" + hex + "\"", std::move(sub));
    }
  }
  return out;
}

obs::MetricsSnapshot SpotService::ObsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricsSnapshot snap = obs_.Snapshot();
  snap.gauges["sessions"] = static_cast<double>(sessions_.size());
  snap.gauges["resident_sessions"] =
      static_cast<double>(ResidentCountLocked());
  obs::WritePerfTotals(&snap, "stage=\"bin\"", perf_bin_total_);
  for (std::size_t k = 0; k < perf_probe_totals_.size(); ++k) {
    obs::WritePerfTotals(
        &snap, "stage=\"probe\",engine_shard=\"" + std::to_string(k) + "\"",
        perf_probe_totals_[k]);
  }
  return snap;
}

}  // namespace spot
