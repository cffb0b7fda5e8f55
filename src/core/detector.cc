#include "core/detector.h"

#include <algorithm>

#include "common/log.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "engine/thread_pool.h"
#include "learning/self_evolution.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "subspace/lattice.h"

namespace spot {

DecayModel SpotDetector::Decay(const SpotConfig& config) {
  return config.use_decay ? DecayModel(config.omega, config.epsilon)
                          : DecayModel::None();
}

SpotDetector::SpotDetector(const SpotConfig& config)
    : config_(config),
      rng_(config.seed),
      sst_(config.cs_capacity, config.os_capacity),
      reservoir_(config.reservoir_capacity, config.seed ^ 0xABCDEF),
      topk_(config.topk_capacity, Decay(config)),
      drift_(config.drift_delta, config.drift_lambda) {}

bool SpotDetector::Learn(const std::vector<std::vector<double>>& training_data,
                         const DomainKnowledge* knowledge) {
  const std::string problem = config_.Validate();
  if (!problem.empty()) {
    SPOT_LOG(Error) << "invalid SpotConfig: " << problem;
    return false;
  }
  if (training_data.empty()) {
    SPOT_LOG(Error) << "Learn() requires a non-empty training batch";
    return false;
  }
  const std::size_t width = training_data.front().size();
  for (const auto& row : training_data) {
    if (row.size() != width) {
      SPOT_LOG(Error) << "Learn() refuses a training row of " << row.size()
                      << " attributes; the first row has " << width;
      return false;
    }
    if (!AllFinite(row)) {
      SPOT_LOG(Error) << "Learn() refuses a training row with a NaN or "
                         "infinite attribute";
      return false;
    }
  }
  if (knowledge != nullptr) {
    for (const auto& example : knowledge->outlier_examples) {
      if (example.size() != width) {
        SPOT_LOG(Error) << "Learn() refuses an outlier example of "
                        << example.size() << " attributes; the training "
                        << "rows have " << width;
        return false;
      }
    }
    for (const int attribute : knowledge->relevant_attributes) {
      if (attribute < 0 || static_cast<std::size_t>(attribute) >= width) {
        SPOT_LOG(Error) << "Learn() refuses relevant attribute " << attribute
                        << "; the training rows have " << width;
        return false;
      }
    }
  }

  const int num_dims = static_cast<int>(width);
  if (num_dims > Subspace::kMaxDimensions) {
    SPOT_LOG(Error) << "dimensionality " << num_dims << " exceeds "
                    << Subspace::kMaxDimensions;
    return false;
  }
  // fs_cap 0 enumerates the whole lattice, whose size follows the stream
  // width: refuse one too large to hold before anything is built.
  const int max_dim = std::min(config_.fs_max_dimension, num_dims);
  const std::uint64_t lattice = LatticeSize(num_dims, max_dim);
  if (config_.fs_cap == 0 && lattice > SpotConfig::kMaxSubspaces) {
    SPOT_LOG(Error) << "FS lattice has " << lattice
                    << " subspaces; with fs_cap 0 at most "
                    << SpotConfig::kMaxSubspaces << " are tracked";
    return false;
  }

  // The synapses own the one partition; the learners below read it there.
  synapses_ = std::make_unique<SynapseManager>(
      config_.domain_lo < config_.domain_hi
          ? Partition(num_dims, config_.cells_per_dim, config_.domain_lo,
                      config_.domain_hi)
          : Partition::FitToData(training_data, config_.cells_per_dim,
                                 config_.partition_margin),
      Decay(config_), config_.prune_threshold, config_.compaction_period);
  const Partition& partition = synapses_->partition();

  // --- FS: the lattice up to MaxDimension, capped by uniform sampling. ---
  std::vector<Subspace> fs;
  if (max_dim > 0) {
    if (config_.fs_cap != 0 && lattice > config_.fs_cap) {
      SPOT_LOG(Warning) << "FS lattice has " << lattice
                        << " subspaces; sampling " << config_.fs_cap;
      fs = SampleLattice(num_dims, max_dim, config_.fs_cap, rng_);
    } else {
      fs = EnumerateLattice(num_dims, max_dim);
    }
  }
  sst_.SetFixed(std::move(fs));

  // --- CS: unsupervised learning (MOGA + lead clustering + MOGA). ---
  UnsupervisedConfig ucfg = config_.unsupervised;
  ucfg.moga.num_dims = num_dims;
  ucfg.moga.max_dimension = std::min(ucfg.moga.max_dimension, num_dims);
  if (ucfg.top_subspaces_per_run > 0) {
    // Candidates already present in FS are deduplicated away by
    // AddClustering; over-request so CS still receives novel subspaces.
    ucfg.top_subspaces_per_run +=
        std::min<std::size_t>(sst_.fixed().size(), 64);
  }
  // The seed is drawn even when CS takes nothing, so the SST and every
  // later draw do not depend on whether the searches ran.
  const std::uint64_t cs_seed = rng_.NextUint64();
  if (config_.unsupervised.top_subspaces_per_run > 0) {
    std::size_t cs_added = 0;
    for (const auto& ss :
         LearnClusteringSubspaces(training_data, partition, ucfg, cs_seed)) {
      if (cs_added >= config_.unsupervised.top_subspaces_per_run) break;
      const std::size_t before = sst_.clustering().size();
      sst_.AddClustering(ss.subspace, ss.score);
      if (sst_.clustering().size() > before) ++cs_added;
    }
  }

  // --- OS: supervised learning from expert examples, when provided. ---
  if (knowledge != nullptr && !knowledge->outlier_examples.empty()) {
    SupervisedConfig scfg = config_.supervised;
    scfg.moga.num_dims = num_dims;
    scfg.moga.max_dimension = std::min(scfg.moga.max_dimension, num_dims);
    for (const auto& ss : LearnOutlierDrivenSubspaces(
             training_data, partition, *knowledge, scfg, rng_.NextUint64())) {
      sst_.AddOutlierDriven(ss.subspace, ss.score);
    }
  }

  // --- Synapses: track the SST and warm-start from the training batch. ---
  // The sink survives a re-Learn: re-apply it before SyncTrackedSubspaces
  // so the initial Track() calls journal the starting SST.
  synapses_->set_event_sink(event_sink_);
  // Fresh detection state: a re-Learn starts the stream over, so no stats,
  // OS-growth cadence or accumulated drift signal may carry across.
  stats_ = SpotStats{};
  outliers_since_os_update_ = 0;
  topk_ = TopKOutliers(config_.topk_capacity, Decay(config_));
  drift_ = PageHinkley(config_.drift_delta, config_.drift_lambda);
  SyncTrackedSubspaces();
  tick_ = 0;
  reservoir_replacements_ = 0;
  for (const auto& row : training_data) {
    synapses_->Add(row, tick_++);
    reservoir_.Add(row);
  }
  return true;
}

void SpotDetector::set_event_sink(DetectorEventSink* sink) {
  event_sink_ = sink;
  sst_.set_event_sink(sink);
  if (synapses_ != nullptr) synapses_->set_event_sink(sink);
}

void SpotDetector::Emit(DetectorEventKind kind, std::uint64_t a,
                        double value) {
  if (event_sink_ == nullptr) return;
  DetectorEvent event;
  event.kind = kind;
  event.tick = tick_;
  event.a = a;
  event.value = value;
  event_sink_->OnDetectorEvent(event);
}

void SpotDetector::AddToReservoir(const std::vector<double>& values) {
  const bool warm = reservoir_.size() == reservoir_.capacity();
  if (!reservoir_.Add(values) || !warm) return;
  ++reservoir_replacements_;
  if (event_sink_ != nullptr && reservoir_.capacity() != 0 &&
      reservoir_replacements_ % reservoir_.capacity() == 0) {
    // One full turnover: on average every slot has been replaced since the
    // last refresh event, i.e. the drift/relearn sample has rolled over.
    Emit(DetectorEventKind::kReservoirRefresh,
         reservoir_replacements_ / reservoir_.capacity());
  }
}

void SpotDetector::SyncTrackedSubspaces() {
  const std::vector<Subspace> wanted = sst_.AllSubspaces();
  // Track additions.
  for (const auto& s : wanted) synapses_->Track(s);
  // Untrack removals (subspaces evicted from CS/OS).
  for (const auto& s : synapses_->TrackedSubspaces()) {
    if (!sst_.Contains(s)) synapses_->Untrack(s);
  }
}

SpotResult SpotDetector::Process(const DataPoint& point) {
  if (!learned()) {
    SPOT_LOG(Error) << "Process() called before a successful Learn()";
    return SpotResult{};
  }
  return std::move(Detect(std::vector<DataPoint>(1, point)).front());
}

std::vector<SpotResult> SpotDetector::Detect(
    const std::vector<DataPoint>& points) {
  Timer timer;
  const std::size_t shards = std::max<std::size_t>(config_.num_shards, 1);
  ThreadPool* pool = shards > 1 ? &ThreadPool::Shared() : nullptr;
  // The stage record (DESIGN.md Section 12.3): per-batch overwrite,
  // accumulated over the batch's tiles — the service harvests it right
  // after ProcessBatch returns. Pure measurement on the side: the measured
  // code is untouched, so verdicts stay bit-identical whatever it records.
  stage_record_.bin = StageEntry{};
  stage_record_.probes.assign(shards, StageEntry{});
  std::vector<SpotResult> results;
  results.reserve(points.size());
  const std::size_t tile = kTilePointsPerShard * shards;
  for (std::size_t begin = 0; begin < points.size(); begin += tile) {
    ProcessTile(points.data() + begin, std::min(tile, points.size() - begin),
                shards, pool, &results);
  }
  stats_.detection_seconds += timer.ElapsedSeconds();
  return results;
}

std::vector<SpotResult> SpotDetector::ProcessBatch(
    const std::vector<DataPoint>& points) {
  if (!learned()) {
    SPOT_LOG(Error) << "ProcessBatch() called before a successful Learn()";
    return std::vector<SpotResult>(points.size());
  }
  std::vector<SpotResult> results = Detect(points);
  ++stats_.batches_processed;
  return results;
}

std::vector<SpotResult> SpotDetector::ProcessBatch(
    const std::vector<std::vector<double>>& batch) {
  std::vector<DataPoint> points(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    points[i].id = tick_ + i;
    points[i].values = batch[i];
  }
  return ProcessBatch(points);
}

void SpotDetector::ApplyPointSideEffects(std::uint64_t point_id,
                                         std::uint64_t tick,
                                         const std::vector<double>& values,
                                         const SpotResult& result) {
  ++stats_.points_processed;
  if (result.is_outlier) {
    ++stats_.outliers_detected;
    // Retain for top-k queries and feedback-by-id before any growth runs:
    // retention is a pure function of the verdict, not of what OS growth
    // does with it.
    if (topk_.capacity() != 0) {
      TopKEntry entry;
      entry.point_id = point_id;
      entry.tick = tick;
      entry.score = result.score;
      entry.values = values;
      entry.findings = result.findings;
      topk_.Offer(std::move(entry));
    }
    // 3. OS growth: the detected outlier's top sparse subspaces join OS.
    if (config_.os_update_every != 0 &&
        ++outliers_since_os_update_ >= config_.os_update_every) {
      outliers_since_os_update_ = 0;
      GrowOutlierDriven(values);
    }
  }

  // 4. Periodic CS self-evolution.
  if (config_.evolution_period != 0 &&
      stats_.points_processed % config_.evolution_period == 0) {
    RunSelfEvolution();
  }

  // 5. Concept-drift watch on the outlier-rate signal.
  if (config_.drift_detection &&
      drift_.Add(result.is_outlier ? 1.0 : 0.0)) {
    ++stats_.drifts_detected;
    Emit(DetectorEventKind::kDriftDetected, stats_.drifts_detected);
    if (config_.relearn_on_drift) RelearnAfterDrift();
  }
}

SpotResult SpotDetector::Process(const std::vector<double>& values) {
  DataPoint p;
  p.id = tick_;
  p.values = values;
  return Process(p);
}

void SpotDetector::GrowOutlierDriven(const std::vector<double>& values) {
  const std::vector<std::vector<double>>& sample = reservoir_.Items();
  if (sample.size() < 8) return;
  ++stats_.os_growth_runs;
  Emit(DetectorEventKind::kOsGrowthRun, stats_.os_growth_runs);

  // Mini-MOGA targeted at this outlier against the recent sample.
  const Partition& partition = synapses_->partition();
  BatchSparsityObjectives obj(&partition, &sample, &values);
  Nsga2Config cfg = config_.supervised.moga;
  cfg.num_dims = partition.num_dims();
  cfg.max_dimension = std::min(cfg.max_dimension, cfg.num_dims);
  // A light budget: OS growth runs inside the detection loop.
  cfg.population_size = std::min(cfg.population_size, 24);
  cfg.generations = std::min(cfg.generations, 10);
  cfg.seed = rng_.NextUint64();
  for (const auto& ss : FindTopSparse(
           &obj, cfg, config_.supervised.top_subspaces_per_example)) {
    sst_.AddOutlierDriven(ss.subspace, ss.score);
  }
  SyncTrackedSubspaces();
}

bool SpotDetector::ApplyFeedback(
    const std::vector<std::uint64_t>& point_ids,
    const std::vector<std::vector<double>>& examples, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  // Every failure path returns before the RNG draw below, so a refused
  // round leaves the verdict stream untouched — and both the wire and the
  // in-process reference refuse for the same reason at the same position.
  if (!learned()) return fail("feedback before a successful Learn()");
  if (point_ids.empty() && examples.empty()) {
    return fail("feedback carries no labels");
  }
  if (point_ids.size() + examples.size() > SpotConfig::kMaxFeedbackLabels) {
    return fail("feedback carries more than " +
                std::to_string(SpotConfig::kMaxFeedbackLabels) + " labels");
  }
  const Partition& partition = synapses_->partition();
  const std::size_t dims = static_cast<std::size_t>(partition.num_dims());
  DomainKnowledge knowledge;
  knowledge.outlier_examples.reserve(point_ids.size() + examples.size());
  for (std::uint64_t id : point_ids) {
    const std::vector<double>* values = topk_.Values(id);
    if (values == nullptr) {
      return fail("point id " + std::to_string(id) +
                  " is not retained in the top-k window");
    }
    knowledge.outlier_examples.push_back(*values);
  }
  for (const auto& example : examples) {
    if (example.size() != dims) {
      return fail("labeled example has " + std::to_string(example.size()) +
                  " attributes; the stream has " + std::to_string(dims));
    }
    if (!AllFinite(example)) {
      return fail("labeled example has a NaN or infinite attribute");
    }
    knowledge.outlier_examples.push_back(example);
  }
  if (reservoir_.size() < 8) {
    return fail("reservoir too small to learn from feedback");
  }

  // Same supervised learner as Learn()'s expert-knowledge branch, run
  // against the reservoir's stand-in for recent data.
  SupervisedConfig scfg = config_.supervised;
  scfg.moga.num_dims = partition.num_dims();
  scfg.moga.max_dimension =
      std::min(scfg.moga.max_dimension, scfg.moga.num_dims);
  for (const auto& ss : LearnOutlierDrivenSubspaces(
           reservoir_.Items(), partition, knowledge, scfg,
           rng_.NextUint64())) {
    sst_.AddOutlierDriven(ss.subspace, ss.score);
  }
  SyncTrackedSubspaces();
  ++stats_.feedback_rounds;
  Emit(DetectorEventKind::kFeedbackApplied, knowledge.outlier_examples.size(),
       static_cast<double>(stats_.feedback_rounds));
  return true;
}

void SpotDetector::RunSelfEvolution() {
  if (sst_.clustering().empty() || reservoir_.size() < 8) return;
  ++stats_.evolution_rounds;
  Emit(DetectorEventKind::kEvolutionRound, stats_.evolution_rounds);
  const Partition& partition = synapses_->partition();
  SelfEvolutionConfig ecfg = config_.evolution;
  ecfg.max_dimension = std::min(ecfg.max_dimension, partition.num_dims());
  EvolveClusteringSubspaces(&sst_, partition, reservoir_.Items(), ecfg, rng_);
  SyncTrackedSubspaces();
}

void SpotDetector::RelearnAfterDrift() {
  if (reservoir_.size() < 32) return;
  SPOT_LOG(Info) << "concept drift at tick " << tick_ << "; relearning CS";
  Emit(DetectorEventKind::kDriftRelearn, reservoir_.size());
  sst_.ClearClustering();
  const Partition& partition = synapses_->partition();
  UnsupervisedConfig ucfg = config_.unsupervised;
  ucfg.moga.num_dims = partition.num_dims();
  ucfg.moga.max_dimension =
      std::min(ucfg.moga.max_dimension, partition.num_dims());
  // Lighter budget than offline learning: this runs mid-stream.
  ucfg.moga.generations = std::max(5, ucfg.moga.generations / 3);
  for (const auto& ss : LearnClusteringSubspaces(
           reservoir_.Items(), partition, ucfg, rng_.NextUint64())) {
    sst_.AddClustering(ss.subspace, ss.score);
  }
  SyncTrackedSubspaces();
}

std::size_t SpotDetector::TrackedSubspaces() const {
  return learned() ? synapses_->NumTracked() : 0;
}

Detection SpotStreamAdapter::ToDetection(const SpotResult& r) {
  Detection d;
  d.is_outlier = r.is_outlier;
  d.score = r.score;
  d.outlying_subspaces.reserve(r.findings.size());
  for (const auto& f : r.findings) d.outlying_subspaces.push_back(f.subspace);
  return d;
}

Detection SpotStreamAdapter::Process(const DataPoint& point) {
  return ToDetection(detector_->Process(point));
}

std::vector<Detection> SpotStreamAdapter::ProcessBatch(
    const std::vector<DataPoint>& points) {
  const std::vector<SpotResult> results = detector_->ProcessBatch(points);
  std::vector<Detection> verdicts;
  verdicts.reserve(results.size());
  for (const SpotResult& r : results) verdicts.push_back(ToDetection(r));
  return verdicts;
}

}  // namespace spot
