// Equivalence tests of the batch detection layer: ProcessBatch must be a
// pure amortization of Process — identical outlier labels, findings and
// scores for every batch size — and the fused synapse path must stay within
// its one-hash-probe-per-subspace budget and its allocation budget.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "stream/replay.h"
#include "stream/synthetic.h"

// Global operator new counts the allocations of this thread while armed, so
// a test can bound what ProcessBatch allocates per point.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

// Both sides out of line, so the compiler pairs neither an inlined malloc()
// nor an inlined free() with a new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spot {
namespace {

std::vector<LabeledPoint> EvalStream(int dims, int n, std::uint64_t seed) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = 0.02;
  scfg.concept_seed = 700;
  scfg.seed = seed;
  stream::GaussianStream gen(scfg);
  return Take(gen, static_cast<std::size_t>(n));
}

std::vector<std::vector<double>> TrainingBatch(int dims, int n) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = 700;
  scfg.seed = 701;
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, static_cast<std::size_t>(n)));
}

/// Builds a learned detector on the shared concept. Every equivalence run
/// must construct its own (Process mutates the decayed synapses).
std::unique_ptr<SpotDetector> LearnedDetector(
    const std::vector<std::vector<double>>& training) {
  auto det = std::make_unique<SpotDetector>(eval::FastTestConfig());
  EXPECT_TRUE(det->Learn(training));
  return det;
}

void ExpectIdentical(const SpotResult& a, const SpotResult& b,
                     std::size_t point_idx) {
  EXPECT_EQ(a.is_outlier, b.is_outlier) << "point " << point_idx;
  // Bit-identical, not approximately equal: the batch path must run the
  // exact same arithmetic.
  EXPECT_EQ(a.score, b.score) << "point " << point_idx;
  ASSERT_EQ(a.findings.size(), b.findings.size()) << "point " << point_idx;
  for (std::size_t f = 0; f < a.findings.size(); ++f) {
    EXPECT_EQ(a.findings[f].subspace.bits(), b.findings[f].subspace.bits())
        << "point " << point_idx << " finding " << f;
    EXPECT_EQ(a.findings[f].pcs.rd, b.findings[f].pcs.rd);
    EXPECT_EQ(a.findings[f].pcs.irsd, b.findings[f].pcs.irsd);
    EXPECT_EQ(a.findings[f].pcs.count, b.findings[f].pcs.count);
  }
}

TEST(BatchEquivalenceTest, ProcessBatchMatchesSequentialProcess) {
  const int kDims = 10;
  const auto training = TrainingBatch(kDims, 600);
  const auto stream = EvalStream(kDims, 1500, 702);

  auto sequential = LearnedDetector(training);
  auto batched = LearnedDetector(training);

  std::vector<SpotResult> seq_results;
  seq_results.reserve(stream.size());
  for (const auto& p : stream) {
    seq_results.push_back(sequential->Process(p.point));
  }

  // Uneven chunk size so batch boundaries land everywhere in the stream.
  const std::size_t kChunk = 97;
  std::vector<SpotResult> batch_results;
  std::vector<DataPoint> chunk;
  for (std::size_t start = 0; start < stream.size(); start += kChunk) {
    chunk.clear();
    for (std::size_t i = start; i < std::min(start + kChunk, stream.size());
         ++i) {
      chunk.push_back(stream[i].point);
    }
    for (auto& r : batched->ProcessBatch(chunk)) {
      batch_results.push_back(std::move(r));
    }
  }

  ASSERT_EQ(seq_results.size(), batch_results.size());
  for (std::size_t i = 0; i < seq_results.size(); ++i) {
    ExpectIdentical(seq_results[i], batch_results[i], i);
  }
  // Identical side effects too, not just verdicts.
  EXPECT_EQ(sequential->stats().outliers_detected,
            batched->stats().outliers_detected);
  EXPECT_EQ(sequential->stats().os_growth_runs,
            batched->stats().os_growth_runs);
  EXPECT_EQ(sequential->TrackedSubspaces(), batched->TrackedSubspaces());
}

TEST(BatchEquivalenceTest, VerdictsInvariantAcrossBatchSizes) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = EvalStream(kDims, 800, 703);

  std::vector<std::vector<SpotResult>> runs;
  for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{64},
                                       std::size_t{800}}) {
    auto det = LearnedDetector(training);
    std::vector<SpotResult> results;
    std::vector<DataPoint> chunk;
    for (std::size_t start = 0; start < stream.size(); start += chunk_size) {
      chunk.clear();
      for (std::size_t i = start;
           i < std::min(start + chunk_size, stream.size()); ++i) {
        chunk.push_back(stream[i].point);
      }
      for (auto& r : det->ProcessBatch(chunk)) {
        results.push_back(std::move(r));
      }
    }
    runs.push_back(std::move(results));
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[0].size(), runs[run].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      ExpectIdentical(runs[0][i], runs[run][i], i);
    }
  }
}

TEST(BatchEquivalenceTest, AdapterBatchMatchesAdapterSequential) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = EvalStream(kDims, 600, 704);

  auto det_a = LearnedDetector(training);
  auto det_b = LearnedDetector(training);
  SpotStreamAdapter seq(det_a.get());
  SpotStreamAdapter bat(det_b.get());

  std::vector<DataPoint> points;
  points.reserve(stream.size());
  for (const auto& p : stream) points.push_back(p.point);

  std::vector<Detection> seq_verdicts;
  for (const auto& p : points) seq_verdicts.push_back(seq.Process(p));
  const std::vector<Detection> bat_verdicts = bat.ProcessBatch(points);

  ASSERT_EQ(seq_verdicts.size(), bat_verdicts.size());
  for (std::size_t i = 0; i < seq_verdicts.size(); ++i) {
    EXPECT_EQ(seq_verdicts[i].is_outlier, bat_verdicts[i].is_outlier);
    EXPECT_EQ(seq_verdicts[i].score, bat_verdicts[i].score);
    ASSERT_EQ(seq_verdicts[i].outlying_subspaces.size(),
              bat_verdicts[i].outlying_subspaces.size());
  }
}

TEST(BatchEquivalenceTest, HarnessMetricsInvariantAcrossBatchSizes) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = EvalStream(kDims, 900, 705);

  eval::RunResult per_point;
  eval::RunResult batched;
  {
    auto det = LearnedDetector(training);
    SpotStreamAdapter adapter(det.get());
    stream::ReplaySource replay(stream);
    eval::RunOptions opts;
    opts.batch_size = 1;
    opts.collect_scores = true;
    per_point = eval::RunDetection(adapter, replay, stream.size(), opts);
  }
  {
    auto det = LearnedDetector(training);
    SpotStreamAdapter adapter(det.get());
    stream::ReplaySource replay(stream);
    eval::RunOptions opts;
    opts.batch_size = 128;
    opts.collect_scores = true;
    batched = eval::RunDetection(adapter, replay, stream.size(), opts);
  }
  EXPECT_EQ(per_point.confusion.tp(), batched.confusion.tp());
  EXPECT_EQ(per_point.confusion.fp(), batched.confusion.fp());
  EXPECT_EQ(per_point.confusion.fn(), batched.confusion.fn());
  EXPECT_EQ(per_point.confusion.tn(), batched.confusion.tn());
  EXPECT_EQ(per_point.auc, batched.auc);
  ASSERT_EQ(per_point.scores.size(), batched.scores.size());
  for (std::size_t i = 0; i < per_point.scores.size(); ++i) {
    EXPECT_EQ(per_point.scores[i], batched.scores[i]);
  }
}

// Acceptance budget of the fused hot path: with growth/evolution/fringe off,
// every processed point performs exactly one cell-index hash probe per
// tracked subspace (the column kernel's fused update+query) — not two
// (Add + Query).
TEST(BatchEquivalenceTest, HotPathCostsOneProbePerTrackedSubspace) {
  const int kDims = 8;
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 0;   // no OS growth mid-stream
  cfg.evolution_period = 0;  // no CS evolution
  cfg.fringe_factor = 0.0;   // no fringe neighborhood probes
  cfg.compaction_period = 0; // no compaction sweeps mid-measurement
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(TrainingBatch(kDims, 500)));

  const auto stream = EvalStream(kDims, 400, 706);
  const std::size_t tracked = det.TrackedSubspaces();
  ASSERT_GT(tracked, 0u);

  const std::uint64_t probes_before = det.synapses().hash_probes();
  std::vector<DataPoint> points;
  for (const auto& p : stream) points.push_back(p.point);
  det.ProcessBatch(points);
  const std::uint64_t probes_after = det.synapses().hash_probes();

  EXPECT_EQ(probes_after - probes_before, points.size() * tracked);
}

// Allocation budget of the batch path at one shard, on the probe-bound
// benchmark workload's detector: 20 attributes, the SST pinned at 128 FS
// subspaces of up to 3 dimensions, no OS growth. Phase 0 bins each point
// once (one coordinate vector per point) and folds the total-weight counter,
// which allocates nothing; a tile's columns cost three allocations and its
// shard run's coordinate buffer one, and outliers' findings the rest. A
// compaction sweep walks each grid's index without allocating and reuses
// one doomed-key buffer per grid, so sweeps every 4096 arrivals read
// 1.306 per point against 1.294 with compaction off. One more heap object
// per grid per sweep (1.336, when ForEach built a key vector per walk)
// exceeds the bound.
TEST(BatchEquivalenceTest, ProcessBatchAllocationsPerPointBounded) {
  const int kDims = 20;
  SpotConfig cfg = eval::ExperimentConfig(14);
  cfg.fs_max_dimension = 3;
  cfg.fs_cap = 128;
  cfg.unsupervised.top_subspaces_per_run = 0;
  cfg.os_update_every = 0;
  cfg.num_shards = 1;
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(TrainingBatch(kDims, 600)));
  ASSERT_EQ(det.TrackedSubspaces(), 128u);

  stream::SyntheticConfig scfg;
  scfg.dimension = kDims;
  scfg.outlier_probability = 0.01;
  scfg.concept_seed = 700;
  scfg.seed = 707;
  stream::GaussianStream gen(scfg);
  const std::size_t kBatch = 256;
  const auto next_batch = [&] {
    std::vector<DataPoint> points;
    points.reserve(kBatch);
    while (points.size() < kBatch) points.push_back(gen.Next()->point);
    return points;
  };
  for (int b = 0; b < 20; ++b) det.ProcessBatch(next_batch());

  const int kTimed = 100;
  std::size_t outliers = 0;
  t_allocations = 0;
  for (int b = 0; b < kTimed; ++b) {
    const std::vector<DataPoint> points = next_batch();
    t_count_allocations = true;
    const std::vector<SpotResult> results = det.ProcessBatch(points);
    t_count_allocations = false;
    for (const SpotResult& r : results) outliers += r.is_outlier ? 1 : 0;
  }
  const double points = static_cast<double>(kTimed * kBatch);
  const double per_point = static_cast<double>(t_allocations) / points;
  EXPECT_GT(outliers, 0u);  // findings vectors are part of the budget
  EXPECT_LE(per_point, 1.32) << t_allocations << " allocations over "
                            << points << " points";
  RecordProperty("allocations_per_point_x1000",
                 static_cast<int>(per_point * 1000.0));
}

}  // namespace
}  // namespace spot
