// Equivalence tests of the sharded batch loop: SpotDetector::ProcessBatch
// verdicts (labels, findings, scores) and side-effect counters must be
// bit-identical to sequential SpotDetector processing at every shard count
// and batch size, including runs that cross CS self-evolution and
// drift-relearn boundaries. The TSan CI job runs this binary to prove the
// fan-out/join protocol is race-free at K in {2, 4, 8}, and that concurrent
// dispatchers on one pool are too.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/detector_events.h"
#include "engine/thread_pool.h"
#include "eval/harness.h"
#include "eval/presets.h"
#include "stream/drift.h"
#include "stream/replay.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

/// A stream whose concept is abruptly replaced twice inside the run, so the
/// equivalence sweep crosses Page-Hinkley drift relearns as well as the
/// periodic self-evolution ticks.
std::vector<LabeledPoint> DriftingEvalStream(int dims, int n,
                                             std::uint64_t seed) {
  stream::DriftConfig dcfg;
  dcfg.base.dimension = dims;
  dcfg.base.outlier_probability = 0.02;
  dcfg.base.concept_seed = 900;
  dcfg.base.seed = seed;
  dcfg.kind = stream::DriftKind::kAbrupt;
  dcfg.period = n / 3;
  stream::DriftingStream gen(dcfg);
  return Take(gen, static_cast<std::size_t>(n));
}

std::vector<std::vector<double>> TrainingBatch(int dims, int n) {
  stream::SyntheticConfig scfg;
  scfg.dimension = dims;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = 900;
  scfg.seed = 901;
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, static_cast<std::size_t>(n)));
}

/// Config exercising every mid-batch event source: OS growth from detected
/// outliers, periodic CS self-evolution, and drift relearning.
SpotConfig EventfulConfig() {
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 400;
  cfg.drift_detection = true;
  cfg.relearn_on_drift = true;
  cfg.drift_lambda = 8.0;
  return cfg;
}

std::unique_ptr<SpotDetector> LearnedDetector(
    const SpotConfig& cfg,
    const std::vector<std::vector<double>>& training) {
  auto det = std::make_unique<SpotDetector>(cfg);
  EXPECT_TRUE(det->Learn(training));
  return det;
}

void ExpectIdentical(const SpotResult& a, const SpotResult& b,
                     std::size_t point_idx, const char* label) {
  EXPECT_EQ(a.is_outlier, b.is_outlier) << label << " point " << point_idx;
  // Bit-identical, not approximately equal: the sharded path must run the
  // exact same arithmetic as the sequential path.
  EXPECT_EQ(a.score, b.score) << label << " point " << point_idx;
  ASSERT_EQ(a.findings.size(), b.findings.size())
      << label << " point " << point_idx;
  for (std::size_t f = 0; f < a.findings.size(); ++f) {
    EXPECT_EQ(a.findings[f].subspace.bits(), b.findings[f].subspace.bits())
        << label << " point " << point_idx << " finding " << f;
    EXPECT_EQ(a.findings[f].pcs.rd, b.findings[f].pcs.rd);
    EXPECT_EQ(a.findings[f].pcs.irsd, b.findings[f].pcs.irsd);
    EXPECT_EQ(a.findings[f].pcs.count, b.findings[f].pcs.count);
  }
}

void ExpectSameSideEffects(const SpotDetector& a, const SpotDetector& b,
                           const char* label) {
  EXPECT_EQ(a.stats().points_processed, b.stats().points_processed) << label;
  EXPECT_EQ(a.stats().outliers_detected, b.stats().outliers_detected)
      << label;
  EXPECT_EQ(a.stats().os_growth_runs, b.stats().os_growth_runs) << label;
  EXPECT_EQ(a.stats().evolution_rounds, b.stats().evolution_rounds) << label;
  EXPECT_EQ(a.stats().drifts_detected, b.stats().drifts_detected) << label;
  EXPECT_EQ(a.TrackedSubspaces(), b.TrackedSubspaces()) << label;
}

/// Drives `stream` through SpotDetector::ProcessBatch at `num_shards`
/// shards, in chunks of `batch_size`.
std::vector<SpotResult> RunEngine(SpotDetector* det, std::size_t num_shards,
                                  const std::vector<LabeledPoint>& stream,
                                  std::size_t batch_size) {
  det->set_num_shards(num_shards);
  std::vector<SpotResult> results;
  results.reserve(stream.size());
  std::vector<DataPoint> chunk;
  for (std::size_t start = 0; start < stream.size(); start += batch_size) {
    chunk.clear();
    for (std::size_t i = start;
         i < std::min(start + batch_size, stream.size()); ++i) {
      chunk.push_back(stream[i].point);
    }
    for (auto& r : det->ProcessBatch(chunk)) {
      results.push_back(std::move(r));
    }
  }
  return results;
}

TEST(ThreadPoolTest, DispatchRunsEveryJobExactlyOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  // Repeated dispatches reuse the same workers; stragglers from earlier
  // generations must never double-run or skip a job.
  for (int round = 0; round < 50; ++round) {
    pool.Dispatch(hits.size(),
                  [&](std::size_t i) { hits[i] += 1; });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 50) << "job " << i;
  }
}

// Several threads dispatch onto one pool at once, as reactors do on the
// shared pool: one dispatch at a time owns the workers and the others run
// their jobs inline, and every job of every dispatch runs exactly once.
TEST(ThreadPoolTest, ConcurrentDispatchersRunEveryJobOnce) {
  ThreadPool pool(3);
  const int kRounds = 200;
  std::vector<std::vector<int>> hits(4, std::vector<int>(64, 0));
  std::vector<std::thread> callers;
  for (std::vector<int>& counts : hits) {
    callers.emplace_back([&pool, &counts, kRounds] {
      for (int round = 0; round < kRounds; ++round) {
        pool.Dispatch(counts.size(), [&](std::size_t i) { counts[i] += 1; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t t = 0; t < hits.size(); ++t) {
    for (std::size_t i = 0; i < hits[t].size(); ++i) {
      EXPECT_EQ(hits[t][i], kRounds) << "caller " << t << " job " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int sum = 0;
  pool.Dispatch(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

// The headline acceptance test: engine verdicts are bit-identical to
// sequential Process() at shard counts {1, 2, 3, 4, 8} x batch sizes
// {1, 7, 64}, on a run that provably crosses OS-growth, self-evolution and
// drift-relearn boundaries.
TEST(ShardedEngineTest, BitIdenticalToSequentialAcrossShardsAndBatches) {
  const int kDims = 8;
  const int kStreamLen = 1500;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = DriftingEvalStream(kDims, kStreamLen, 902);
  const SpotConfig cfg = EventfulConfig();

  auto sequential = LearnedDetector(cfg, training);
  std::vector<SpotResult> seq_results;
  seq_results.reserve(stream.size());
  for (const auto& p : stream) {
    seq_results.push_back(sequential->Process(p.point));
  }
  // The run must actually cross every kind of tracked-set boundary,
  // otherwise this test proves much less than it claims.
  ASSERT_GT(sequential->stats().os_growth_runs, 0u);
  ASSERT_GT(sequential->stats().evolution_rounds, 0u);
  ASSERT_GT(sequential->stats().drifts_detected, 0u);

  for (const std::size_t num_shards : {std::size_t{1}, std::size_t{2},
                                       std::size_t{3}, std::size_t{4},
                                       std::size_t{8}}) {
    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << num_shards << " batch=" << batch_size);
      auto det = LearnedDetector(cfg, training);
      const std::vector<SpotResult> results =
          RunEngine(det.get(), num_shards, stream, batch_size);
      ASSERT_EQ(results.size(), seq_results.size());
      for (std::size_t i = 0; i < results.size(); ++i) {
        ExpectIdentical(seq_results[i], results[i], i, "engine");
      }
      ExpectSameSideEffects(*sequential, *det, "engine");
    }
  }
}

// SpotConfig::num_shards sets the shard count of SpotDetector::ProcessBatch
// transparently; verdicts match the sequential configuration.
TEST(ShardedEngineTest, DetectorDelegatesToEngineViaConfig) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = DriftingEvalStream(kDims, 900, 903);

  SpotConfig seq_cfg = EventfulConfig();
  auto seq = LearnedDetector(seq_cfg, training);

  SpotConfig sharded_cfg = EventfulConfig();
  sharded_cfg.num_shards = 4;
  auto sharded = LearnedDetector(sharded_cfg, training);
  EXPECT_EQ(sharded->num_shards(), 4u);

  const std::size_t kChunk = 97;
  std::vector<DataPoint> chunk;
  std::vector<SpotResult> seq_results;
  std::vector<SpotResult> sharded_results;
  for (std::size_t start = 0; start < stream.size(); start += kChunk) {
    chunk.clear();
    for (std::size_t i = start; i < std::min(start + kChunk, stream.size());
         ++i) {
      chunk.push_back(stream[i].point);
    }
    for (auto& r : seq->ProcessBatch(chunk)) {
      seq_results.push_back(std::move(r));
    }
    for (auto& r : sharded->ProcessBatch(chunk)) {
      sharded_results.push_back(std::move(r));
    }
  }
  ASSERT_EQ(seq_results.size(), sharded_results.size());
  for (std::size_t i = 0; i < seq_results.size(); ++i) {
    ExpectIdentical(seq_results[i], sharded_results[i], i, "config");
  }
  ExpectSameSideEffects(*seq, *sharded, "config");
}

// Re-sharding mid-stream (set_num_shards) and interleaving single-point
// Process() calls with engine batches must not perturb verdicts: both paths
// update the same synapses, and the shard views resync at every batch.
TEST(ShardedEngineTest, MixedProcessBatchAndReshardingKeepsVerdicts) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = DriftingEvalStream(kDims, 800, 904);
  const SpotConfig cfg = EventfulConfig();

  auto sequential = LearnedDetector(cfg, training);
  std::vector<SpotResult> seq_results;
  for (const auto& p : stream) {
    seq_results.push_back(sequential->Process(p.point));
  }

  auto mixed = LearnedDetector(cfg, training);
  std::vector<SpotResult> mixed_results;
  std::size_t i = 0;
  // First third: single-point Process.
  for (; i < stream.size() / 3; ++i) {
    mixed_results.push_back(mixed->Process(stream[i].point));
  }
  // Second third: 2-shard batches.
  mixed->set_num_shards(2);
  std::vector<DataPoint> chunk;
  for (; i < 2 * stream.size() / 3; i += chunk.size()) {
    chunk.clear();
    for (std::size_t j = i;
         j < std::min(i + 53, 2 * stream.size() / 3); ++j) {
      chunk.push_back(stream[j].point);
    }
    for (auto& r : mixed->ProcessBatch(chunk)) {
      mixed_results.push_back(std::move(r));
    }
  }
  // Final third: re-shard to 5 mid-stream.
  mixed->set_num_shards(5);
  for (; i < stream.size(); i += chunk.size()) {
    chunk.clear();
    for (std::size_t j = i; j < std::min(i + 64, stream.size()); ++j) {
      chunk.push_back(stream[j].point);
    }
    for (auto& r : mixed->ProcessBatch(chunk)) {
      mixed_results.push_back(std::move(r));
    }
  }

  ASSERT_EQ(seq_results.size(), mixed_results.size());
  for (std::size_t k = 0; k < seq_results.size(); ++k) {
    ExpectIdentical(seq_results[k], mixed_results[k], k, "mixed");
  }
  ExpectSameSideEffects(*sequential, *mixed, "mixed");
}

// A detector sharded through SpotConfig::num_shards yields, through the
// harness and the stream adapter, every evaluation metric of the one-shard
// configuration.
TEST(ShardedEngineTest, HarnessMetricsMatchAtConfiguredShardCount) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = DriftingEvalStream(kDims, 900, 905);

  eval::RunResult baseline;
  eval::RunResult sharded;
  {
    auto det = LearnedDetector(EventfulConfig(), training);
    SpotStreamAdapter adapter(det.get());
    stream::ReplaySource replay(stream);
    eval::RunOptions opts;
    opts.batch_size = 128;
    opts.collect_scores = true;
    baseline = eval::RunDetection(adapter, replay, stream.size(), opts);
  }
  {
    SpotConfig cfg = EventfulConfig();
    cfg.num_shards = 3;
    auto det = LearnedDetector(cfg, training);
    EXPECT_EQ(det->num_shards(), 3u);
    SpotStreamAdapter adapter(det.get());
    stream::ReplaySource replay(stream);
    eval::RunOptions opts;
    opts.batch_size = 128;
    opts.collect_scores = true;
    sharded = eval::RunDetection(adapter, replay, stream.size(), opts);
  }
  EXPECT_EQ(baseline.confusion.tp(), sharded.confusion.tp());
  EXPECT_EQ(baseline.confusion.fp(), sharded.confusion.fp());
  EXPECT_EQ(baseline.confusion.fn(), sharded.confusion.fn());
  EXPECT_EQ(baseline.confusion.tn(), sharded.confusion.tn());
  EXPECT_EQ(baseline.auc, sharded.auc);
  ASSERT_EQ(baseline.scores.size(), sharded.scores.size());
  for (std::size_t i = 0; i < baseline.scores.size(); ++i) {
    EXPECT_EQ(baseline.scores[i], sharded.scores[i]);
  }
}

// The timing counters are maintained by the detection entry points, so
// every consumer (benches, engine reports) reads one source of truth.
TEST(ShardedEngineTest, StatsExposeThroughputCounters) {
  const int kDims = 6;
  const auto training = TrainingBatch(kDims, 400);
  const auto stream = DriftingEvalStream(kDims, 300, 906);
  SpotConfig cfg = EventfulConfig();
  cfg.num_shards = 2;
  auto det = LearnedDetector(cfg, training);
  EXPECT_EQ(det->stats().batches_processed, 0u);
  EXPECT_EQ(det->stats().PointsPerSecond(), 0.0);

  std::vector<DataPoint> points;
  for (const auto& p : stream) points.push_back(p.point);
  det->ProcessBatch(points);
  det->Process(points.front());

  EXPECT_EQ(det->stats().batches_processed, 1u);
  EXPECT_EQ(det->stats().points_processed, stream.size() + 1);
  EXPECT_GT(det->stats().detection_seconds, 0.0);
  EXPECT_GT(det->stats().PointsPerSecond(), 0.0);
}

/// Records every detector event, in emission order.
struct RecordingSink : DetectorEventSink {
  void OnDetectorEvent(const DetectorEvent& event) override {
    events.push_back(event);
  }
  std::vector<DetectorEvent> events;
};

// Batches much longer than a tile: every batch splits into several tiles
// at K = 1 and K = 4, and OS growth, self-evolution and drift relearns land
// inside tiles and on their boundaries. Verdicts, side effects and the
// event journal — each event stamped with its point's tick — must still
// match per-point Process.
TEST(ShardedEngineTest, MultiTileBatchesMatchPerPointProcess) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 500);
  const auto stream = DriftingEvalStream(kDims, 1400, 908);
  const SpotConfig cfg = EventfulConfig();

  RecordingSink expected_events;
  SpotDetector per_point(cfg);
  per_point.set_event_sink(&expected_events);
  ASSERT_TRUE(per_point.Learn(training));
  std::vector<SpotResult> expected;
  for (const auto& p : stream) expected.push_back(per_point.Process(p.point));
  ASSERT_GT(per_point.stats().os_growth_runs, 0u);
  ASSERT_GT(per_point.stats().evolution_rounds, 0u);
  ASSERT_GT(per_point.stats().drifts_detected, 0u);

  for (const std::size_t num_shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << num_shards);
    RecordingSink events;
    SpotDetector det(cfg);
    det.set_event_sink(&events);
    ASSERT_TRUE(det.Learn(training));
    const std::vector<SpotResult> results =
        RunEngine(&det, num_shards, stream, /*batch_size=*/700);
    ASSERT_EQ(results.size(), expected.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ExpectIdentical(expected[i], results[i], i, "tiled");
    }
    ExpectSameSideEffects(per_point, det, "tiled");
    ASSERT_EQ(events.events.size(), expected_events.events.size());
    for (std::size_t e = 0; e < events.events.size(); ++e) {
      const DetectorEvent& a = expected_events.events[e];
      const DetectorEvent& b = events.events[e];
      EXPECT_EQ(a.kind, b.kind) << "event " << e;
      EXPECT_EQ(a.tick, b.tick) << "event " << e;
      EXPECT_EQ(a.subspace.bits(), b.subspace.bits()) << "event " << e;
      EXPECT_EQ(a.a, b.a) << "event " << e;
      EXPECT_EQ(a.value, b.value) << "event " << e;
    }
  }
}

// A one-shard batch runs through the engine too, so the phase-0 bin pass
// and the single shard's probe loop land in the stage record exactly as at
// K > 1: one bin unit per point, one probe entry (one span) with one unit
// per (point, tracked subspace), each entry's perf clock its own length.
TEST(ShardedEngineTest, OneShardBatchAttributesBinProbeAndSpan) {
  const int kDims = 6;
  SpotConfig cfg = eval::FastTestConfig();
  cfg.num_shards = 1;
  cfg.os_update_every = 0;  // a fixed tracked set across the batch
  cfg.evolution_period = 0;
  cfg.drift_detection = false;
  auto det = LearnedDetector(cfg, TrainingBatch(kDims, 400));

  std::vector<DataPoint> points;
  for (const auto& p : DriftingEvalStream(kDims, 150, 907)) {
    points.push_back(p.point);
  }
  const std::size_t tracked = det->TrackedSubspaces();
  ASSERT_GT(tracked, 0u);
  det->ProcessBatch(points);

  const BatchStageRecord& record = det->stage_record();
  EXPECT_EQ(record.bin.perf.units, points.size());
  EXPECT_GT(record.bin.perf.clock_ns, 0u);
  ASSERT_EQ(record.probes.size(), 1u);
  EXPECT_EQ(record.probes[0].perf.units, points.size() * tracked);
  EXPECT_GT(record.probes[0].perf.clock_ns, 0u);
}

// At K=4 each shard's probe job runs on a pool worker (or inline on the
// caller when the pool is owned or empty) and reads that thread's CPU
// clock inside its own wall window. 200 points fit one tile of 64 x 4,
// so each entry is one window. The CPU time may exceed the wall time only by the
// disagreement of two kernel clocks: 1% plus 50 µs, the tolerance
// perf_counters_test states and justifies.
TEST(ShardedEngineTest, FourShardProbeEntriesReadCpuInsideTheirWindows) {
  const int kDims = 6;
  SpotConfig cfg = eval::FastTestConfig();
  cfg.num_shards = 4;
  cfg.os_update_every = 0;
  cfg.evolution_period = 0;
  cfg.drift_detection = false;
  auto det = LearnedDetector(cfg, TrainingBatch(kDims, 400));

  std::vector<DataPoint> points;
  for (const auto& p : DriftingEvalStream(kDims, 200, 911)) {
    points.push_back(p.point);
  }
  det->ProcessBatch(points);

  const BatchStageRecord& record = det->stage_record();
  ASSERT_EQ(record.probes.size(), 4u);
  for (std::size_t k = 0; k < record.probes.size(); ++k) {
    const obs::PerfStageTotals& perf = record.probes[k].perf;
    EXPECT_EQ(perf.samples, 1u) << "shard " << k;
    EXPECT_GT(perf.cpu_ns, 0u) << "shard " << k;
    EXPECT_LE(perf.cpu_ns, perf.clock_ns + perf.clock_ns / 100 + 50000)
        << "shard " << k << ": cpu " << perf.cpu_ns << " ns, wall "
        << perf.clock_ns << " ns";
  }
}

}  // namespace
}  // namespace spot
