// Tests of the binary full-state checkpoint (src/core/checkpoint.h): a
// save → load → Process run must be bit-identical to an uninterrupted one —
// same verdict labels, findings, scores (exact double equality) and same
// SpotStats counters — including checkpoints taken right before runs that
// cross CS self-evolution, OS growth, drift-relearn and compaction
// boundaries, and regardless of the shard count on either side of the
// save/load — that a save onto a full disk fails cleanly, keeping the
// previous image, and that grid images with cells outside the partition are
// refused. The ASan/UBSan CI job runs this binary.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/detector.h"
#include "core/drift_detector.h"
#include "core/reservoir.h"
#include "eval/presets.h"
#include "grid/base_grid.h"
#include "grid/projected_grid.h"
#include "stream/drift.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

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

/// Config exercising every online state mutator the checkpoint must
/// capture: OS growth, periodic CS self-evolution, drift relearning, and a
/// compaction cadence short enough that the post-restore run crosses
/// several Compact() sweeps (whose FP summation order must not depend on
/// hash-map history — the checkpoint cannot reproduce that history).
SpotConfig EventfulConfig() {
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 400;
  cfg.drift_detection = true;
  cfg.relearn_on_drift = true;
  cfg.drift_lambda = 8.0;
  cfg.compaction_period = 512;
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

/// All deterministic SpotStats fields (detection_seconds is wall-clock and
/// batches_processed depends on the caller's batching, not the stream).
void ExpectSameStats(const SpotStats& a, const SpotStats& b,
                     const char* label) {
  EXPECT_EQ(a.points_processed, b.points_processed) << label;
  EXPECT_EQ(a.outliers_detected, b.outliers_detected) << label;
  EXPECT_EQ(a.evolution_rounds, b.evolution_rounds) << label;
  EXPECT_EQ(a.os_growth_runs, b.os_growth_runs) << label;
  EXPECT_EQ(a.drifts_detected, b.drifts_detected) << label;
}

std::string SaveToString(const SpotDetector& det) {
  std::ostringstream out;
  EXPECT_TRUE(SaveCheckpoint(det, out));
  return out.str();
}

bool LoadFromString(SpotDetector* det, const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadCheckpoint(det, in);
}

/// Feeds `stream[begin, end)` in batches of `batch` and returns the
/// verdicts.
std::vector<SpotResult> Drive(SpotDetector* det,
                              const std::vector<LabeledPoint>& stream,
                              std::size_t begin, std::size_t end,
                              std::size_t batch) {
  std::vector<SpotResult> results;
  results.reserve(end - begin);
  std::vector<DataPoint> chunk;
  for (std::size_t start = begin; start < end; start += batch) {
    chunk.clear();
    for (std::size_t i = start; i < std::min(start + batch, end); ++i) {
      chunk.push_back(stream[i].point);
    }
    for (auto& r : det->ProcessBatch(chunk)) results.push_back(std::move(r));
  }
  return results;
}

// The headline acceptance test: checkpoint mid-stream, keep the original
// running, restore into a fresh detector, and compare the next 5000
// verdicts point by point — at shard counts {1, 4} on the restored side,
// over a stream that crosses evolution, OS-growth, drift and compaction
// boundaries both before and after the checkpoint.
TEST(CheckpointTest, ResumeIsBitIdenticalAcrossEventBoundaries) {
  const int kDims = 8;
  const std::size_t kWarmup = 1500;  // crosses evolution + OS growth
  const std::size_t kTail = 5000;    // crosses drift + more evolutions
  const auto training = TrainingBatch(kDims, 400);
  const auto stream =
      DriftingEvalStream(kDims, static_cast<int>(kWarmup + kTail), 1);

  auto original = LearnedDetector(EventfulConfig(), training);
  Drive(original.get(), stream, 0, kWarmup, 64);
  const std::string bytes = SaveToString(*original);
  const auto expected = Drive(original.get(), stream, kWarmup,
                              kWarmup + kTail, 64);
  // The warm-up provably crossed state-mutating events (else this test
  // would not cover them).
  EXPECT_GT(original->stats().evolution_rounds, 0u);
  EXPECT_GT(original->stats().os_growth_runs, 0u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SpotDetector restored{SpotConfig{}};
    ASSERT_TRUE(LoadFromString(&restored, bytes));
    ASSERT_TRUE(restored.learned());
    restored.set_num_shards(shards);
    const auto got =
        Drive(&restored, stream, kWarmup, kWarmup + kTail, 64);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectIdentical(expected[i], got[i], i, "restored");
    }
    ExpectSameStats(original->stats(), restored.stats(), "restored");
  }
}

// Saving from a sharded detector and restoring must behave exactly like
// saving from a sequential one: the checkpoint is shard-agnostic.
TEST(CheckpointTest, SaveUnderShardedEngineEqualsSequentialSave) {
  const int kDims = 8;
  const auto training = TrainingBatch(kDims, 400);
  const auto stream = DriftingEvalStream(kDims, 3000, 2);

  auto sequential = LearnedDetector(EventfulConfig(), training);
  auto sharded = LearnedDetector(EventfulConfig(), training);
  sharded->set_num_shards(4);
  Drive(sequential.get(), stream, 0, 1000, 64);
  Drive(sharded.get(), stream, 0, 1000, 64);

  // Align the one config field that legitimately differs (the throughput
  // knob itself); every byte of actual detector state must then match.
  sharded->set_num_shards(1);
  EXPECT_EQ(SaveToString(*sequential), SaveToString(*sharded));
}

TEST(CheckpointTest, RepeatedSaveLoadSaveIsByteStable) {
  const auto training = TrainingBatch(6, 300);
  const auto stream = DriftingEvalStream(6, 1200, 3);
  auto det = LearnedDetector(EventfulConfig(), training);
  Drive(det.get(), stream, 0, 1200, 32);

  const std::string first = SaveToString(*det);
  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadFromString(&restored, first));
  EXPECT_EQ(SaveToString(restored), first);
}

TEST(CheckpointTest, RoundTripsFullConfigIncludingNestedLearningKnobs) {
  SpotConfig cfg = EventfulConfig();
  cfg.unsupervised.moga.generations = 123;
  cfg.unsupervised.outlying_degree.threshold_scale = 2.25;
  cfg.supervised.top_subspaces_per_example = 7;
  cfg.evolution.offspring = 21;
  cfg.evolution.mutation_prob = 0.125;
  cfg.num_shards = 3;
  auto det = LearnedDetector(cfg, TrainingBatch(5, 200));
  const std::string bytes = SaveToString(*det);

  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadFromString(&restored, bytes));
  const SpotConfig& rc = restored.config();
  EXPECT_EQ(rc.unsupervised.moga.generations, 123);
  EXPECT_DOUBLE_EQ(rc.unsupervised.outlying_degree.threshold_scale, 2.25);
  EXPECT_EQ(rc.supervised.top_subspaces_per_example, 7u);
  EXPECT_EQ(rc.evolution.offspring, 21u);
  EXPECT_DOUBLE_EQ(rc.evolution.mutation_prob, 0.125);
  EXPECT_EQ(rc.num_shards, 3u);
  EXPECT_EQ(restored.sst().TotalSize(), det->sst().TotalSize());
  EXPECT_EQ(restored.TrackedSubspaces(), det->TrackedSubspaces());
}

TEST(CheckpointTest, UnlearnedDetectorRoundTrips) {
  SpotConfig cfg;
  cfg.omega = 777;
  SpotDetector det(cfg);
  const std::string bytes = SaveToString(det);

  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadFromString(&restored, bytes));
  EXPECT_FALSE(restored.learned());
  EXPECT_EQ(restored.config().omega, 777u);
}

TEST(CheckpointTest, RejectsGarbageAndTruncation) {
  const auto training = TrainingBatch(5, 200);
  auto det = LearnedDetector(EventfulConfig(), training);
  const std::string bytes = SaveToString(*det);

  SpotDetector victim{SpotConfig{}};
  EXPECT_FALSE(LoadFromString(&victim, ""));
  EXPECT_FALSE(victim.learned());
  EXPECT_FALSE(LoadFromString(&victim, "this is not a checkpoint at all"));
  EXPECT_FALSE(victim.learned());
  // Truncations at several depths: header, config, mid-state, trailer.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{40}, bytes.size() / 2,
        bytes.size() - 1}) {
    EXPECT_FALSE(LoadFromString(&victim, bytes.substr(0, keep)))
        << "kept " << keep << " of " << bytes.size();
    EXPECT_FALSE(victim.learned());
  }
  // A valid image still loads after all those failures.
  EXPECT_TRUE(LoadFromString(&victim, bytes));
  EXPECT_TRUE(victim.learned());
}

TEST(CheckpointTest, FileRoundTripViaAtomicRename) {
  const std::string path =
      testing::TempDir() + "spot_checkpoint_test.ckpt";
  const auto training = TrainingBatch(5, 200);
  const auto stream = DriftingEvalStream(5, 800, 4);
  auto det = LearnedDetector(EventfulConfig(), training);
  Drive(det.get(), stream, 0, 500, 32);
  ASSERT_TRUE(SaveCheckpointFile(*det, path));

  const auto expected = Drive(det.get(), stream, 500, 800, 32);
  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadCheckpointFile(&restored, path));
  const auto got = Drive(&restored, stream, 500, 800, 32);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ExpectIdentical(expected[i], got[i], i, "file");
  }
  std::remove(path.c_str());
  EXPECT_FALSE(LoadCheckpointFile(&restored, path + ".does-not-exist"));
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A full disk during a checkpoint write: `<path>.tmp` is a symlink to
// /dev/full, so every write through it fails with ENOSPC. The save must
// report failure, leave no temp file behind, and leave the previous image
// at the final path byte-identical and loadable.
TEST(CheckpointTest, FullDiskSaveFailsAndKeepsThePreviousImage) {
  const std::string path = testing::TempDir() + "spot_checkpoint_full.ckpt";
  const std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());
  const auto training = TrainingBatch(5, 200);
  const auto stream = DriftingEvalStream(5, 600, 6);
  auto det = LearnedDetector(EventfulConfig(), training);
  Drive(det.get(), stream, 0, 300, 32);
  ASSERT_TRUE(SaveCheckpointFile(*det, path));
  const std::string previous = FileBytes(path);
  ASSERT_FALSE(previous.empty());

  Drive(det.get(), stream, 300, 600, 32);  // the next image would differ
  if (::symlink("/dev/full", tmp.c_str()) != 0) {
    GTEST_SKIP() << "cannot symlink " << tmp << " to /dev/full";
  }
  EXPECT_FALSE(SaveCheckpointFile(*det, path));
  struct stat st;
  EXPECT_NE(::lstat(tmp.c_str(), &st), 0) << tmp << " left behind";
  std::remove(tmp.c_str());

  EXPECT_EQ(FileBytes(path), previous);
  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadCheckpointFile(&restored, path));
  EXPECT_EQ(SaveToString(restored), previous);
  std::remove(path.c_str());
}

/// One supervised round at the current position: label the worst retained
/// outliers by id plus one fresh example (the detector's own dimension).
bool FeedbackRound(SpotDetector* det) {
  std::vector<std::uint64_t> ids;
  for (const TopKEntry& e : det->QueryTopK(4)) ids.push_back(e.point_id);
  const std::vector<double> example(
      static_cast<std::size_t>(det->dimension()), 3.5);
  return det->ApplyFeedback(ids, {example});
}

// The feedback & query plane survives a checkpoint (DESIGN.md Section 11):
// the top-k retention window round-trips entry for entry (ids, ticks, raw
// scores, values, findings), the feedback_rounds counter persists, and a
// post-restore feedback round — whose RNG draw and supervised SST growth
// depend on everything before it — leaves both detectors bit-identical.
TEST(CheckpointTest, TopKWindowAndFeedbackStateRoundTrip) {
  const int kDims = 6;
  const auto training = TrainingBatch(kDims, 300);
  const auto stream = DriftingEvalStream(kDims, 2000, 5);
  auto original = LearnedDetector(EventfulConfig(), training);
  Drive(original.get(), stream, 0, 800, 64);
  ASSERT_TRUE(FeedbackRound(original.get()));
  Drive(original.get(), stream, 800, 1000, 64);
  ASSERT_GT(original->topk().size(), 0u);
  EXPECT_EQ(original->stats().feedback_rounds, 1u);

  const std::string bytes = SaveToString(*original);
  SpotDetector restored{SpotConfig{}};
  ASSERT_TRUE(LoadFromString(&restored, bytes));
  EXPECT_EQ(restored.stats().feedback_rounds, 1u);

  const auto want = original->QueryTopK(16);
  const auto got = restored.QueryTopK(16);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(got.size(), 0u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].point_id, want[i].point_id) << i;
    EXPECT_EQ(got[i].tick, want[i].tick) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
    EXPECT_EQ(got[i].decayed_score, want[i].decayed_score) << i;
    EXPECT_EQ(got[i].values, want[i].values) << i;
    ASSERT_EQ(got[i].findings.size(), want[i].findings.size()) << i;
  }
  // Feedback-by-id resolves through the restored window too.
  EXPECT_NE(restored.topk().Values(got[0].point_id), nullptr);

  // A feedback round on each side must consume the same RNG draw and grow
  // the same subspaces: the verdict tails stay identical point by point.
  ASSERT_TRUE(FeedbackRound(original.get()));
  ASSERT_TRUE(FeedbackRound(&restored));
  EXPECT_EQ(restored.stats().feedback_rounds, 2u);
  const auto expected = Drive(original.get(), stream, 1000, 2000, 64);
  const auto tail = Drive(&restored, stream, 1000, 2000, 64);
  ASSERT_EQ(tail.size(), expected.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ExpectIdentical(expected[i], tail[i], i, "post-feedback");
  }
}

// Pre-feedback-plane checkpoints (format v1) must be refused outright:
// the v2 image carries topk_capacity, feedback_rounds and the top-k
// window, and guessing defaults for them would silently fork the verdict
// stream the checkpoint promises to reproduce.
TEST(CheckpointTest, RejectsOtherFormatVersions) {
  const auto training = TrainingBatch(5, 200);
  auto det = LearnedDetector(EventfulConfig(), training);
  std::string bytes = SaveToString(*det);

  // The format version is the byte right after the 8-byte header magic.
  for (const char version : {char{1}, char{3}, char{0}}) {
    std::string forged = bytes;
    forged[8] = version;
    SpotDetector victim{SpotConfig{}};
    EXPECT_FALSE(LoadFromString(&victim, forged))
        << "accepted format version " << static_cast<int>(version);
    EXPECT_FALSE(victim.learned());
  }
}

// ------------------------------------------------- per-layer round trips --

TEST(CheckpointLayerTest, RngResumesItsExactStream) {
  Rng a(42);
  for (int i = 0; i < 100; ++i) a.NextGaussian();  // park a spare gaussian

  std::ostringstream out;
  CheckpointWriter w(&out);
  a.SaveState(w);
  ASSERT_TRUE(w.ok());

  Rng b(7);  // different seed: state must come from the checkpoint alone
  std::istringstream in(out.str());
  CheckpointReader r(&in);
  ASSERT_TRUE(b.LoadState(r));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
    EXPECT_EQ(a.NextGaussian(), b.NextGaussian());
  }
}

TEST(CheckpointLayerTest, ReservoirResumesExactAcceptanceSequence) {
  ReservoirSample a(16, 5);
  Rng data(9);
  std::vector<double> row(3);
  for (int i = 0; i < 200; ++i) {
    for (double& v : row) v = data.NextDouble();
    a.Add(row);
  }

  std::ostringstream out;
  CheckpointWriter w(&out);
  a.SaveState(w);
  ReservoirSample b(16, 999);
  std::istringstream in(out.str());
  CheckpointReader r(&in);
  ASSERT_TRUE(b.LoadState(r));
  EXPECT_EQ(a.Items(), b.Items());
  EXPECT_EQ(a.seen(), b.seen());
  for (int i = 0; i < 200; ++i) {
    for (double& v : row) v = data.NextDouble();
    a.Add(row);
    b.Add(row);
  }
  EXPECT_EQ(a.Items(), b.Items());
}

TEST(CheckpointLayerTest, ReservoirRejectsCapacityMismatch) {
  ReservoirSample a(16, 5);
  std::ostringstream out;
  CheckpointWriter w(&out);
  a.SaveState(w);
  ReservoirSample b(8, 5);
  std::istringstream in(out.str());
  CheckpointReader r(&in);
  EXPECT_FALSE(b.LoadState(r));
}

// One-cell grid images, written field by field in the layout the grids'
// SaveState writes, holding the cell at `coords`.
std::string ProjectedGridImage(const Subspace& s, const CellCoords& coords) {
  std::ostringstream out;
  CheckpointWriter w(&out);
  w.U64(s.bits());
  w.U64(7);    // last_tick
  w.U64(0);    // arrivals_since_compaction
  w.F64(1.0);  // sumsq
  w.U64(7);    // sumsq_tick
  w.U64(1);    // hash_probes
  w.U64(1);    // cells
  w.Coords(coords);
  w.F64(1.0);  // record: count, ls[k], ss[k], tick
  for (std::size_t i = 0; i < 2 * coords.size(); ++i) w.F64(0.5);
  w.F64(7.0);
  return out.str();
}

std::string BaseGridImage(const CellCoords& coords) {
  std::ostringstream out;
  CheckpointWriter w(&out);
  w.U64(7);    // last_tick
  w.U64(0);    // arrivals_since_compaction
  w.F64(1.0);  // total weight counter: weight, last tick, seen
  w.U64(7);
  w.Bool(true);
  w.U64(1);    // cells
  w.Coords(coords);
  w.F64(1.0);  // Bcs: count, tick, dims, ls[dims], ss[dims]
  w.U64(7);
  w.U64(coords.size());
  for (std::size_t i = 0; i < 2 * coords.size(); ++i) w.F64(0.5);
  return out.str();
}

TEST(CheckpointLayerTest, GridsRefuseCellCoordinatesOutsideThePartition) {
  // Five cells per dimension: coordinate 4 is the last cell, 5 is past it.
  // Width 1 and 2 grids are direct-addressed (5 and 25 keys); width 4 grids
  // (625 keys) are hashed, and would silently keep such a cell.
  for (const std::size_t width : {1u, 2u, 4u}) {
    const Partition part(static_cast<int>(width), 5, 0.0, 1.0);
    std::vector<int> dims(width);
    for (std::size_t d = 0; d < width; ++d) dims[d] = static_cast<int>(d);
    const Subspace s = Subspace::FromIndices(dims);
    for (const std::uint32_t coord : {4u, 5u, 0xFFFFFFFFu}) {
      SCOPED_TRACE(testing::Message() << "width " << width << " coord "
                                      << coord);
      CellCoords coords(width, 0);
      coords.back() = coord;
      const bool valid = coord < 5;
      ProjectedGrid projected(s, &part, DecayModel(100, 0.01));
      std::istringstream pin(ProjectedGridImage(s, coords));
      CheckpointReader pr(&pin);
      EXPECT_EQ(projected.LoadState(pr), valid);
      BaseGrid base(part, DecayModel(100, 0.01));
      std::istringstream bin(BaseGridImage(coords));
      CheckpointReader br(&bin);
      EXPECT_EQ(base.LoadState(br), valid);
      if (valid) {
        EXPECT_EQ(projected.PopulatedCells(), 1u);
        EXPECT_EQ(base.PopulatedCells(), 1u);
      }
    }
  }
}

TEST(CheckpointLayerTest, PageHinkleyResumesAccumulatedStatistic) {
  PageHinkley a(0.01, 4.0);
  Rng noise(3);
  for (int i = 0; i < 500; ++i) a.Add(noise.NextBernoulli(0.05) ? 1.0 : 0.0);

  std::ostringstream out;
  CheckpointWriter w(&out);
  a.SaveState(w);
  PageHinkley b(9.9, 9.9);  // parameters come from the checkpoint
  std::istringstream in(out.str());
  CheckpointReader r(&in);
  ASSERT_TRUE(b.LoadState(r));
  EXPECT_EQ(a.statistic(), b.statistic());
  EXPECT_EQ(a.mean(), b.mean());
  for (int i = 0; i < 300; ++i) {
    const double x = noise.NextBernoulli(0.4) ? 1.0 : 0.0;
    EXPECT_EQ(a.Add(x), b.Add(x)) << "step " << i;
  }
  EXPECT_EQ(a.drifts(), b.drifts());
}

}  // namespace
}  // namespace spot
