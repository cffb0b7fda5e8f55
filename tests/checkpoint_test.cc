// Tests of the binary full-state checkpoint (src/core/checkpoint.h): a
// save → load → Process run must be bit-identical to an uninterrupted one —
// same verdict labels, findings, scores (exact double equality) and same
// SpotStats counters — including checkpoints taken right before runs that
// cross CS self-evolution, OS growth, drift-relearn and compaction
// boundaries, and regardless of the shard count on either side of the
// save/load — that a save onto a full disk fails cleanly, keeping the
// previous image, that a single flipped bit anywhere in an image is refused,
// that fixed-seed mutations of an image are refused or, resealed, load to a
// state that saves canonically, that an image with an out-of-bound shard
// count or retained-point capacity is refused, and that grid
// images with cells outside the partition are refused. The ASan/UBSan CI
// job runs this binary.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/detector.h"
#include "core/drift_detector.h"
#include "core/reservoir.h"
#include "eval/presets.h"
#include "grid/projected_grid.h"
#include "grid/synapse_manager.h"
#include "learning/sst.h"
#include "mutations.h"
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
  return det.SaveState();
}

bool LoadFromString(SpotDetector* det, const std::string& bytes) {
  return det->LoadState(bytes);
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

/// Recomputes an image's trailing CRC-32 over every earlier byte, so an
/// edit to the body reaches the parser instead of being refused by the
/// checksum.
void Reseal(std::string* image) {
  const std::size_t body = image->size() - 4;
  ByteWriter crc;
  crc.U32(Crc32(image->data(), body));
  image->replace(body, 4, crc.bytes());
}

// Images of any other format version must be refused outright: v1 lacks
// topk_capacity, feedback_rounds and the top-k window, v2 the CRC, v3
// carries base-cell records where v4 has only the total-weight counter, and
// guessing defaults for them would silently fork the verdict stream the
// checkpoint promises to reproduce. Every forgery is resealed, so the
// version check, not the checksum, is what refuses it.
TEST(CheckpointTest, RejectsOtherFormatVersions) {
  const auto training = TrainingBatch(5, 200);
  auto det = LearnedDetector(EventfulConfig(), training);
  std::string bytes = SaveToString(*det);

  // The format version is the byte right after the 8-byte header magic.
  for (const char version : {char{0}, char{1}, char{2}, char{3}, char{5}}) {
    std::string forged = bytes;
    forged[8] = version;
    Reseal(&forged);
    SpotDetector victim{SpotConfig{}};
    EXPECT_FALSE(LoadFromString(&victim, forged))
        << "accepted format version " << static_cast<int>(version);
    EXPECT_FALSE(victim.learned());
  }
  // Control: resealing an unmodified image keeps it loadable.
  Reseal(&bytes);
  SpotDetector control{SpotConfig{}};
  EXPECT_TRUE(LoadFromString(&control, bytes));
}

// The config's shard count is bounded: an image whose num_shards exceeds
// SpotConfig::kMaxShards — forged into the config section and resealed, so
// the checksum passes — is refused at load, before any batch could size
// its shard plan from it. The bound itself still loads. Nothing here
// processes a batch at a forged count.
TEST(CheckpointTest, RefusesShardCountAboveTheBound) {
  const auto training = TrainingBatch(5, 200);
  auto det = LearnedDetector(EventfulConfig(), training);
  const std::string bytes = SaveToString(*det);
  // The config section follows the 8-byte magic and the version byte, and
  // ends with num_shards and then the seed, one u64 each.
  ByteWriter section;
  WriteConfigBinary(section, det->config());
  const std::size_t at = 9 + section.bytes().size() - 16;
  ByteReader field(bytes.data() + at, 8);
  ASSERT_EQ(field.U64(), det->config().num_shards);
  const auto forge = [&](std::uint64_t shards) {
    ByteWriter forged_field;
    forged_field.U64(shards);
    std::string forged = bytes;
    forged.replace(at, 8, forged_field.bytes());
    Reseal(&forged);
    return forged;
  };
  for (const std::uint64_t shards :
       {std::uint64_t{SpotConfig::kMaxShards + 1}, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    SpotDetector victim{SpotConfig{}};
    EXPECT_FALSE(LoadFromString(&victim, forge(shards)))
        << "accepted num_shards " << shards;
    EXPECT_FALSE(victim.learned());
  }
  SpotDetector control{SpotConfig{}};
  ASSERT_TRUE(LoadFromString(&control, forge(SpotConfig::kMaxShards)));
  EXPECT_EQ(control.num_shards(), SpotConfig::kMaxShards);
}

// The config's retained-point capacities are bounded too: an image whose
// reservoir_capacity or topk_capacity is forged far past
// SpotConfig::kMaxRetainedPoints and resealed is refused at load, before the
// reservoir or the top-k window is rebuilt from it.
TEST(CheckpointTest, RefusesRetainedCapacitiesAboveTheBound) {
  const auto training = TrainingBatch(5, 200);
  auto det = LearnedDetector(EventfulConfig(), training);
  const std::string bytes = SaveToString(*det);
  // A field's offset is where the config section first differs from one
  // written with that field's every byte changed; the section follows the
  // 8-byte magic and the version byte.
  ByteWriter plain;
  WriteConfigBinary(plain, det->config());
  const auto offset_of = [&](std::size_t SpotConfig::*field) {
    SpotConfig changed = det->config();
    changed.*field = ~(changed.*field);
    ByteWriter other;
    WriteConfigBinary(other, changed);
    const std::string& a = plain.bytes();
    return 9 + static_cast<std::size_t>(
                   std::mismatch(a.begin(), a.end(), other.bytes().begin())
                       .first -
                   a.begin());
  };
  for (std::size_t SpotConfig::*field :
       {&SpotConfig::reservoir_capacity, &SpotConfig::topk_capacity}) {
    const std::size_t at = offset_of(field);
    ByteReader stored(bytes.data() + at, 8);
    ASSERT_EQ(stored.U64(), det->config().*field);
    ByteWriter forged_field;
    forged_field.U64(std::uint64_t{1} << 40);
    std::string forged = bytes;
    forged.replace(at, 8, forged_field.bytes());
    Reseal(&forged);
    SpotDetector victim{SpotConfig{}};
    EXPECT_FALSE(LoadFromString(&victim, forged)) << "field at byte " << at;
    EXPECT_FALSE(victim.learned());
  }
}

// Since v3 the image ends with the CRC-32 of every earlier byte, checked
// before anything is parsed: a single flipped bit anywhere — header, config,
// cell records, trailer or the CRC itself — is refused, and the refused
// load leaves a previously learned detector unlearned.
TEST(CheckpointTest, RefusesEverySingleBitFlip) {
  const auto training = TrainingBatch(5, 200);
  const auto stream = DriftingEvalStream(5, 600, 6);
  auto det = LearnedDetector(EventfulConfig(), training);
  Drive(det.get(), stream, 0, 600, 32);
  const std::string image = SaveToString(*det);
  ASSERT_GT(image.size(), 4096u);

  const std::size_t total_bits = image.size() * 8;
  std::vector<std::size_t> bits;
  // Every bit of the header (magic + version byte) and of the trailer
  // magic + CRC.
  for (std::size_t b = 0; b < 9 * 8; ++b) bits.push_back(b);
  for (std::size_t b = total_bits - 12 * 8; b < total_bits; ++b) {
    bits.push_back(b);
  }
  // 401 more spread evenly over the image, cycling through bit positions.
  for (std::size_t i = 0; i < 401; ++i) {
    bits.push_back(i * (total_bits / 401) + i % 8);
  }

  SpotDetector victim{SpotConfig{}};
  for (const std::size_t bit : bits) {
    ASSERT_TRUE(LoadFromString(&victim, image));
    std::string flipped = image;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(LoadFromString(&victim, flipped))
        << "loaded with bit " << bit << " of " << total_bits << " flipped";
    EXPECT_FALSE(victim.learned());
  }
}

// In-tree mutation fuzzing of checkpoint images, with the mutator the wire
// codecs get in protocol_test (truncations, byte overwrites, u32 nudges,
// splices with another image, range deletions and duplications, multi-byte
// flips) over a learned, driven image. Sealed, every mutation is refused
// and leaves a learned victim unlearned. Resealed, so that the parser's own
// bounds rather than the CRC meet it, each one is either refused the same
// way or it loads, and then the loaded state saves an image that loads
// again and re-saves to the same bytes. The image is over 80 KB, so the
// deterministic mutations keep every kStride-th position and the random
// ones run kRounds rounds, which keeps the run within seconds under the
// sanitizers.
TEST(CheckpointTest, MutatedImagesAreRefusedOrLoadCanonically) {
  constexpr std::size_t kStride = 4099;
  constexpr int kRounds = 60;
  const auto training = TrainingBatch(5, 200);
  const auto stream = DriftingEvalStream(5, 600, 6);
  auto det = LearnedDetector(EventfulConfig(), training);
  const std::string other = SaveToString(*det);  // learned, not yet driven
  Drive(det.get(), stream, 0, 600, 32);
  const std::string image = SaveToString(*det);
  // The victim is relearned before every load from this smaller image.
  const std::string learned = SaveToString(
      *LearnedDetector(eval::FastTestConfig(), TrainingBatch(2, 40)));

  Rng rng(20261021);
  SpotDetector victim{SpotConfig{}};
  std::size_t sealed = 0;
  std::size_t loaded = 0;
  std::size_t refused = 0;
  ForEachMutation(
      image, other, &rng,
      [&](const std::string& m) {
        if (m != image && m != other) {
          ++sealed;
          ASSERT_TRUE(LoadFromString(&victim, learned));
          EXPECT_FALSE(LoadFromString(&victim, m))
              << "loaded a sealed mutation of " << m.size() << " bytes";
          EXPECT_FALSE(victim.learned());
        }
        if (m.size() < 4) return;
        std::string resealed = m;
        Reseal(&resealed);
        ASSERT_TRUE(LoadFromString(&victim, learned));
        if (!LoadFromString(&victim, resealed)) {
          ++refused;
          EXPECT_FALSE(victim.learned());
          return;
        }
        ++loaded;
        const std::string saved = SaveToString(victim);
        SpotDetector again{SpotConfig{}};
        ASSERT_TRUE(LoadFromString(&again, saved))
            << "a loaded mutation of " << m.size() << " bytes saved an "
            << "image that does not load";
        EXPECT_EQ(SaveToString(again), saved);
      },
      kStride, kRounds);
  EXPECT_GT(sealed, 400u);
  EXPECT_GT(refused, 200u);
  EXPECT_GT(loaded, 100u);
}

// ------------------------------------------------- per-layer round trips --

TEST(CheckpointLayerTest, RngResumesItsExactStream) {
  Rng a(42);
  for (int i = 0; i < 100; ++i) a.NextGaussian();  // park a spare gaussian

  ByteWriter w;
  a.SaveState(w);

  Rng b(7);  // different seed: state must come from the checkpoint alone
  ByteReader r(w.bytes());
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

  ByteWriter w;
  a.SaveState(w);
  ReservoirSample b(16, 999);
  ByteReader r(w.bytes());
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
  ByteWriter w;
  a.SaveState(w);
  ReservoirSample b(8, 5);
  ByteReader r(w.bytes());
  EXPECT_FALSE(b.LoadState(r));
}

// A one-cell grid image, written field by field in the layout
// ProjectedGrid::SaveState writes, holding the cell at `coords`.
std::string ProjectedGridImage(const Subspace& s, const CellCoords& coords) {
  ByteWriter w;
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
  return w.Take();
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
      const std::string pin = ProjectedGridImage(s, coords);
      ByteReader pr(pin);
      EXPECT_EQ(projected.LoadState(pr), valid);
      if (valid) {
        EXPECT_EQ(projected.PopulatedCells(), 1u);
      }
    }
  }
}

// The base level of the synapses is the total-weight counter alone: with
// no grid tracked, a manager's image depends on the arrival ticks only, not
// on which base cells the points fell in. N points in one cell and N points
// spread over many cells, at the same ticks, give byte-identical images.
TEST(CheckpointLayerTest, SynapseImageCarriesNoBaseCells) {
  const Partition part(4, 5, 0.0, 1.0);
  const DecayModel model(100, 0.01);
  SynapseManager one_cell(part, model);
  SynapseManager spread(part, model);
  Rng rng(8);
  for (std::uint64_t t = 0; t < 300; ++t) {
    one_cell.Add({0.1, 0.1, 0.1, 0.1}, t);
    spread.Add({rng.NextDouble(), rng.NextDouble(), rng.NextDouble(),
                rng.NextDouble()},
               t);
  }
  ByteWriter a;
  one_cell.SaveState(a);
  ByteWriter b;
  spread.SaveState(b);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(one_cell.TotalWeight(), spread.TotalWeight());

  SynapseManager restored(part, model);
  ByteReader r(b.bytes());
  ASSERT_TRUE(restored.LoadState(r));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.TotalWeight(), spread.TotalWeight());
  EXPECT_EQ(restored.last_tick(), 299u);
}

// A NaN subspace score has no place in the SST's (score, subspace)
// ranking, so an image that reloaded with one saved in an order that
// depended on the hash map's history: resealed, such an image loaded, but
// its save loaded again and re-saved to other bytes. The SST now refuses
// the score; a finite one, however extreme, still loads.
TEST(CheckpointLayerTest, SstRefusesNanScores) {
  const auto image = [](double score) {
    Sst sst(4, 4);
    sst.SetFixed({Subspace(0b1)});
    sst.AddClustering(Subspace(0b11), 0.5);
    sst.AddOutlierDriven(Subspace(0b110), score);
    ByteWriter w;
    sst.SaveState(w);
    return w.Take();
  };
  for (const double score :
       {std::numeric_limits<double>::quiet_NaN(), -std::nan("7")}) {
    const std::string bytes = image(score);
    ByteReader r(bytes);
    Sst loaded(4, 4);
    EXPECT_FALSE(loaded.LoadState(r));
  }
  for (const double score :
       {0.25, std::numeric_limits<double>::infinity(), -1e308}) {
    const std::string bytes = image(score);
    ByteReader r(bytes);
    Sst loaded(4, 4);
    ASSERT_TRUE(loaded.LoadState(r)) << score;
    ByteWriter again;
    loaded.SaveState(again);
    EXPECT_EQ(again.bytes(), bytes) << score;
  }
}

TEST(CheckpointLayerTest, PageHinkleyResumesAccumulatedStatistic) {
  PageHinkley a(0.01, 4.0);
  Rng noise(3);
  for (int i = 0; i < 500; ++i) a.Add(noise.NextBernoulli(0.05) ? 1.0 : 0.0);

  ByteWriter w;
  a.SaveState(w);
  PageHinkley b(9.9, 9.9);  // parameters come from the checkpoint
  ByteReader r(w.bytes());
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
