// Tests of the SpotService session manager (src/service/spot_service.h):
// interleaved multi-session routing, LRU eviction to disk with transparent
// reload (a session's verdict sequence must be independent of how often it
// was evicted), kill/restore via OpenSession, eviction onto a full disk,
// attachment, concurrent callers on one service, and the metrics registry.
// The ASan/UBSan and TSan CI jobs run this binary.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "eval/presets.h"
#include "net/protocol.h"
#include "service/spot_service.h"
#include "stream/drift.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

/// Fresh per-test checkpoint directory under the gtest temp root.
std::string MakeCheckpointDir(const char* tag) {
  const std::string dir = testing::TempDir() + "spot_service_" + tag;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

SpotConfig SessionConfig() {
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 300;
  return cfg;
}

/// Tenant `t`'s private stream: a distinct cluster concept per tenant, so
/// cross-session state leakage would change verdicts.
std::vector<LabeledPoint> TenantStream(int t, int n, std::uint64_t salt) {
  stream::SyntheticConfig scfg;
  scfg.dimension = 6;
  scfg.outlier_probability = 0.02;
  scfg.concept_seed = 100 + static_cast<std::uint64_t>(t);
  scfg.seed = 7000 + salt;
  stream::GaussianStream gen(scfg);
  return Take(gen, static_cast<std::size_t>(n));
}

std::vector<std::vector<double>> TenantTraining(int t) {
  stream::SyntheticConfig scfg;
  scfg.dimension = 6;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = 100 + static_cast<std::uint64_t>(t);
  scfg.seed = 8000 + static_cast<std::uint64_t>(t);
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, 300));
}

std::vector<DataPoint> Chunk(const std::vector<LabeledPoint>& stream,
                             std::size_t begin, std::size_t end) {
  std::vector<DataPoint> out;
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end && i < stream.size(); ++i) {
    out.push_back(stream[i].point);
  }
  return out;
}

void ExpectSameVerdicts(const std::vector<SpotResult>& a,
                        const std::vector<SpotResult>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].is_outlier, b[i].is_outlier) << label << " point " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " point " << i;
    ASSERT_EQ(a[i].findings.size(), b[i].findings.size())
        << label << " point " << i;
    for (std::size_t f = 0; f < a[i].findings.size(); ++f) {
      EXPECT_EQ(a[i].findings[f].subspace.bits(),
                b[i].findings[f].subspace.bits())
          << label << " point " << i;
    }
  }
}

TEST(SessionIdTest, ValidatesFilenameSafety) {
  EXPECT_TRUE(SpotService::ValidSessionId("tenant-a"));
  EXPECT_TRUE(SpotService::ValidSessionId("Sensor_12.north"));
  EXPECT_FALSE(SpotService::ValidSessionId(""));
  EXPECT_FALSE(SpotService::ValidSessionId(".hidden"));
  EXPECT_FALSE(SpotService::ValidSessionId("../escape"));
  EXPECT_FALSE(SpotService::ValidSessionId("a/b"));
  EXPECT_FALSE(SpotService::ValidSessionId("white space"));
  EXPECT_FALSE(SpotService::ValidSessionId(std::string(200, 'x')));
}

// The headline acceptance test: three interleaved sessions on a service
// that can hold only two resident, so every round trips LRU eviction +
// transparent reload — and each session's verdicts must equal a dedicated
// standalone detector fed the same stream uninterrupted.
TEST(SpotServiceTest, InterleavedSessionsSurviveLruEvictionBitIdentically) {
  const std::string dir = MakeCheckpointDir("lru");
  const int kTenants = 3;
  const std::size_t kBatch = 64;
  const std::size_t kBatches = 8;

  SpotServiceConfig scfg;
  scfg.max_resident = 2;  // < kTenants: forces continuous eviction traffic
  scfg.checkpoint_dir = dir;
  SpotService service(scfg);

  // Reference: one standalone detector per tenant, never evicted.
  std::vector<std::unique_ptr<SpotDetector>> reference;
  std::vector<std::vector<LabeledPoint>> streams;
  for (int t = 0; t < kTenants; ++t) {
    streams.push_back(TenantStream(t, static_cast<int>(kBatch * kBatches), 1));
    reference.push_back(std::make_unique<SpotDetector>(SessionConfig()));
    ASSERT_TRUE(reference.back()->Learn(TenantTraining(t)));
    const std::string id = "tenant-" + std::to_string(t);
    ASSERT_TRUE(service.CreateSession(id, SessionConfig(), TenantTraining(t)));
  }

  for (std::size_t b = 0; b < kBatches; ++b) {
    for (int t = 0; t < kTenants; ++t) {
      const std::string id = "tenant-" + std::to_string(t);
      const auto batch = Chunk(streams[t], b * kBatch, (b + 1) * kBatch);
      const auto expected = reference[t]->ProcessBatch(batch);
      const IngestResult got = service.Ingest(id, batch);
      ASSERT_TRUE(got.ok) << id << " batch " << b;
      ExpectSameVerdicts(expected, got.verdicts,
                         id + " batch " + std::to_string(b));
    }
  }

  const ServiceMetrics total = service.TotalMetrics();
  EXPECT_EQ(total.sessions, static_cast<std::size_t>(kTenants));
  EXPECT_LE(total.resident_sessions, 2u);
  EXPECT_GT(total.evictions, 0u) << "LRU eviction never triggered";
  EXPECT_GT(total.reloads, 0u) << "transparent reload never triggered";
  EXPECT_EQ(total.points_processed,
            static_cast<std::uint64_t>(kTenants) * kBatch * kBatches);

  for (int t = 0; t < kTenants; ++t) {
    SessionMetrics m;
    ASSERT_TRUE(service.GetMetrics("tenant-" + std::to_string(t), &m));
    EXPECT_EQ(m.stats.points_processed, kBatch * kBatches);
    EXPECT_EQ(m.stats.outliers_detected,
              reference[t]->stats().outliers_detected);
    EXPECT_EQ(m.batches_ingested, kBatches);
  }
}

// Kill/restore: a second service instance on the same checkpoint dir picks
// the sessions up via OpenSession and continues them bit-identically.
TEST(SpotServiceTest, KillAndRestoreContinuesBitIdentically) {
  const std::string dir = MakeCheckpointDir("restore");
  const auto stream = TenantStream(0, 1200, 2);
  const auto training = TenantTraining(0);

  SpotDetector reference(SessionConfig());
  ASSERT_TRUE(reference.Learn(training));
  reference.ProcessBatch(Chunk(stream, 0, 600));

  std::vector<SpotResult> continued;
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    SpotService service(scfg);
    ASSERT_TRUE(service.CreateSession("victim", SessionConfig(), training));
    ASSERT_TRUE(service.Ingest("victim", Chunk(stream, 0, 600)).ok);
    ASSERT_TRUE(service.CheckpointAll());
    // Service destroyed here: the "kill".
  }
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    SpotService service(scfg);
    EXPECT_FALSE(service.HasSession("victim"));
    ASSERT_TRUE(service.OpenSession("victim"));
    EXPECT_FALSE(service.OpenSession("victim"));  // duplicate
    const IngestResult got = service.Ingest("victim", Chunk(stream, 600, 1200));
    ASSERT_TRUE(got.ok);
    continued = got.verdicts;

    SessionMetrics m;
    ASSERT_TRUE(service.GetMetrics("victim", &m));
    EXPECT_EQ(m.stats.points_processed, 1200u);  // counters survived the kill
  }
  const auto expected = reference.ProcessBatch(Chunk(stream, 600, 1200));
  ExpectSameVerdicts(expected, continued, "restored service");
}

// A full disk at eviction time (`<id>.ckpt.tmp` symlinked to /dev/full):
// the ingest that needs the slot is refused, the victim stays resident and
// keeps producing the verdicts of an undisturbed service, and once the
// disk has room the refused ingest succeeds exactly as it would have.
TEST(SpotServiceTest, FullDiskEvictionIsRefusedAndRetriesIdentically) {
  const std::string dir = MakeCheckpointDir("full_disk");
  const std::string tmp = dir + "/victim.ckpt.tmp";
  std::remove(tmp.c_str());
  SpotServiceConfig scfg;
  scfg.max_resident = 1;
  scfg.checkpoint_dir = dir;
  SpotService service(scfg);
  SpotServiceConfig ref_cfg = scfg;
  ref_cfg.checkpoint_dir = MakeCheckpointDir("full_disk_ref");
  SpotService undisturbed(ref_cfg);

  const auto victim_stream = TenantStream(0, 300, 5);
  const auto other_stream = TenantStream(1, 100, 6);
  const auto other_batch = Chunk(other_stream, 0, 100);
  for (SpotService* s : {&service, &undisturbed}) {
    ASSERT_TRUE(s->CreateSession("other", SessionConfig(), TenantTraining(1)));
    // Admitting the victim evicts "other" to disk.
    ASSERT_TRUE(
        s->CreateSession("victim", SessionConfig(), TenantTraining(0)));
  }
  auto ingest_both = [&](const std::string& id,
                         const std::vector<DataPoint>& batch,
                         const std::string& label) {
    const IngestResult got = service.Ingest(id, batch);
    const IngestResult expected = undisturbed.Ingest(id, batch);
    ASSERT_TRUE(got.ok) << label;
    ASSERT_TRUE(expected.ok) << label;
    ExpectSameVerdicts(expected.verdicts, got.verdicts, label);
  };
  ingest_both("victim", Chunk(victim_stream, 0, 100), "victim before");

  if (::symlink("/dev/full", tmp.c_str()) != 0) {
    GTEST_SKIP() << "cannot symlink " << tmp << " to /dev/full";
  }
  // Reloading "other" must evict the victim onto the full disk.
  const IngestResult refused = service.Ingest("other", other_batch);
  EXPECT_FALSE(refused.ok);
  EXPECT_TRUE(refused.verdicts.empty());
  EXPECT_TRUE(service.IsResident("victim"));
  EXPECT_FALSE(service.IsResident("other"));
  struct stat st;
  EXPECT_NE(::lstat(tmp.c_str(), &st), 0) << "failed save left " << tmp;
  ingest_both("victim", Chunk(victim_stream, 100, 200), "victim on full disk");

  std::remove(tmp.c_str());  // the disk has room again
  ingest_both("other", other_batch, "refused ingest retried");
  EXPECT_FALSE(service.IsResident("victim"));
  // The victim's image written after the failure reloads bit-identically.
  ingest_both("victim", Chunk(victim_stream, 200, 300), "victim reloaded");
  EXPECT_EQ(service.TotalMetrics().evictions,
            undisturbed.TotalMetrics().evictions);
  EXPECT_EQ(service.TotalMetrics().reloads,
            undisturbed.TotalMetrics().reloads);
}

// The shared pool: many sessions, sharded batches on the process's one
// worker pool — verdicts still equal the sequential standalone reference.
TEST(SpotServiceTest, SharedPoolShardsBatchesWithoutChangingVerdicts) {
  const std::string dir = MakeCheckpointDir("pool");
  SpotServiceConfig scfg;
  scfg.max_resident = 2;
  scfg.num_shards = 4;
  scfg.checkpoint_dir = dir;
  SpotService service(scfg);

  for (int t = 0; t < 3; ++t) {
    const std::string id = "shard-tenant-" + std::to_string(t);
    ASSERT_TRUE(service.CreateSession(id, SessionConfig(), TenantTraining(t)));
  }
  for (int t = 0; t < 3; ++t) {
    const std::string id = "shard-tenant-" + std::to_string(t);
    const auto stream = TenantStream(t, 512, 3);
    SpotDetector reference(SessionConfig());
    ASSERT_TRUE(reference.Learn(TenantTraining(t)));
    for (std::size_t b = 0; b < 4; ++b) {
      const auto batch = Chunk(stream, b * 128, (b + 1) * 128);
      const auto expected = reference.ProcessBatch(batch);
      const IngestResult got = service.Ingest(id, batch);
      ASSERT_TRUE(got.ok);
      ExpectSameVerdicts(expected, got.verdicts, id);
    }
  }
}

TEST(SpotServiceTest, RefusesOverCapacityWithoutCheckpointDir) {
  SpotServiceConfig scfg;
  scfg.max_resident = 1;  // and no checkpoint_dir: eviction impossible
  SpotService service(scfg);
  ASSERT_TRUE(service.CreateSession("only", SessionConfig(),
                                    TenantTraining(0)));
  EXPECT_FALSE(service.CreateSession("too-many", SessionConfig(),
                                     TenantTraining(1)));
  EXPECT_TRUE(service.HasSession("only"));
  EXPECT_FALSE(service.HasSession("too-many"));
  EXPECT_FALSE(service.Evict("only"));  // nowhere to evict to
  EXPECT_TRUE(service.IsResident("only"));
}

// A failed admission (failed Learn, missing checkpoint file) must not cost
// a resident session its slot: the fallible step runs BEFORE any eviction.
TEST(SpotServiceTest, FailedAdmissionEvictsNobody) {
  const std::string dir = MakeCheckpointDir("failed_admission");
  SpotServiceConfig scfg;
  scfg.max_resident = 1;
  scfg.checkpoint_dir = dir;
  SpotService service(scfg);
  ASSERT_TRUE(service.CreateSession("hot", SessionConfig(),
                                    TenantTraining(0)));
  ASSERT_TRUE(service.IsResident("hot"));

  // Learn() fails on an empty training batch.
  EXPECT_FALSE(service.CreateSession("bad-training", SessionConfig(), {}));
  EXPECT_TRUE(service.IsResident("hot"));

  // No checkpoint file exists for this id.
  EXPECT_FALSE(service.OpenSession("no-such-checkpoint"));
  EXPECT_TRUE(service.IsResident("hot"));
}

TEST(SpotServiceTest, RejectsUnknownAndInvalidSessions) {
  SpotService service(SpotServiceConfig{});
  EXPECT_FALSE(service.Ingest("ghost", std::vector<DataPoint>{}).ok);
  EXPECT_FALSE(service.CreateSession("bad/id", SessionConfig(),
                                     TenantTraining(0)));
  EXPECT_FALSE(service.OpenSession("ghost"));
  EXPECT_FALSE(service.Checkpoint("ghost"));
  EXPECT_FALSE(service.CloseSession("ghost"));
  SessionMetrics m;
  EXPECT_FALSE(service.GetMetrics("ghost", &m));
  EXPECT_FALSE(service.CreateSession("dup", SessionConfig(),
                                     TenantTraining(0)) &&
               service.CreateSession("dup", SessionConfig(),
                                     TenantTraining(0)));
}

// Service routing of the feedback & query plane (DESIGN.md Section 11):
// ApplyFeedback/QueryTopK reach the session's detector — including a
// session that was LRU-evicted to disk in between — and behave exactly
// like the detector called directly.
TEST(SpotServiceTest, RoutesFeedbackAndTopKThroughEvictionBitIdentically) {
  const std::string dir = MakeCheckpointDir("feedback");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  scfg.max_resident = 1;  // every alternation forces an eviction round trip
  SpotService service(scfg);
  ASSERT_TRUE(service.CreateSession("a", SessionConfig(), TenantTraining(0)));
  ASSERT_TRUE(service.CreateSession("b", SessionConfig(), TenantTraining(1)));

  SpotDetector reference{SessionConfig()};
  ASSERT_TRUE(reference.Learn(TenantTraining(0)));

  const auto stream = TenantStream(0, 600, 1);
  const auto decoy = TenantStream(1, 600, 2);
  std::vector<SpotResult> got, want;
  for (std::size_t i = 0; i < 600; i += 100) {
    const std::vector<DataPoint> batch = Chunk(stream, i, i + 100);
    const IngestResult r = service.Ingest("a", batch);
    ASSERT_TRUE(r.ok);
    got.insert(got.end(), r.verdicts.begin(), r.verdicts.end());
    for (auto& v : reference.ProcessBatch(batch)) want.push_back(v);
    // Touch the other session so "a" is evicted before its feedback.
    ASSERT_TRUE(service.Ingest("b", Chunk(decoy, i, i + 100)).ok);
    ASSERT_FALSE(service.IsResident("a"));

    std::vector<TopKEntry> top;
    ASSERT_TRUE(service.QueryTopK("a", 4, &top));
    const auto ref_top = reference.QueryTopK(4);
    ASSERT_EQ(top.size(), ref_top.size());
    for (std::size_t e = 0; e < top.size(); ++e) {
      EXPECT_EQ(top[e].point_id, ref_top[e].point_id);
      EXPECT_EQ(top[e].decayed_score, ref_top[e].decayed_score);
    }
    std::vector<std::uint64_t> ids;
    for (const TopKEntry& e : top) ids.push_back(e.point_id);
    std::string error;
    const bool ok =
        service.ApplyFeedback("a", ids, {batch.front().values}, &error);
    EXPECT_EQ(ok, reference.ApplyFeedback(ids, {batch.front().values}))
        << error;
  }
  ExpectSameVerdicts(got, want, "feedback through eviction");

  SessionMetrics m;
  ASSERT_TRUE(service.GetMetrics("a", &m));
  EXPECT_EQ(m.stats.feedback_rounds, reference.stats().feedback_rounds);
  EXPECT_GT(m.stats.feedback_rounds, 0u);

  // Unknown sessions are refused with a named cause.
  std::string error;
  EXPECT_FALSE(service.ApplyFeedback("ghost", {}, {{1.0}}, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
  std::vector<TopKEntry> top;
  EXPECT_FALSE(service.QueryTopK("ghost", 4, &top, &error));
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
}

TEST(SpotServiceTest, CloseWithoutPersistDiscardsAndWithPersistKeeps) {
  const std::string dir = MakeCheckpointDir("close");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  SpotService service(scfg);
  ASSERT_TRUE(service.CreateSession("a", SessionConfig(), TenantTraining(0)));
  ASSERT_TRUE(service.CreateSession("b", SessionConfig(), TenantTraining(1)));
  ASSERT_TRUE(service.CloseSession("a", /*persist=*/true));
  ASSERT_TRUE(service.CloseSession("b", /*persist=*/false));
  EXPECT_FALSE(service.HasSession("a"));
  // "a" was persisted: a new service can reopen it. "b" was not.
  EXPECT_TRUE(service.OpenSession("a"));
  EXPECT_FALSE(service.OpenSession("b"));
}

// The service's totals are lifetime counters: sessions closed with or
// without a final checkpoint still count, and a session reopened from a
// checkpoint adds only the points it processes after reopening.
TEST(SpotServiceTest, TotalsSurviveClosedSessions) {
  const std::string dir = MakeCheckpointDir("totals");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  const std::size_t kM = 256;  // points in "c"'s checkpoint
  const std::size_t kK = 192;  // points "c" processes after reopening
  const auto reopened_stream =
      TenantStream(2, static_cast<int>(kM + kK), 5);
  {
    SpotService earlier(scfg);
    ASSERT_TRUE(
        earlier.CreateSession("c", SessionConfig(), TenantTraining(2)));
    ASSERT_TRUE(earlier.Ingest("c", Chunk(reopened_stream, 0, kM)).ok);
    ASSERT_TRUE(earlier.CloseSession("c", /*persist=*/true));
  }

  // Abrupt concept shifts with drift detection on, so the drift total is
  // checked against a non-zero reference.
  SpotConfig cfg = SessionConfig();
  cfg.drift_detection = true;
  cfg.drift_lambda = 8.0;
  SpotService service(scfg);
  SpotStats want;
  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    stream::DriftConfig dcfg;
    dcfg.base.dimension = 6;
    dcfg.base.outlier_probability = 0.02;
    dcfg.base.concept_seed = 100 + static_cast<std::uint64_t>(t);
    dcfg.base.seed = 6100 + static_cast<std::uint64_t>(t);
    dcfg.kind = stream::DriftKind::kAbrupt;
    dcfg.period = 300;
    stream::DriftingStream gen(dcfg);
    const auto points = Take(gen, 900);
    SpotDetector reference(cfg);
    ASSERT_TRUE(reference.Learn(TenantTraining(t)));
    ASSERT_TRUE(service.CreateSession(id, cfg, TenantTraining(t)));
    for (std::size_t b = 0; b < points.size(); b += 100) {
      const auto batch = Chunk(points, b, b + 100);
      reference.ProcessBatch(batch);
      ASSERT_TRUE(service.Ingest(id, batch).ok) << id;
    }
    want.points_processed += reference.stats().points_processed;
    want.outliers_detected += reference.stats().outliers_detected;
    want.drifts_detected += reference.stats().drifts_detected;
    ASSERT_TRUE(service.CloseSession(id, /*persist=*/t == 0));
  }
  ASSERT_GT(want.outliers_detected, 0u);
  ASSERT_GT(want.drifts_detected, 0u);
  ServiceMetrics total = service.TotalMetrics();
  EXPECT_EQ(total.sessions, 0u);
  EXPECT_EQ(total.points_processed, want.points_processed);
  EXPECT_EQ(total.outliers_detected, want.outliers_detected);
  EXPECT_EQ(total.drifts_detected, want.drifts_detected);

  ASSERT_TRUE(service.OpenSession("c"));
  SessionMetrics m;
  ASSERT_TRUE(service.GetMetrics("c", &m));
  EXPECT_EQ(m.stats.points_processed, kM);
  ASSERT_TRUE(service.Ingest("c", Chunk(reopened_stream, kM, kM + kK)).ok);
  total = service.TotalMetrics();
  EXPECT_EQ(total.sessions, 1u);
  EXPECT_EQ(total.points_processed, want.points_processed + kK);
}

// Points whose width disagrees with the session's trained dimensionality
// must be refused whole (never partially processed): they would index out
// of the partition. This is the service-level guard the network ingest
// layer relies on for wire batches.
TEST(SpotServiceTest, RejectsWrongWidthPoints) {
  SpotServiceConfig scfg;
  SpotService service(scfg);
  ASSERT_TRUE(service.CreateSession("a", SessionConfig(),
                                    TenantTraining(0)));  // 6-dim
  EXPECT_FALSE(service.Ingest("a", {{1.0, 2.0}}).ok);
  EXPECT_FALSE(
      service.Ingest("a", std::vector<std::vector<double>>{{}}).ok);
  std::vector<DataPoint> mixed = Chunk(TenantStream(0, 4, 9), 0, 4);
  mixed.back().values.push_back(0.5);  // one ragged point poisons the batch
  EXPECT_FALSE(service.Ingest("a", mixed).ok);
  SessionMetrics m;
  ASSERT_TRUE(service.GetMetrics("a", &m));
  EXPECT_EQ(m.stats.points_processed, 0u);  // nothing leaked through
  EXPECT_TRUE(service.Ingest("a", Chunk(TenantStream(0, 4, 9), 0, 4)).ok);
}

// An in-process caller can hand CreateSession a ragged training matrix
// (a wire create is rectangular by encoding). Learn refuses it, so no
// session is created and the id stays free for a well-formed create.
TEST(SpotServiceTest, RefusesRaggedTrainingAtCreate) {
  SpotService service{SpotServiceConfig{}};
  auto training = TenantTraining(0);
  training[100].resize(2);
  EXPECT_FALSE(service.CreateSession("a", SessionConfig(), training));
  EXPECT_FALSE(service.HasSession("a"));
  EXPECT_FALSE(service.Ingest("a", Chunk(TenantStream(0, 50, 24), 0, 50)).ok);
  ASSERT_TRUE(service.CreateSession("a", SessionConfig(), TenantTraining(0)));
  EXPECT_TRUE(service.Ingest("a", Chunk(TenantStream(0, 50, 24), 0, 50)).ok);
}

// A NaN or infinite coordinate is refused in the width guard's pass,
// before the detector sees any point of the batch, so the session goes on
// exactly as a reference that never received the batch.
TEST(SpotServiceTest, RejectsNonFinitePointsWithoutStateChange) {
  SpotService service{SpotServiceConfig{}};
  SpotService reference{SpotServiceConfig{}};
  for (SpotService* s : {&service, &reference}) {
    ASSERT_TRUE(s->CreateSession("a", SessionConfig(), TenantTraining(0)));
  }
  const auto stream = TenantStream(0, 400, 21);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    std::vector<DataPoint> poisoned = Chunk(stream, 0, 50);
    poisoned[17].values[3] = bad;
    EXPECT_FALSE(service.Ingest("a", poisoned).ok) << bad;
  }
  SessionMetrics m;
  ASSERT_TRUE(service.GetMetrics("a", &m));
  EXPECT_EQ(m.stats.points_processed, 0u);
  const IngestResult got = service.Ingest("a", Chunk(stream, 0, 400));
  const IngestResult want = reference.Ingest("a", Chunk(stream, 0, 400));
  ASSERT_TRUE(got.ok);
  ASSERT_TRUE(want.ok);
  ExpectSameVerdicts(got.verdicts, want.verdicts, "after refused batches");
}

// A NaN epsilon used to pass Validate(): the session was created and
// served, then evicted by the next create, and its checkpoint never
// loaded again (the stored epsilon compares unequal to itself), so every
// later Ingest failed on the reload. The create is refused now.
TEST(SpotServiceTest, NanEpsilonSessionIsNeverCreated) {
  SpotServiceConfig scfg;
  scfg.max_resident = 1;
  scfg.checkpoint_dir = MakeCheckpointDir("nan_epsilon");
  SpotService service(scfg);
  SpotConfig bad = SessionConfig();
  bad.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(service.CreateSession("a", bad, TenantTraining(0)));
  EXPECT_FALSE(service.HasSession("a"));
  ASSERT_TRUE(service.CreateSession("b", SessionConfig(), TenantTraining(1)));
  EXPECT_FALSE(service.Ingest("a", Chunk(TenantStream(0, 50, 22), 0, 50)).ok);
  EXPECT_TRUE(service.Ingest("b", Chunk(TenantStream(1, 50, 23), 0, 50)).ok);
}

// Attachment: a session carries at most one owner. Create can attach it,
// another owner is refused and told who holds it, the holder re-attaches
// idempotently, a detach by anyone else changes nothing, and a session
// only on disk is reopened by the attach itself.
TEST(SpotServiceTest, AttachmentIsExclusiveAndReopensFromDisk) {
  const std::string dir = MakeCheckpointDir("attach");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  {
    SpotService service(scfg);
    ASSERT_TRUE(service.CreateSession("a", SessionConfig(), TenantTraining(0),
                                      nullptr, /*owner=*/7));
    bool taken = false;
    EXPECT_FALSE(service.CreateSession("a", SessionConfig(),
                                       TenantTraining(0), nullptr, 8, &taken));
    EXPECT_TRUE(taken);
    std::uint64_t holder = 0;
    EXPECT_FALSE(service.AttachSession("a", 8, &holder));
    EXPECT_EQ(holder, 7u);
    EXPECT_TRUE(service.AttachSession("a", 7));  // the holder again
    service.DetachSession("a", 8);                // not the holder: no-op
    EXPECT_FALSE(service.AttachSession("a", 8, &holder));
    service.DetachSession("a", 7);
    EXPECT_TRUE(service.AttachSession("a", 8));
    EXPECT_FALSE(service.AttachSession("ghost", 8, &holder));
    EXPECT_EQ(holder, 0u);
    ASSERT_TRUE(service.CheckpointAll());
  }
  SpotService restarted(scfg);
  EXPECT_FALSE(restarted.HasSession("a"));
  EXPECT_TRUE(restarted.AttachSession("a", 9));
  EXPECT_TRUE(restarted.IsResident("a"));
  std::uint64_t holder = 0;
  EXPECT_FALSE(restarted.AttachSession("a", 10, &holder));
  EXPECT_EQ(holder, 9u);
}

/// Everything one tenant's caller saw: verdict bytes, top-k answers and
/// feedback outcomes, in call order.
struct TenantTranscript {
  std::string verdicts;
  std::string topk;
  std::string feedback;
};

constexpr std::size_t kConcurrentBatch = 64;
constexpr std::size_t kConcurrentBatches = 6;

/// The serial reference: a standalone detector fed tenant `t`'s batches,
/// a top-4 query after each and a feedback round after every third.
TenantTranscript SerialTranscript(int t) {
  SpotDetector detector(SessionConfig());
  EXPECT_TRUE(detector.Learn(TenantTraining(t)));
  const auto stream =
      TenantStream(t, static_cast<int>(kConcurrentBatch * kConcurrentBatches),
                   40 + static_cast<std::uint64_t>(t));
  TenantTranscript out;
  for (std::size_t b = 0; b < kConcurrentBatches; ++b) {
    const auto batch =
        Chunk(stream, b * kConcurrentBatch, (b + 1) * kConcurrentBatch);
    out.verdicts += net::VerdictBytes(detector.ProcessBatch(batch));
    const std::vector<TopKEntry> top = detector.QueryTopK(4);
    out.topk += net::TopKBytes(top);
    if (b % 3 == 2) {
      std::vector<std::uint64_t> ids;
      for (const TopKEntry& e : top) ids.push_back(e.point_id);
      out.feedback +=
          detector.ApplyFeedback(ids, {batch.front().values}) ? '1' : '0';
    }
  }
  return out;
}

// Four callers stream their own sessions through ONE service at the same
// time — creates (Learn) included — while the service can hold only two
// resident, so evictions and reloads interleave with other sessions'
// detector work, and a fifth thread scrapes every reader throughout. Each
// session's verdicts, top-k answers and feedback outcomes must equal a
// serial standalone reference, byte for byte.
TEST(SpotServiceTest, ConcurrentSessionsMatchSerialReference) {
  const int kTenants = 4;
  std::vector<TenantTranscript> want;
  for (int t = 0; t < kTenants; ++t) want.push_back(SerialTranscript(t));

  SpotServiceConfig scfg;
  scfg.max_resident = 2;  // < kTenants: eviction traffic under concurrency
  scfg.checkpoint_dir = MakeCheckpointDir("concurrent");
  SpotService service(scfg);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      SessionMetrics m;
      for (int t = 0; t < kTenants; ++t) {
        service.GetMetrics("tenant-" + std::to_string(t), &m);
      }
      const ServiceMetrics total = service.TotalMetrics();
      EXPECT_LE(total.resident_sessions, scfg.max_resident);
      std::size_t quality_sessions = 0;
      for (const auto& [label, section] : service.QualitySnapshot()) {
        if (label.find(",subspace=") == std::string::npos) {
          ++quality_sessions;
        }
      }
      EXPECT_LE(quality_sessions, static_cast<std::size_t>(kTenants));
      service.ObsSnapshot();
      ++scrapes;
    }
  });

  std::vector<TenantTranscript> got(kTenants);
  std::atomic<int> created{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kTenants; ++t) {
    callers.emplace_back([&, t] {
      const std::string id = "tenant-" + std::to_string(t);
      const bool ok =
          service.CreateSession(id, SessionConfig(), TenantTraining(t));
      // Stream only once every session exists: at least two of them are
      // then on disk, so reloads interleave with the other callers'
      // batches whatever the scheduling.
      ++created;
      while (created.load() < kTenants) std::this_thread::yield();
      ASSERT_TRUE(ok) << id;
      const auto stream = TenantStream(
          t, static_cast<int>(kConcurrentBatch * kConcurrentBatches),
          40 + static_cast<std::uint64_t>(t));
      for (std::size_t b = 0; b < kConcurrentBatches; ++b) {
        const auto batch =
            Chunk(stream, b * kConcurrentBatch, (b + 1) * kConcurrentBatch);
        const IngestResult r = service.Ingest(id, batch);
        ASSERT_TRUE(r.ok) << id << " batch " << b;
        got[t].verdicts += net::VerdictBytes(r.verdicts);
        std::vector<TopKEntry> top;
        ASSERT_TRUE(service.QueryTopK(id, 4, &top));
        got[t].topk += net::TopKBytes(top);
        if (b % 3 == 2) {
          std::vector<std::uint64_t> ids;
          for (const TopKEntry& e : top) ids.push_back(e.point_id);
          got[t].feedback +=
              service.ApplyFeedback(id, ids, {batch.front().values}) ? '1'
                                                                      : '0';
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  done.store(true);
  scraper.join();

  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(got[t].verdicts, want[t].verdicts) << "tenant " << t;
    EXPECT_EQ(got[t].topk, want[t].topk) << "tenant " << t;
    EXPECT_EQ(got[t].feedback, want[t].feedback) << "tenant " << t;
  }
  const ServiceMetrics total = service.TotalMetrics();
  EXPECT_EQ(total.sessions, static_cast<std::size_t>(kTenants));
  EXPECT_GT(total.evictions, 0u) << "no eviction interleaved";
  EXPECT_GT(total.reloads, 0u) << "no reload interleaved";
  EXPECT_EQ(total.points_processed,
            kTenants * kConcurrentBatch * kConcurrentBatches);
  EXPECT_GT(scrapes.load(), 0u);
}

// Detector work runs outside the table lock: while one caller's
// CreateSession is inside a long Learn(), an Ingest on another session
// returns. (A service that learned under its lock would hold the Ingest
// until the Learn finished.)
// Grid compaction counters are not checkpointed, so a reloaded detector's
// restart at 0. The service counts each session's compactions as deltas
// from the detector it installed, so a service that reloads a session on
// every batch journals the same grid_compaction events, and reports the
// same per-session totals, as one that never evicts. The tracked set is
// fixed (no OS growth, evolution or drift), so no Untrack shrinks a total,
// and the sweeps run every 64 arrivals so every batch compacts.
TEST(SpotServiceTest, CompactionCountsSurviveEviction) {
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 0;
  cfg.evolution_period = 0;
  cfg.drift_detection = false;
  cfg.compaction_period = 64;
  const int kTenants = 2;
  const std::size_t kBatch = 200;
  const std::size_t kBatches = 10;

  using Event = std::tuple<std::string, std::uint64_t, std::uint64_t, double>;
  std::vector<std::vector<Event>> events;  // per service, in journal order
  std::vector<std::vector<std::uint64_t>> totals;  // per service
  for (const std::size_t max_resident : {2, 1}) {
    SpotServiceConfig scfg;
    scfg.max_resident = max_resident;
    scfg.checkpoint_dir =
        MakeCheckpointDir(max_resident == 2 ? "compact_r2" : "compact_r1");
    SpotService service(scfg);
    std::vector<std::vector<LabeledPoint>> streams;
    for (int t = 0; t < kTenants; ++t) {
      streams.push_back(TenantStream(t, static_cast<int>(kBatch * kBatches),
                                     21));
      ASSERT_TRUE(service.CreateSession("tenant-" + std::to_string(t), cfg,
                                        TenantTraining(t)));
    }
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (int t = 0; t < kTenants; ++t) {
        ASSERT_TRUE(service
                        .Ingest("tenant-" + std::to_string(t),
                                Chunk(streams[t], b * kBatch,
                                      (b + 1) * kBatch))
                        .ok);
      }
    }
    const ServiceMetrics metrics = service.TotalMetrics();
    if (max_resident == 1) {
      EXPECT_GE(metrics.reloads, kBatches);  // a reload on every batch
    } else {
      EXPECT_EQ(metrics.reloads, 0u);
    }
    std::vector<Event> journaled;
    for (const obs::JournalEntry& e : service.journal().Snapshot()) {
      if (e.event.kind != DetectorEventKind::kGridCompaction) continue;
      journaled.emplace_back(service.journal().SessionName(e.session),
                             e.event.tick, e.event.a, e.event.value);
    }
    events.push_back(journaled);
    std::vector<std::uint64_t> counts;
    for (const auto& [label, section] : service.QualitySnapshot()) {
      if (label.find("subspace=") != std::string::npos) continue;
      counts.push_back(section.counters.at("grid_compactions"));
      counts.push_back(section.counters.at("grid_cells_reclaimed"));
    }
    totals.push_back(counts);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GE(events[0].size(), kBatches * kTenants);
  EXPECT_EQ(events[0], events[1]);
  ASSERT_EQ(totals[0].size(), 2u * kTenants);
  EXPECT_GT(totals[0][0], 0u);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST(SpotServiceTest, IngestProceedsWhileAnotherSessionLearns) {
  SpotService service{SpotServiceConfig{}};
  ASSERT_TRUE(service.CreateSession("b", SessionConfig(), TenantTraining(1)));
  const auto batch = Chunk(TenantStream(1, 64, 9), 0, 64);

  // A Learn over a large training batch with a long MOGA search: seconds,
  // against the milliseconds of one 64-point Ingest.
  SpotConfig slow = SessionConfig();
  slow.unsupervised.moga.generations = 200;
  slow.unsupervised.moga.population_size = 64;
  stream::SyntheticConfig gen_cfg;
  gen_cfg.dimension = 6;
  gen_cfg.outlier_probability = 0.0;
  gen_cfg.concept_seed = 100;
  gen_cfg.seed = 8123;
  stream::GaussianStream gen(gen_cfg);
  const auto training = ValuesOf(Take(gen, 6000));

  std::atomic<bool> learning{false};
  std::atomic<bool> created{false};
  std::thread creator([&] {
    learning.store(true);
    EXPECT_TRUE(service.CreateSession("a", slow, training));
    created.store(true);
  });
  while (!learning.load()) std::this_thread::yield();
  // Let the creator reserve the id and enter Learn().
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  const IngestResult r = service.Ingest("b", batch);
  const double ingest_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  const bool created_before_ingest_returned = created.load();
  creator.join();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.verdicts.size(), batch.size());
  EXPECT_FALSE(created_before_ingest_returned)
      << "Ingest waited " << ingest_ms << " ms for another session's Learn";
  EXPECT_TRUE(service.HasSession("a"));
}

}  // namespace
}  // namespace spot
