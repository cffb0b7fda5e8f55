// Tests of the detector event journal (src/obs/journal.h, DESIGN.md
// Section 10): ring wraparound with honest drop accounting, global event
// ordering across interleaved sessions, session-name interning, the JSON
// rendering, and — the contract everything else rests on — that attaching
// a sink to a live detector changes neither its verdicts nor its
// checkpoint bytes while still journaling the engine's state transitions.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "core/detector.h"
#include "eval/presets.h"
#include "net/protocol.h"
#include "obs/journal.h"

namespace spot {
namespace obs {
namespace {

DetectorEvent Event(DetectorEventKind kind, std::uint64_t tick,
                    std::uint64_t a = 0) {
  DetectorEvent e;
  e.kind = kind;
  e.tick = tick;
  e.a = a;
  return e;
}

// ------------------------------------------------------------------- ring --

TEST(JournalTest, RetainsNewestWindowAfterWraparound) {
  Journal journal(8);
  const std::uint32_t s = journal.InternSession("lg-0");
  for (std::uint64_t i = 0; i < 20; ++i) {
    journal.Append(s, Event(DetectorEventKind::kEvolutionRound, i, i));
  }
  EXPECT_EQ(journal.appended(), 20u);
  EXPECT_EQ(journal.dropped(), 12u);

  const std::vector<JournalEntry> snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Oldest-first, ascending contiguous seq, and exactly the 12..19 tail.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, 12 + i);
    EXPECT_EQ(snap[i].event.tick, 12 + i);
    EXPECT_EQ(snap[i].event.a, 12 + i);
  }
}

TEST(JournalTest, NoDropsBelowCapacity) {
  Journal journal(16);
  const std::uint32_t s = journal.InternSession("a");
  for (std::uint64_t i = 0; i < 16; ++i) {
    journal.Append(s, Event(DetectorEventKind::kDriftDetected, i));
  }
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_EQ(journal.Snapshot().size(), 16u);
  journal.Append(s, Event(DetectorEventKind::kDriftDetected, 16));
  EXPECT_EQ(journal.dropped(), 1u);
  EXPECT_EQ(journal.Snapshot().front().seq, 1u);
}

TEST(JournalTest, OrderingIsGlobalAcrossSessions) {
  Journal journal(32);
  const std::uint32_t a = journal.InternSession("a");
  const std::uint32_t b = journal.InternSession("b");
  // Interleave two sessions; the journal's seq must reflect arrival order
  // regardless of which session emitted.
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.Append(i % 2 == 0 ? a : b,
                   Event(DetectorEventKind::kSstInsert, i));
  }
  const std::vector<JournalEntry> snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), 10u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].seq, i);
    EXPECT_EQ(snap[i].event.tick, i);
    EXPECT_EQ(snap[i].session, i % 2 == 0 ? a : b);
  }
}

TEST(JournalTest, InternIsIdempotentAndNamesResolve) {
  Journal journal(4);
  const std::uint32_t a = journal.InternSession("alpha");
  const std::uint32_t b = journal.InternSession("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(journal.InternSession("alpha"), a);
  EXPECT_EQ(journal.SessionName(a), "alpha");
  EXPECT_EQ(journal.SessionName(b), "beta");
  EXPECT_EQ(journal.SessionName(999), "?");
}

// ------------------------------------------------------------------- json --

TEST(JournalTest, RenderJsonCarriesCountsAndEvents) {
  Journal journal(4);
  const std::uint32_t s = journal.InternSession("sess-1");
  DetectorEvent tracked;
  tracked.kind = DetectorEventKind::kSubspaceTracked;
  tracked.tick = 7;
  tracked.subspace = Subspace(0b1001);  // dims {0, 3}
  journal.Append(s, tracked);
  journal.Append(s, Event(DetectorEventKind::kDriftDetected, 9, 2));

  const std::string json = journal.RenderJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"appended\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"sess-1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"subspace_tracked\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"drift_detected\""), std::string::npos);
  // The tracked event carries its subspace; the drift event has none and
  // must omit the key entirely rather than render an empty one.
  EXPECT_NE(json.find("\"subspace\":"), std::string::npos);
  const std::size_t drift = json.find("\"kind\":\"drift_detected\"");
  EXPECT_EQ(json.find("\"subspace\":", drift), std::string::npos);
}

TEST(JournalTest, SinkAdapterTagsItsSession) {
  Journal journal(8);
  const std::uint32_t s = journal.InternSession("tagged");
  JournalSink sink(&journal, s);
  EXPECT_EQ(sink.session(), s);
  DetectorEventSink* as_sink = &sink;
  as_sink->OnDetectorEvent(Event(DetectorEventKind::kSstClear, 42, 3));
  const std::vector<JournalEntry> snap = journal.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].session, s);
  EXPECT_EQ(snap[0].event.kind, DetectorEventKind::kSstClear);
}

// ----------------------------------------------------------- differential --

/// The detector's full serialized state as bytes.
std::string CheckpointBytes(const SpotDetector& detector) {
  return detector.SaveState();
}

TEST(JournalTest, SinkChangesNeitherVerdictsNorCheckpointBytes) {
  // Same config, training and stream through two detectors — one silent,
  // one journaled. Events are pure reporting: canonical verdict bytes and
  // checkpoint bytes must match exactly, while the journaled run actually
  // produced events (the stream is long enough to trigger OS growth and
  // evolution under FastTestConfig).
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 150;
  const std::vector<std::vector<double>> training =
      bench::MakeTraining(6, 200, /*concept_seed=*/11, /*seed=*/21);
  const std::vector<LabeledPoint> labeled = bench::MakeEvalStream(
      6, 600, /*outlier_prob=*/0.05, /*concept_seed=*/11, /*seed=*/22);

  SpotDetector silent(cfg);
  SpotDetector journaled(cfg);
  Journal journal(4096);
  JournalSink sink(&journal, journal.InternSession("diff"));
  journaled.set_event_sink(&sink);

  ASSERT_TRUE(silent.Learn(training));
  ASSERT_TRUE(journaled.Learn(training));

  std::vector<SpotResult> a, b;
  std::vector<DataPoint> batch;
  for (const LabeledPoint& p : labeled) {
    batch.push_back(p.point);
    if (batch.size() == 64) {
      const std::vector<SpotResult> ra = silent.ProcessBatch(batch);
      const std::vector<SpotResult> rb = journaled.ProcessBatch(batch);
      a.insert(a.end(), ra.begin(), ra.end());
      b.insert(b.end(), rb.begin(), rb.end());
      batch.clear();
    }
  }

  EXPECT_GT(journal.appended(), 0u) << "stream produced no events at all";
  EXPECT_EQ(net::VerdictBytes(a), net::VerdictBytes(b));
  EXPECT_EQ(CheckpointBytes(silent), CheckpointBytes(journaled));

  // Detaching mid-life is safe and the detector goes silent again.
  const std::uint64_t seen = journal.appended();
  journaled.set_event_sink(nullptr);
  for (int i = 0; i < 3; ++i) {
    journaled.ProcessBatch(std::vector<DataPoint>(
        batch.begin(), batch.end()));
  }
  EXPECT_EQ(journal.appended(), seen);
}

TEST(JournalTest, ReloadedDetectorKeepsJournaling) {
  // LoadState rebinds the sink (restores themselves are silent): a
  // detector reloaded from a checkpoint must keep emitting afterwards.
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 150;
  const std::vector<std::vector<double>> training =
      bench::MakeTraining(6, 200, /*concept_seed=*/5, /*seed=*/6);
  const std::vector<LabeledPoint> labeled = bench::MakeEvalStream(
      6, 400, /*outlier_prob=*/0.05, /*concept_seed=*/5, /*seed=*/7);

  SpotDetector detector(cfg);
  Journal journal(4096);
  JournalSink sink(&journal, journal.InternSession("reload"));
  detector.set_event_sink(&sink);
  ASSERT_TRUE(detector.Learn(training));

  std::vector<DataPoint> points;
  for (const LabeledPoint& p : labeled) points.push_back(p.point);
  detector.ProcessBatch(points);
  const std::string bytes = CheckpointBytes(detector);
  const std::uint64_t before = journal.appended();

  ASSERT_TRUE(detector.LoadState(bytes));
  EXPECT_EQ(journal.appended(), before) << "a restore must emit nothing";
  detector.ProcessBatch(points);
  EXPECT_GT(journal.appended(), before)
      << "the reloaded detector stopped journaling";
}

}  // namespace
}  // namespace obs
}  // namespace spot
