// Tests of the observability layer (src/obs/, DESIGN.md Section 9): the
// log2 histogram's bucket boundaries and quantile accuracy guarantee
// (within one power-of-two bucket of the exact nearest-rank order
// statistic), exact and associative merging, the registry / snapshot /
// hub plumbing, the obs::Stage scope (one interval feeding the histogram,
// the trace span and the perf totals), the Prometheus text renderer, and
// the standalone HTTP exporter over a real socket.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/exposition.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/stage.h"
#include "obs/trace.h"

namespace spot {
namespace obs {
namespace {

// ---------------------------------------------------------------- buckets --

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 is [0, 1]; bucket i is (2^(i-1), 2^i].
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0000001), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0000001), 2);
  EXPECT_EQ(Histogram::BucketIndex(3.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(4.0), 2);
  EXPECT_EQ(Histogram::BucketIndex(5.0), 3);
  // Exact powers of two land in the bucket they close.
  for (int k = 1; k < 62; ++k) {
    const double v = std::ldexp(1.0, k);  // 2^k
    EXPECT_EQ(Histogram::BucketIndex(v), k) << "2^" << k;
    EXPECT_EQ(Histogram::BucketIndex(std::nextafter(v, 1e300)), k + 1)
        << "just above 2^" << k;
  }
  // Degenerate inputs fall into bucket 0; huge ones into the overflow.
  EXPECT_EQ(Histogram::BucketIndex(-7.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);

  // Bounds are consistent with the index mapping.
  for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketUpperBound(i)), i);
    if (i > 0) {
      EXPECT_EQ(Histogram::BucketLowerBound(i),
                Histogram::BucketUpperBound(i - 1));
    }
  }
}

TEST(HistogramTest, MomentsAndEmptyBehaviour) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(10.0);
  h.Record(30.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 40.0);
  EXPECT_EQ(h.mean(), 20.0);
  EXPECT_EQ(h.min(), 10.0);
  EXPECT_EQ(h.max(), 30.0);
}

// --------------------------------------------------------------- quantile --

/// Exact nearest-rank order statistic — the semantics Histogram::Quantile
/// estimates (NOT the linearly interpolated spot::Quantile, which can
/// straddle two buckets).
double NearestRank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = 0;
  if (q > 0.0) {
    const double scaled = std::ceil(q * static_cast<double>(n)) - 1.0;
    rank = std::min<std::size_t>(
        n - 1, static_cast<std::size_t>(std::max(0.0, scaled)));
  }
  return v[rank];
}

TEST(HistogramTest, QuantileWithinOneBucketOfExact) {
  Rng rng(20260808);
  for (int trial = 0; trial < 30; ++trial) {
    Histogram h;
    std::vector<double> sample;
    const int n = 1 + rng.NextInt(0, 2000);
    for (int i = 0; i < n; ++i) {
      // Mix scales so every few buckets get hit: uniform exponent, then
      // uniform mantissa — plus occasional sub-1 values for bucket 0.
      const double v =
          rng.NextDouble() < 0.1
              ? rng.NextDouble()
              : std::ldexp(1.0 + rng.NextDouble(), rng.NextInt(0, 20));
      h.Record(v);
      sample.push_back(v);
    }
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const double exact = NearestRank(sample, q);
      const double est = h.Quantile(q);
      if (exact <= 1.0) {
        EXPECT_LE(std::fabs(est - exact), 1.0) << "q=" << q << " n=" << n;
      } else {
        // Same bucket => within a factor of two.
        EXPECT_GE(est, exact / 2.0) << "q=" << q << " n=" << n;
        EXPECT_LE(est, exact * 2.0) << "q=" << q << " n=" << n;
      }
    }
    // The estimate never escapes the observed range.
    EXPECT_GE(h.Quantile(0.0), h.min());
    EXPECT_LE(h.Quantile(1.0), h.max());
  }
}

TEST(HistogramTest, SingleValueQuantilesAreExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(37.5);
  // One populated bucket, interpolation clamped to [min, max].
  EXPECT_EQ(h.Quantile(0.0), 37.5);
  EXPECT_EQ(h.Quantile(0.5), 37.5);
  EXPECT_EQ(h.Quantile(1.0), 37.5);
}

// ------------------------------------------------------------------ merge --

TEST(HistogramTest, MergeIsExactAndAssociative) {
  // Integer-valued samples: double sums compare exactly, so equality of
  // merged histograms is bit-for-bit, not approximate.
  Rng rng(99);
  Histogram a, b, c, all;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.NextInt(0, 100000);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Record(v);
    all.Record(v);
  }

  Histogram left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  Histogram bc = b;  // a + (b + c)
  bc.Merge(c);
  Histogram right = a;
  right.Merge(bc);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_EQ(left.sum(), all.sum());
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(left.bucket(i), all.bucket(i)) << "bucket " << i;
  }

  Histogram empty;
  Histogram with_empty = all;
  with_empty.Merge(empty);
  EXPECT_EQ(with_empty, all);
  empty.Merge(all);
  EXPECT_EQ(empty, all);
}

TEST(HistogramTest, RestoreRoundTrips) {
  Rng rng(7);
  Histogram h;
  for (int i = 0; i < 333; ++i) h.Record(rng.NextInt(0, 5000));
  std::uint64_t counts[Histogram::kNumBuckets];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) counts[i] = h.bucket(i);
  Histogram r;
  ASSERT_TRUE(Histogram::Restore(counts, h.sum(), h.min(), h.max(), &r));
  EXPECT_EQ(r, h);

  const std::uint64_t zeros[Histogram::kNumBuckets] = {};
  Histogram e;
  ASSERT_TRUE(Histogram::Restore(zeros, 0.0, 0.0, 0.0, &e));
  EXPECT_EQ(e, Histogram());
}

TEST(HistogramTest, RestoreRefusesPartsRecordNeverProduces) {
  // Parts no sequence of Record and Merge calls yields are refused, not
  // normalized, so a decoded histogram re-encodes to the bytes it came from.
  Histogram h;
  for (double v : {3.0, 7.0, 100.0}) h.Record(v);
  std::uint64_t counts[Histogram::kNumBuckets];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) counts[i] = h.bucket(i);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t zeros[Histogram::kNumBuckets] = {};
  struct Case {
    const char* what;
    const std::uint64_t* counts;
    double sum, min, max;
  };
  const Case cases[] = {
      {"NaN sum", counts, nan, 3.0, 100.0},
      {"NaN min", counts, 110.0, nan, 100.0},
      {"NaN max", counts, 110.0, 3.0, nan},
      {"negative sum", counts, -110.0, 3.0, 100.0},
      {"negative min", counts, 110.0, -3.0, 100.0},
      {"max below min", counts, 110.0, 7.0, 3.0},
      {"empty with a sum", zeros, 123.0, 0.0, 0.0},
      {"empty with a min", zeros, 0.0, 4.0, 0.0},
      {"empty with a max", zeros, 0.0, 0.0, 5.0},
      {"empty with -0", zeros, -0.0, 0.0, 0.0},
  };
  for (const Case& c : cases) {
    Histogram out = h;
    EXPECT_FALSE(Histogram::Restore(c.counts, c.sum, c.min, c.max, &out))
        << c.what;
    EXPECT_EQ(out, h) << c.what;  // left alone
  }
}

// --------------------------------------------------- registry / hub ------

TEST(RegistryTest, InternsStablePointersAndSnapshots) {
  Registry reg;
  Counter* c = reg.GetCounter("reqs");
  EXPECT_EQ(reg.GetCounter("reqs"), c);  // same name, same instrument
  c->Inc();
  c->Inc(4);
  reg.GetGauge("depth")->Set(3.5);
  reg.GetHistogram("lat")->Record(8.0);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("reqs"), 5u);
  EXPECT_EQ(snap.gauges.at("depth"), 3.5);
  EXPECT_EQ(snap.histograms.at("lat").count(), 1u);

  // The snapshot is a copy: later mutation does not leak into it.
  c->Inc(100);
  EXPECT_EQ(snap.counters.at("reqs"), 5u);
}

TEST(RegistryTest, SnapshotMergeAddsAndCombines) {
  MetricsSnapshot a, b;
  a.counters["x"] = 2;
  b.counters["x"] = 3;
  b.counters["only_b"] = 7;
  a.gauges["g"] = 1.0;
  b.gauges["g"] = 2.5;
  a.histograms["h"].Record(4.0);
  b.histograms["h"].Record(1000.0);
  a.Merge(b);
  EXPECT_EQ(a.counters.at("x"), 5u);
  EXPECT_EQ(a.counters.at("only_b"), 7u);
  EXPECT_EQ(a.gauges.at("g"), 3.5);
  EXPECT_EQ(a.histograms.at("h").count(), 2u);
  EXPECT_EQ(a.histograms.at("h").max(), 1000.0);
}

TEST(MetricsHubTest, PublishAndScrape) {
  MetricsHub hub(2);
  EXPECT_EQ(hub.size(), 2u);
  EXPECT_TRUE(hub.Slot(0).empty());

  MetricsSnapshot snap;
  snap.counters["n"] = 9;
  hub.Publish(0, snap);
  EXPECT_EQ(hub.Slot(0).counters.at("n"), 9u);
  EXPECT_TRUE(hub.Slot(1).empty());

  snap.counters["n"] = 11;  // republish overwrites, not accumulates
  hub.Publish(0, snap);
  EXPECT_EQ(hub.Slot(0).counters.at("n"), 11u);

  hub.Publish(7, snap);  // out of range: ignored, not UB
  const std::vector<MetricsSnapshot> all = hub.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].counters.at("n"), 11u);
}

// ------------------------------------------------------------------ stage --

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(StageTest, OneIntervalFeedsHistogramSpanAndPerfClock) {
  Histogram hist;
  TraceRecorder trace(16, /*reactor=*/2);
  PerfStageTotals totals;
  std::uint64_t elapsed_ns = 0;
  std::uint64_t start_us = 0;
  {
    Stage stage(&hist, &totals, &trace, TraceStage::kEncode);
    stage.set_units(42);
    stage.set_points(7);
    stage.set_batch(99);
    stage.set_session("tenant-0");
    SleepMs(1);
    stage.Commit();
    elapsed_ns = stage.elapsed_ns();
    start_us = stage.start_us();
  }
  EXPECT_GE(elapsed_ns, 1000000u);

  ASSERT_EQ(hist.count(), 1u);
  const double sample = hist.sum();
  EXPECT_DOUBLE_EQ(sample, static_cast<double>(elapsed_ns) / 1e3);

  const std::vector<TraceEvent> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, TraceStage::kEncode);
  EXPECT_EQ(spans[0].dur_us, static_cast<std::uint64_t>(std::floor(sample)));
  EXPECT_EQ(spans[0].ts_us, start_us);
  EXPECT_EQ(spans[0].points, 7u);
  EXPECT_EQ(spans[0].batch_id, 99u);
  EXPECT_EQ(spans[0].session, "tenant-0");
  EXPECT_EQ(spans[0].reactor, 2u);

  EXPECT_EQ(totals.samples, 1u);
  EXPECT_EQ(totals.units, 42u);
  EXPECT_EQ(totals.clock_ns, elapsed_ns);
}

TEST(StageTest, CancelTouchesNoSink) {
  Histogram hist;
  TraceRecorder trace(16);
  PerfStageTotals totals;
  {
    Stage stage(&hist, &totals, &trace, TraceStage::kDecode);
    stage.set_units(42);
    stage.Cancel();
  }
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_TRUE(trace.Snapshot().empty());
  EXPECT_EQ(totals.samples, 0u);
  EXPECT_EQ(totals.units, 0u);
  EXPECT_EQ(totals.clock_ns, 0u);
}

TEST(StageTest, CommitEndsTheWindowEarlyAndLandsExactlyOnce) {
  Histogram hist;
  TraceRecorder trace(16);
  PerfStageTotals totals;
  std::uint64_t committed_ns = 0;
  {
    Stage stage(&hist, &totals, &trace, TraceStage::kCoalesce);
    stage.set_units(7);
    SleepMs(1);
    stage.Commit();
    committed_ns = totals.clock_ns;
    // Work after Commit() must not be attributed to the stage, and neither
    // a second Commit() nor the destructor may feed the sinks again.
    SleepMs(2);
    stage.Commit();
    EXPECT_EQ(stage.elapsed_ns(), committed_ns);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(trace.Snapshot().size(), 1u);
  EXPECT_EQ(totals.samples, 1u);
  EXPECT_EQ(totals.units, 7u);
  EXPECT_EQ(totals.clock_ns, committed_ns);
  EXPECT_GT(committed_ns, 0u);
}

TEST(StageTest, NullSinksAreNoOps) {
  // A histogram alone: one sample of the elapsed microseconds.
  Histogram hist;
  { Stage stage(&hist); }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.min(), 0.0);

  // Nothing attached: nothing to feed, nothing to crash on.
  { Stage stage(nullptr); }
  PerfStageTotals totals;
  {
    Stage stage(nullptr, nullptr);
    stage.set_units(9);
    stage.set_session("no-recorder");
  }
  EXPECT_EQ(totals.samples, 0u);
  EXPECT_EQ(totals.clock_ns, 0u);
  {
    Stage stage(nullptr, nullptr, nullptr);
    stage.set_units(9);
  }
}

TEST(StageTest, ScopesNestIndependently) {
  // The reactor's process stage encloses the engine's scopes on the same
  // thread; each must feed its own window into its own sinks.
  Histogram outer_hist;
  Histogram inner_hist;
  PerfStageTotals outer_totals;
  PerfStageTotals inner_totals;
  {
    Stage outer(&outer_hist, &outer_totals);
    outer.set_units(10);
    SleepMs(1);
    {
      Stage inner(&inner_hist, &inner_totals);
      inner.set_units(3);
      SleepMs(1);
    }
    SleepMs(1);
  }
  EXPECT_EQ(outer_totals.samples, 1u);
  EXPECT_EQ(inner_totals.samples, 1u);
  EXPECT_EQ(outer_totals.units, 10u);
  EXPECT_EQ(inner_totals.units, 3u);
  ASSERT_EQ(outer_hist.count(), 1u);
  ASSERT_EQ(inner_hist.count(), 1u);
  // The outer window contains the inner one, and each scope's histogram
  // sample is its own perf clock.
  EXPECT_GT(outer_totals.clock_ns, inner_totals.clock_ns);
  EXPECT_DOUBLE_EQ(outer_hist.sum(),
                   static_cast<double>(outer_totals.clock_ns) / 1e3);
  EXPECT_DOUBLE_EQ(inner_hist.sum(),
                   static_cast<double>(inner_totals.clock_ns) / 1e3);
}

TEST(StageTest, ReactorStageNamesDeriveFromTheTraceStage) {
  std::vector<std::string> names;
  for (const TraceStage stage : kReactorStages) {
    names.push_back(TraceStageName(stage));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"decode", "coalesce", "process",
                                             "encode", "write"}));
  EXPECT_EQ(StageHistogramName(TraceStage::kCoalesce),
            "pipeline_coalesce_us");
  EXPECT_EQ(StagePerfLabels(TraceStage::kWrite), "stage=\"write\"");
}

// ------------------------------------------------------------- exposition --

TEST(ExpositionTest, RendersPrometheusTextWithLabels) {
  MetricsSnapshot r0, r1;
  r0.counters["points_ingested"] = 100;
  r1.counters["points_ingested"] = 50;
  r0.gauges["connections"] = 2;
  r0.histograms["pipeline_process_us"].Record(10.0);
  r0.histograms["pipeline_process_us"].Record(300.0);
  MetricsSnapshot global;
  global.counters["checkpoints_written"] = 1;

  const std::string text = RenderPrometheus(
      {{"reactor=\"0\"", r0}, {"reactor=\"1\"", r1}, {"", global}});

  EXPECT_NE(text.find("# TYPE spot_points_ingested counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("spot_points_ingested{reactor=\"0\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("spot_points_ingested{reactor=\"1\"} 50\n"),
            std::string::npos);
  EXPECT_NE(text.find("spot_checkpoints_written 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spot_pipeline_process_us histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "spot_pipeline_process_us_bucket{reactor=\"0\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("spot_pipeline_process_us_count{reactor=\"0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("spot_pipeline_process_us_sum{reactor=\"0\"} 310\n"),
            std::string::npos);
  // Exactly one TYPE line per family even though two sections carry it.
  std::size_t type_lines = 0;
  for (std::size_t pos = text.find("# TYPE spot_points_ingested");
       pos != std::string::npos;
       pos = text.find("# TYPE spot_points_ingested", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(ExpositionTest, EmbeddedLabelsMergeAfterTheSectionLabel) {
  // Registry keys may embed labels in the name (`perf_cpu_ns{stage=...}`,
  // DESIGN.md Section 12); the renderer must split them back out, put the
  // section label first, and still emit exactly one TYPE line per family.
  MetricsSnapshot r0, r1;
  r0.counters["perf_cpu_ns{stage=\"decode\"}"] = 100;
  r0.counters["perf_cpu_ns{stage=\"process\"}"] = 900;
  r1.counters["perf_cpu_ns{stage=\"decode\"}"] = 50;
  r0.gauges["stage_load{stage=\"decode\"}"] = 1.5;
  MetricsSnapshot svc;
  svc.counters["perf_cpu_ns{stage=\"probe\",engine_shard=\"2\"}"] = 7;

  const std::string text = RenderPrometheus(
      {{"reactor=\"0\"", r0}, {"reactor=\"1\"", r1}, {"shard=\"0\"", svc}});

  EXPECT_NE(
      text.find("spot_perf_cpu_ns{reactor=\"0\",stage=\"decode\"} 100\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("spot_perf_cpu_ns{reactor=\"0\",stage=\"process\"} 900\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("spot_perf_cpu_ns{reactor=\"1\",stage=\"decode\"} 50\n"),
      std::string::npos);
  EXPECT_NE(text.find("spot_perf_cpu_ns{shard=\"0\",stage=\"probe\","
                      "engine_shard=\"2\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("spot_stage_load{reactor=\"0\",stage=\"decode\"} 1.5\n"),
            std::string::npos);
  // One TYPE line for the whole spot_perf_cpu_ns family despite four
  // series across three sections, and the gauge typed independently.
  std::size_t type_lines = 0;
  for (std::size_t pos = text.find("# TYPE spot_perf_cpu_ns counter");
       pos != std::string::npos;
       pos = text.find("# TYPE spot_perf_cpu_ns counter", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  EXPECT_NE(text.find("# TYPE spot_stage_load gauge\n"), std::string::npos);
  // A braced key must never leak into an exposition name verbatim.
  EXPECT_EQ(text.find("spot_perf_cpu_ns{stage=\"decode\"}{"),
            std::string::npos);
}

TEST(ExpositionTest, CumulativeBucketsAreMonotonic) {
  Rng rng(5);
  MetricsSnapshot snap;
  Histogram* h = &snap.histograms["lat"];
  for (int i = 0; i < 400; ++i) {
    h->Record(std::ldexp(1.0 + rng.NextDouble(), rng.NextInt(0, 12)));
  }
  const std::string text = RenderPrometheus({{"", snap}});
  // Parse the _bucket series back and check the cumulative invariant.
  std::uint64_t prev = 0;
  std::size_t buckets_seen = 0;
  std::size_t pos = 0;
  while ((pos = text.find("spot_lat_bucket{", pos)) != std::string::npos) {
    const std::size_t sp = text.find(' ', pos);
    const std::size_t nl = text.find('\n', sp);
    const std::uint64_t cum = std::strtoull(
        text.substr(sp + 1, nl - sp - 1).c_str(), nullptr, 10);
    EXPECT_GE(cum, prev);
    prev = cum;
    ++buckets_seen;
    pos = nl;
  }
  EXPECT_GT(buckets_seen, 2u);
  EXPECT_EQ(prev, h->count());  // the +Inf bucket equals the total count
}

TEST(ExpositionTest, SummaryLineNamesEveryInstrument) {
  MetricsSnapshot snap;
  snap.counters["batches_run"] = 12;
  snap.gauges["connections"] = 3;
  snap.histograms["pipeline_process_us"].Record(100.0);
  const std::string line = SummaryLine(snap);
  EXPECT_NE(line.find("batches_run=12"), std::string::npos);
  EXPECT_NE(line.find("connections=3"), std::string::npos);
  EXPECT_NE(line.find("pipeline_process_us=1/"), std::string::npos);
}

// The journal and the flight recorder render names through the one
// escaper: quotes and backslashes escaped, control bytes as \u00XX, every
// other byte as is.
TEST(ExpositionTest, AppendJsonStringEscapesQuotesBackslashesAndControls) {
  std::string out = "x";
  AppendJsonString(&out, "a\"b\\c\n\x01\x1f d\x7f");
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\u000a\\u0001\\u001f d\x7f\"");
  out.clear();
  AppendJsonString(&out, "");
  EXPECT_EQ(out, "\"\"");
}

// ----------------------------------------------------------- quantiles ----

TEST(QuantilesTest, MatchesSingleQuantileCalls) {
  Rng rng(13);
  std::vector<double> v;
  for (int i = 0; i < 777; ++i) v.push_back(rng.NextDouble() * 1e4);
  const std::vector<double> qs = {0.0, 0.25, 0.5, 0.95, 0.99, 1.0};
  const std::vector<double> multi = Quantiles(v, qs);
  ASSERT_EQ(multi.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(multi[i], Quantile(v, qs[i])) << "q=" << qs[i];
  }
  const std::vector<double> empty = Quantiles({}, qs);
  ASSERT_EQ(empty.size(), qs.size());
  for (const double x : empty) EXPECT_EQ(x, 0.0);
}

// -------------------------------------------------------- http exporter ---

/// One blocking HTTP/1.0 request against the exporter, returning the full
/// response (headers + body).
std::string HttpGet(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                             MSG_NOSIGNAL);
    EXPECT_GT(n, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporterTest, ServesMetricsAndRejectsUnknownPaths) {
  HttpExporter exporter("127.0.0.1", 0, [] {
    MetricsSnapshot snap;
    snap.counters["points_ingested"] = 42;
    return RenderPrometheus({{"reactor=\"0\"", snap}});
  });
  std::string error;
  ASSERT_TRUE(exporter.Start(&error)) << error;
  ASSERT_GT(exporter.port(), 0);

  const std::string ok =
      HttpGet(exporter.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(ok.find("spot_points_ingested{reactor=\"0\"} 42\n"),
            std::string::npos);

  const std::string not_found =
      HttpGet(exporter.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(not_found.find("404"), std::string::npos);

  const std::string bad_method =
      HttpGet(exporter.port(), "PUT /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(bad_method.find("405"), std::string::npos);

  exporter.Stop();
  exporter.Stop();  // idempotent
}

TEST(HttpExporterTest, AddRouteServesExtraPathsWithOwnContentType) {
  HttpExporter exporter("127.0.0.1", 0, [] { return std::string("prom"); });
  exporter.AddRoute("/trace", [] {
    return std::string("{\"traceEvents\":[]}");
  });
  std::string error;
  ASSERT_TRUE(exporter.Start(&error)) << error;

  // The default renderer answers both / and /metrics.
  const std::string root = HttpGet(exporter.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_NE(root.find("200 OK"), std::string::npos);
  EXPECT_NE(root.find("prom"), std::string::npos);

  const std::string trace =
      HttpGet(exporter.port(), "GET /trace HTTP/1.0\r\n\r\n");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("{\"traceEvents\":[]}"), std::string::npos);

  // Query strings are stripped before the exact-path match; unknown paths
  // still 404.
  const std::string with_query =
      HttpGet(exporter.port(), "GET /trace?pretty=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(with_query.find("200 OK"), std::string::npos);
  const std::string unknown =
      HttpGet(exporter.port(), "GET /tracer HTTP/1.0\r\n\r\n");
  EXPECT_NE(unknown.find("404"), std::string::npos);
  exporter.Stop();
}

TEST(HttpExporterTest, SlowReadingClientCannotWedgeTheExporter) {
  // Regression: the exporter serves connections serially, so a scraper
  // that accepts the response one sip at a time used to reset the
  // per-send timeout on every sip and hold the thread hostage for as
  // long as it cared to trickle. One deadline now bounds the whole
  // exchange. The body must dwarf the socket buffers so the sender
  // actually blocks on the slow reader.
  const std::string big_body(16 * 1024 * 1024, 'm');
  HttpExporter exporter("127.0.0.1", 0,
                        [&big_body] { return big_body; });
  exporter.set_response_deadline_ms(300);
  std::string error;
  ASSERT_TRUE(exporter.Start(&error)) << error;

  // The trickle client: request /metrics, then read one byte every 20 ms
  // without ever draining the socket.
  std::thread slow([port = exporter.port()] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return;
    }
    const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
    (void)!::send(fd, req, sizeof(req) - 1, MSG_NOSIGNAL);
    char byte;
    for (int i = 0; i < 100; ++i) {
      if (::recv(fd, &byte, 1, 0) <= 0) break;  // server gave up on us
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::close(fd);
  });

  // Give the trickle client time to occupy the serve loop, then scrape
  // normally: the full body must arrive promptly once the deadline cuts
  // the slow client off.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  const std::string response =
      HttpGet(exporter.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  slow.join();

  EXPECT_LT(elapsed_s, 10.0) << "fast scraper waited behind a slow reader";
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  // The Content-Length promise curl relies on, and a body that keeps it.
  const std::string want_len =
      "Content-Length: " + std::to_string(big_body.size());
  EXPECT_NE(response.find(want_len), std::string::npos);
  const std::size_t header_end = response.find("\r\n\r\n");
  ASSERT_NE(header_end, std::string::npos);
  EXPECT_EQ(response.size() - header_end - 4, big_body.size());
  exporter.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace spot
