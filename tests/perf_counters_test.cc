// Tests of the hardware performance-counter profiling plane (src/obs/
// perf_counters.{h,cc}, DESIGN.md Section 12): the perf_event_open group
// wrapper and its graceful-degradation ladder (real denial, forced
// errno, bogus event config), the stage clock that keeps perf totals timed
// in every mode (the obs::Stage fold/Cancel/Commit/nesting semantics are
// in obs_test), the spot_perf_* publish helpers (raw counters + always-
// finite derived gauges), process-level gauges, and the merged-snapshot
// readers (MergedPerfMode, RenderPerfSummary) that must not trust the
// summed perf_mode gauge.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/stage.h"

namespace spot {
namespace obs {
namespace {

// Restores the real open path even when a test using the forced-errno
// seam fails mid-body.
struct ForcedErrnoGuard {
  explicit ForcedErrnoGuard(int err) {
    PerfCounterGroup::ForceOpenErrnoForTesting(err);
  }
  ~ForcedErrnoGuard() { PerfCounterGroup::ForceOpenErrnoForTesting(0); }
};

// ------------------------------------------------------------ open modes --

TEST(PerfCounterGroupTest, OpenNeverFailsAndReportsAValidMode) {
  auto group = PerfCounterGroup::Open();
  ASSERT_NE(group, nullptr);
  // Whichever way the kernel answered, the mode is one of the two live
  // rungs — never disabled (that value is reserved for "no group").
  EXPECT_TRUE(group->mode() == PerfMode::kHardware ||
              group->mode() == PerfMode::kSoftware);
}

TEST(PerfCounterGroupTest, StageClockTimesPerfTotalsInEveryMode) {
  // The group reads no clock; the obs::Stage scope folding its deltas
  // supplies clock_ns — live hardware group and software fallback alike.
  auto live = PerfCounterGroup::Open();
  ForcedErrnoGuard guard(EACCES);
  auto fallback = PerfCounterGroup::Open();
  ASSERT_EQ(fallback->mode(), PerfMode::kSoftware);
  for (PerfCounterGroup* group : {live.get(), fallback.get()}) {
    PerfStageTotals totals;
    {
      Stage stage(nullptr, group, &totals);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(totals.samples, 1u);
    EXPECT_GE(totals.clock_ns, 2000000u);
  }
}

TEST(PerfCounterGroupTest, HardwareModeCountsAreMonotone) {
  auto group = PerfCounterGroup::Open();
  if (group->mode() != PerfMode::kHardware) {
    GTEST_SKIP() << "no PMU in this environment; fallback covered below";
  }
  const PerfSample a = group->Read();
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink += static_cast<double>(i) * 0.5;
  const PerfSample b = group->Read();
  EXPECT_TRUE(b.hardware);
  EXPECT_GT(b.instructions, a.instructions);
  EXPECT_GE(b.cycles, a.cycles);
}

TEST(PerfCounterGroupTest, ForcedEaccesFallsBackToSoftware) {
  ForcedErrnoGuard guard(EACCES);
  auto group = PerfCounterGroup::Open();
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->mode(), PerfMode::kSoftware);
  const PerfSample s = group->Read();
  EXPECT_FALSE(s.hardware);
  EXPECT_EQ(s.cycles, 0u);
  EXPECT_EQ(s.instructions, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
}

TEST(PerfCounterGroupTest, BogusEventConfigFallsBackToSoftware) {
  // The other leg of the ladder: the syscall itself is reachable but the
  // event is one no PMU defines — must land in the same software mode as
  // a permission denial.
  auto group = PerfCounterGroup::OpenWithBogusConfigForTesting();
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->mode(), PerfMode::kSoftware);
  EXPECT_FALSE(group->Read().hardware);
}

TEST(PerfCounterGroupTest, ThreadPerfGroupIsPerThreadAndStable) {
  PerfCounterGroup* mine = ThreadPerfGroup();
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(ThreadPerfGroup(), mine);  // same thread: same group
  PerfCounterGroup* theirs = nullptr;
  std::thread t([&theirs] { theirs = ThreadPerfGroup(); });
  t.join();
  EXPECT_NE(theirs, nullptr);
  EXPECT_NE(theirs, mine);  // counters follow the opening thread
}

TEST(PerfStageTotalsTest, MergeAddsEveryField) {
  PerfStageTotals a;
  a.samples = 1;
  a.hw_samples = 1;
  a.units = 10;
  a.cycles = 100;
  a.instructions = 200;
  a.cache_references = 30;
  a.cache_misses = 4;
  a.branch_misses = 5;
  a.clock_ns = 1000;
  PerfStageTotals b = a;
  b.Merge(a);
  EXPECT_EQ(b.samples, 2u);
  EXPECT_EQ(b.hw_samples, 2u);
  EXPECT_EQ(b.units, 20u);
  EXPECT_EQ(b.cycles, 200u);
  EXPECT_EQ(b.instructions, 400u);
  EXPECT_EQ(b.cache_references, 60u);
  EXPECT_EQ(b.cache_misses, 8u);
  EXPECT_EQ(b.branch_misses, 10u);
  EXPECT_EQ(b.clock_ns, 2000u);
}

// --------------------------------------------------------------- publish --

TEST(PublishPerfTest, TotalsPublishRawCountersAndDerivedGauges) {
  Registry reg;
  PerfStageTotals t;
  t.samples = 2;
  t.hw_samples = 2;
  t.units = 10;
  t.cycles = 500;
  t.instructions = 1000;
  t.cache_references = 80;
  t.cache_misses = 40;
  t.branch_misses = 20;
  t.clock_ns = 12345;
  PublishPerfTotals(&reg, "stage=\"decode\"", t);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("perf_cycles{stage=\"decode\"}"), 500u);
  EXPECT_EQ(snap.counters.at("perf_instructions{stage=\"decode\"}"), 1000u);
  EXPECT_EQ(snap.counters.at("perf_cache_misses{stage=\"decode\"}"), 40u);
  EXPECT_EQ(snap.counters.at("perf_branch_misses{stage=\"decode\"}"), 20u);
  EXPECT_EQ(snap.counters.at("perf_units{stage=\"decode\"}"), 10u);
  EXPECT_EQ(snap.counters.at("perf_hw_samples{stage=\"decode\"}"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("perf_ipc{stage=\"decode\"}"), 2.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("perf_instr_per_unit{stage=\"decode\"}"),
                   100.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("perf_miss_per_unit{stage=\"decode\"}"),
                   4.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("perf_cycles_per_unit{stage=\"decode\"}"),
                   50.0);
}

TEST(PublishPerfTest, DerivedRatesStayFiniteInSoftwareFallback) {
  // The fallback invariant the ISSUE pins down: zero hardware counts and
  // even zero units must never produce NaN/Inf in a derived gauge.
  Registry reg;
  PerfStageTotals t;
  t.samples = 3;
  t.units = 0;
  t.clock_ns = 999;
  PublishPerfTotals(&reg, "stage=\"bin\"", t);
  const MetricsSnapshot snap = reg.Snapshot();
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_TRUE(std::isfinite(value)) << name << " = " << value;
    EXPECT_DOUBLE_EQ(value, 0.0) << name;
  }
}

TEST(PublishPerfTest, ModeGaugeCoversTheWholeLadder) {
  Registry reg;
  PublishPerfMode(&reg, nullptr);
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauges.at("perf_mode"),
                   static_cast<double>(PerfMode::kDisabled));
  ForcedErrnoGuard guard(EPERM);
  auto sw = PerfCounterGroup::Open();
  PublishPerfMode(&reg, sw.get());
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauges.at("perf_mode"),
                   static_cast<double>(PerfMode::kSoftware));
}

TEST(PublishPerfTest, ProcessGaugesReadProc) {
  Registry reg;
  PublishProcessGauges(&reg);
  const MetricsSnapshot snap = reg.Snapshot();
#if defined(__linux__)
  EXPECT_GT(snap.gauges.at("process_rss_bytes"), 0.0);
  EXPECT_GT(snap.gauges.at("process_open_fds"), 0.0);
#endif
  EXPECT_GE(snap.gauges.at("process_uptime_seconds"), 0.0);
}

// ------------------------------------------------------- merged snapshot --

TEST(MergedPerfModeTest, DerivesFromSampleCountersNotTheSummedGauge) {
  // Two software-mode sections: the merged perf_mode gauge sums to 2,
  // which would misread as "hardware" — MergedPerfMode must say software.
  Registry a;
  Registry b;
  PerfStageTotals t;
  t.samples = 5;
  PublishPerfTotals(&a, "stage=\"decode\"", t);
  a.GetGauge("perf_mode")->Set(static_cast<double>(PerfMode::kSoftware));
  PublishPerfTotals(&b, "stage=\"decode\"", t);
  b.GetGauge("perf_mode")->Set(static_cast<double>(PerfMode::kSoftware));
  MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  ASSERT_DOUBLE_EQ(merged.gauges.at("perf_mode"), 2.0);  // the trap
  EXPECT_EQ(MergedPerfMode(merged), PerfMode::kSoftware);
}

TEST(MergedPerfModeTest, AnyHardwareSampleMeansHardware) {
  Registry reg;
  PerfStageTotals t;
  t.samples = 5;
  t.hw_samples = 1;
  PublishPerfTotals(&reg, "stage=\"probe\",engine_shard=\"0\"", t);
  EXPECT_EQ(MergedPerfMode(reg.Snapshot()), PerfMode::kHardware);
}

TEST(MergedPerfModeTest, NoPerfSeriesMeansDisabled) {
  Registry reg;
  reg.GetCounter("frames_decoded")->Inc(3);
  EXPECT_EQ(MergedPerfMode(reg.Snapshot()), PerfMode::kDisabled);
}

TEST(RenderPerfSummaryTest, EmptyWithoutPerfSeries) {
  Registry reg;
  reg.GetCounter("frames_decoded")->Inc(3);
  EXPECT_EQ(RenderPerfSummary(reg.Snapshot()), "");
}

TEST(RenderPerfSummaryTest, RendersModeAndPerStageRates) {
  Registry reg;
  PerfStageTotals t;
  t.samples = 2;
  t.hw_samples = 2;
  t.units = 10;
  t.cycles = 500;
  t.instructions = 1000;
  t.cache_misses = 40;
  t.branch_misses = 20;
  PublishPerfTotals(&reg, "stage=\"decode\"", t);
  PerfStageTotals probe;
  probe.samples = 1;
  probe.units = 4;
  probe.instructions = 8;
  PublishPerfTotals(&reg, "stage=\"probe\",engine_shard=\"2\"", probe);
  const std::string line = RenderPerfSummary(reg.Snapshot());
  EXPECT_NE(line.find("perf[hw]"), std::string::npos) << line;
  EXPECT_NE(line.find("decode: ipc=2.00 instr/u=100.0"), std::string::npos)
      << line;
  EXPECT_NE(line.find("probe/2:"), std::string::npos) << line;
}

TEST(RenderPerfSummaryTest, SoftwareFallbackRendersSwTag) {
  Registry reg;
  PerfStageTotals t;
  t.samples = 2;
  t.units = 10;
  PublishPerfTotals(&reg, "stage=\"encode\"", t);
  const std::string line = RenderPerfSummary(reg.Snapshot());
  EXPECT_NE(line.find("perf[sw]"), std::string::npos) << line;
  EXPECT_NE(line.find("encode:"), std::string::npos) << line;
}

}  // namespace
}  // namespace obs
}  // namespace spot
