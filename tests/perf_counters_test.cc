// Tests of the per-stage CPU profiling plane (src/obs/perf_counters.{h,cc},
// DESIGN.md Section 12): the thread CPU clock an obs::Stage scope reads
// inside its wall window (the fold/Cancel/Commit/nesting semantics are in
// obs_test), the spot_perf_* snapshot writer, process-level gauges, and the
// PerfStageRows reader that derives rates from summed counters.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/stage.h"

namespace spot {
namespace obs {
namespace {

/// How far a scope's `cpu_ns` may exceed its `clock_ns`. The CPU window
/// nests inside the wall window, but the two come from different kernel
/// clocks — the scheduler's per-thread runtime and CLOCK_MONOTONIC — which
/// can disagree by their rate difference (ppm) and by the scheduler
/// clock's granularity. 1% plus 50 µs bounds both with a wide margin: on a
/// 4-vCPU KVM guest, 40k nested windows of 0 to 1M loop iterations on 4
/// threads read cpu − wall ≤ −288 ns, never positive.
std::uint64_t ClockSlackNs(std::uint64_t clock_ns) {
  return clock_ns / 100 + 50000;
}

/// Spins for about `us` microseconds of wall time on this thread.
void BusyUs(int us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < end) sink = sink + 1;
}

TEST(ThreadCpuClockTest, AdvancesWithWork) {
  const std::uint64_t before = ThreadCpuNs();
  BusyUs(2000);
  const std::uint64_t after = ThreadCpuNs();
  EXPECT_GT(after, before);
}

TEST(StageCpuTest, EveryScopeCpuFitsInsideItsWallWindow) {
  // Empty, busy and sleeping windows of several lengths, each committed
  // into its own totals so every scope is checked on its own.
  for (int round = 0; round < 40; ++round) {
    PerfStageTotals totals;
    {
      Stage stage(nullptr, &totals);
      if (round % 4 == 1) BusyUs(10 * round);
      if (round % 4 == 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(20 * round));
      }
      if (round % 4 == 3) {
        BusyUs(5 * round);
        std::this_thread::sleep_for(std::chrono::microseconds(5 * round));
      }
    }
    ASSERT_EQ(totals.samples, 1u);
    EXPECT_LE(totals.cpu_ns, totals.clock_ns + ClockSlackNs(totals.clock_ns))
        << "round " << round << ": cpu " << totals.cpu_ns << " ns, wall "
        << totals.clock_ns << " ns";
  }
}

TEST(StageCpuTest, SleepingScopeReadsLittleCpu) {
  PerfStageTotals totals;
  {
    Stage stage(nullptr, &totals);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(totals.clock_ns, 5000000u);
  EXPECT_LT(totals.cpu_ns, totals.clock_ns / 2);
}

TEST(StageCpuTest, BusyScopeReadsCpu) {
  PerfStageTotals totals;
  {
    Stage stage(nullptr, &totals);
    BusyUs(1000);
  }
  EXPECT_GT(totals.cpu_ns, 0u);
  EXPECT_LE(totals.cpu_ns, totals.clock_ns + ClockSlackNs(totals.clock_ns));
}

TEST(StageCpuTest, CancelAddsNoCpu) {
  PerfStageTotals totals;
  {
    Stage stage(nullptr, &totals);
    stage.set_units(5);
    BusyUs(500);
    stage.Cancel();
  }
  EXPECT_EQ(totals.samples, 0u);
  EXPECT_EQ(totals.cpu_ns, 0u);
  EXPECT_EQ(totals.clock_ns, 0u);
}

TEST(PerfStageTotalsTest, MergeAddsEveryField) {
  PerfStageTotals a;
  a.samples = 1;
  a.units = 10;
  a.clock_ns = 1000;
  a.cpu_ns = 600;
  PerfStageTotals b = a;
  b.Merge(a);
  EXPECT_EQ(b.samples, 2u);
  EXPECT_EQ(b.units, 20u);
  EXPECT_EQ(b.clock_ns, 2000u);
  EXPECT_EQ(b.cpu_ns, 1200u);
}

// --------------------------------------------------------------- publish --

TEST(PublishPerfTest, TotalsPublishFourCounters) {
  PerfStageTotals t;
  t.samples = 2;
  t.units = 10;
  t.clock_ns = 12345;
  t.cpu_ns = 6789;
  MetricsSnapshot snap;
  WritePerfTotals(&snap, "stage=\"decode\"", t);
  EXPECT_EQ(snap.counters.at("perf_units{stage=\"decode\"}"), 10u);
  EXPECT_EQ(snap.counters.at("perf_samples{stage=\"decode\"}"), 2u);
  EXPECT_EQ(snap.counters.at("perf_clock_ns{stage=\"decode\"}"), 12345u);
  EXPECT_EQ(snap.counters.at("perf_cpu_ns{stage=\"decode\"}"), 6789u);
  EXPECT_EQ(snap.counters.size(), 4u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(PublishPerfTest, ProcessGaugesReadProc) {
  MetricsSnapshot snap;
  WriteProcessGauges(&snap);
#if defined(__linux__)
  EXPECT_GT(snap.gauges.at("process_rss_bytes"), 0.0);
  EXPECT_GT(snap.gauges.at("process_open_fds"), 0.0);
#endif
  EXPECT_GE(snap.gauges.at("process_uptime_seconds"), 0.0);
}

// ------------------------------------------------------------------ rows --

TEST(PerfStageRowsTest, RatesDeriveFromCountersSummedAcrossSections) {
  PerfStageTotals process;
  process.samples = 2;
  process.units = 100;
  process.clock_ns = 40000;
  process.cpu_ns = 30000;
  PerfStageTotals probe;
  probe.samples = 1;
  probe.units = 400;
  probe.clock_ns = 8000;
  probe.cpu_ns = 8000;
  MetricsSnapshot merged, r1, svc;
  WritePerfTotals(&merged, "stage=\"process\"", process);
  WritePerfTotals(&r1, "stage=\"process\"", process);
  WritePerfTotals(&svc, "stage=\"probe\",engine_shard=\"2\"", probe);
  merged.Merge(r1);
  merged.Merge(svc);

  const std::vector<PerfStageRow> rows = PerfStageRows(merged);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].labels, "stage=\"probe\",engine_shard=\"2\"");
  EXPECT_EQ(rows[0].stage, "probe/2");
  EXPECT_EQ(rows[0].units, 400u);
  EXPECT_DOUBLE_EQ(rows[0].wall_ns_per_unit, 20.0);
  EXPECT_DOUBLE_EQ(rows[0].cpu_ns_per_unit, 20.0);
  EXPECT_DOUBLE_EQ(rows[0].cpu_per_wall, 1.0);
  EXPECT_EQ(rows[1].stage, "process");
  EXPECT_EQ(rows[1].units, 200u);
  EXPECT_DOUBLE_EQ(rows[1].wall_ns_per_unit, 400.0);
  EXPECT_DOUBLE_EQ(rows[1].cpu_ns_per_unit, 300.0);
  EXPECT_DOUBLE_EQ(rows[1].cpu_per_wall, 0.75);
}

TEST(PerfStageRowsTest, ZeroUnitStageReadsZeroRates) {
  PerfStageTotals t;
  t.samples = 3;
  t.clock_ns = 999;
  MetricsSnapshot snap;
  WritePerfTotals(&snap, "stage=\"bin\"", t);
  WritePerfTotals(&snap, "stage=\"write\"", PerfStageTotals{});
  const std::vector<PerfStageRow> rows = PerfStageRows(snap);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].stage, "bin");
  EXPECT_EQ(rows[0].units, 0u);
  EXPECT_DOUBLE_EQ(rows[0].wall_ns_per_unit, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].cpu_ns_per_unit, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].cpu_per_wall, 0.0);  // no CPU over 999 ns
  EXPECT_EQ(rows[1].stage, "write");
  EXPECT_DOUBLE_EQ(rows[1].cpu_per_wall, 0.0);  // 0 / 0
}

TEST(PerfStageRowsTest, NoPerfSeriesNoRows) {
  Registry reg;
  reg.GetCounter("frames_received")->Inc(3);
  reg.GetGauge("connections")->Set(1.0);
  EXPECT_TRUE(PerfStageRows(reg.Snapshot()).empty());
}

}  // namespace
}  // namespace obs
}  // namespace spot
