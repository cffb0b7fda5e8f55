#ifndef SPOT_OBS_PERF_COUNTERS_H_
#define SPOT_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace spot {
namespace obs {

/// How a PerfCounterGroup is measuring (DESIGN.md Section 12). Surfaced
/// as the `perf_mode` gauge so a scrape can tell real hardware counts
/// from the clock-only fallback at a glance.
enum class PerfMode : int {
  /// Profiling is off entirely (no group exists; the hooks cost one
  /// null-pointer test). Never reported by a live group — only by the
  /// publish helpers when asked to describe a null group.
  kDisabled = 0,
  /// perf_event_open(2) was denied (perf_event_paranoid, seccomp, a
  /// non-Linux build, or an unsupported PMU): hardware counts read as 0;
  /// PerfStageTotals::clock_ns still measures.
  kSoftware = 1,
  /// The full five-counter group is live on this thread.
  kHardware = 2,
};

/// One cumulative reading of a group: totals since the group was opened.
/// The group reads no clock: a stage's time comes from the obs::Stage
/// scope that reads the group (obs/stage.h), so the perf clock and the
/// stage's histogram sample are one interval.
struct PerfSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  /// True when the five counters above came from live hardware (scaled
  /// for multiplexing); false in software fallback (they are then 0).
  bool hardware = false;
};

/// A per-thread perf_event_open(2) counter group: cycles (leader) +
/// instructions + cache-references + cache-misses + branch-misses, read
/// atomically in one syscall via PERF_FORMAT_GROUP so the five values
/// always describe the same instruction window. Counters are opened with
/// pid=0/cpu=-1 — they follow the *calling thread* — so every measuring
/// thread needs its own group (see ThreadPerfGroup()).
///
/// Graceful degradation: when the leader cannot be opened (EACCES/EPERM
/// from perf_event_paranoid or seccomp, ENOSYS/ENOENT on exotic kernels,
/// EINVAL from an unsupported PMU, or a non-Linux build) the group opens
/// in kSoftware mode — Read() then reports zero hardware counts, and
/// nothing ever fails at the call sites.
/// The group is all-or-nothing: if any member counter is refused the
/// whole group falls back, so the atomic-read invariant can never be
/// silently violated by a partial group.
///
/// Reads are multiplex-scaled (PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING):
/// when the kernel rotates this group off the PMU, counts are scaled by
/// enabled/running time, the standard estimate for shared hardware.
class PerfCounterGroup {
 public:
  /// Opens a group measuring the calling thread. Never fails: denial of
  /// the syscall yields a kSoftware group. Never returns null.
  static std::unique_ptr<PerfCounterGroup> Open();

  /// Testing seam: makes every subsequent Open() behave as if
  /// perf_event_open failed with `err` (e.g. EACCES). 0 restores real
  /// behavior. Not thread-safe against concurrent Open() — test setup
  /// only.
  static void ForceOpenErrnoForTesting(int err);

  /// Testing seam: attempts a real perf_event_open with a nonsense event
  /// config, which any kernel refuses (EINVAL) — the bogus-event leg of
  /// the degradation ladder. Yields a kSoftware group everywhere.
  static std::unique_ptr<PerfCounterGroup> OpenWithBogusConfigForTesting();

  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  PerfMode mode() const { return mode_; }

  /// Cumulative totals since Open(): one read(2) of the group leader in
  /// hardware mode, nothing at all in software mode. A failed group read
  /// degrades that sample to software (it never throws or aborts).
  PerfSample Read() const;

 private:
  PerfCounterGroup() = default;

  PerfMode mode_ = PerfMode::kSoftware;
  int leader_fd_ = -1;
  /// Member fds in group order (instructions, cache-references,
  /// cache-misses, branch-misses); closed with the leader.
  int member_fds_[4] = {-1, -1, -1, -1};
};

/// The calling thread's lazily opened group. Pool workers and reactor
/// loops each get their own (perf counters are per-thread); the group
/// lives for the thread's lifetime. Only call when profiling is enabled —
/// the first call per thread pays the open. Never returns null.
PerfCounterGroup* ThreadPerfGroup();

/// Accumulated counter deltas for one instrumented stage (a plain
/// single-writer struct, same ownership discipline as Registry). `units`
/// is the stage's natural work denominator — points for the pipeline
/// stages and phase-0 binning, logical probes (points x grids) for the
/// shard loops, bytes for the write stage — so `instructions / units`
/// is instructions-per-point / per-probe / per-byte respectively.
/// `clock_ns` sums the intervals of the obs::Stage scopes folded in,
/// whatever the mode.
struct PerfStageTotals {
  std::uint64_t samples = 0;     // scopes committed
  std::uint64_t hw_samples = 0;  // scopes measured in hardware mode
  std::uint64_t units = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t clock_ns = 0;

  void Merge(const PerfStageTotals& other) {
    samples += other.samples;
    hw_samples += other.hw_samples;
    units += other.units;
    cycles += other.cycles;
    instructions += other.instructions;
    cache_references += other.cache_references;
    cache_misses += other.cache_misses;
    branch_misses += other.branch_misses;
    clock_ns += other.clock_ns;
  }
};

/// Folds `totals` into `reg` as the spot_perf_* metric families, with
/// `labels` embedded in the metric names (e.g. `stage="decode"` yields
/// the key `perf_cycles{stage="decode"}`). The exposition layer splits
/// the name back apart and merges embedded labels with the section label
/// (see RenderPrometheus), so the same series ride every scrape surface
/// unchanged. Raw totals publish as counters (Set — the caller owns the
/// running totals); derived rates (IPC, per-unit instructions / cache
/// misses / branch misses / cycles) publish as gauges and are always
/// finite: a zero denominator — software fallback, or no work yet —
/// reports 0, never NaN/Inf.
void PublishPerfTotals(Registry* reg, const std::string& labels,
                       const PerfStageTotals& totals);

/// Publishes the `perf_mode` gauge (see PerfMode; null group = disabled).
void PublishPerfMode(Registry* reg, const PerfCounterGroup* group);

/// Process-level gauges: `process_rss_bytes` (/proc/self/statm),
/// `process_open_fds` (/proc/self/fd), `process_uptime_seconds` (shared
/// steady timebase). Gauges read 0 where /proc is unavailable.
void PublishProcessGauges(Registry* reg);

/// The effective profiling mode of a (possibly merged) snapshot, derived
/// from the raw perf_samples / perf_hw_samples counters — NOT the
/// per-section `perf_mode` gauge, which MetricsSnapshot::Merge sums into
/// nonsense (two software-mode sections would read 1 + 1 = "hardware").
/// Any hardware sample anywhere = kHardware; any sample = kSoftware;
/// no perf series at all = kDisabled.
PerfMode MergedPerfMode(const MetricsSnapshot& snap);

/// One instrumented stage pulled back out of a (possibly merged)
/// snapshot's raw perf counters. The rates derive from the summed raw
/// counters (the per-section rate gauges do not merge meaningfully); a
/// zero denominator reads 0.
struct PerfStageRow {
  /// The embedded label set, e.g. `stage="probe",engine_shard="2"`.
  std::string labels;
  /// Its label values slash-joined, e.g. `probe/2`.
  std::string stage;
  std::uint64_t units = 0;
  double ipc = 0.0;
  double instr_per_unit = 0.0;
  double miss_per_unit = 0.0;
  double branch_miss_per_unit = 0.0;
};

/// One row per `perf_units{...}` counter in `snap`, in label order: the
/// rows behind RenderPerfSummary and spot_loadgen's stage x counter
/// table.
std::vector<PerfStageRow> PerfStageRows(const MetricsSnapshot& snap);

/// One compact line for periodic log dumps (`spot_serverd
/// --prof-interval`): PerfStageRows' IPC / instructions-per-unit /
/// cache- and branch-miss-per-unit after the merged mode, e.g.
///   `perf[hw] decode: ipc=1.42 instr/u=518.0 miss/u=0.800 ...`.
/// Empty string when the snapshot carries no perf series.
std::string RenderPerfSummary(const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace spot

#endif  // SPOT_OBS_PERF_COUNTERS_H_
