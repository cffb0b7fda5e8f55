#ifndef SPOT_OBS_PERF_COUNTERS_H_
#define SPOT_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace spot {
namespace obs {

/// The calling thread's CPU time in ns (CLOCK_THREAD_CPUTIME_ID): no fd,
/// no per-thread setup, ns resolution, ~0.4 µs per read (DESIGN.md Section
/// 12.1). 0 if the clock is unavailable.
inline std::uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Accumulated windows of one instrumented stage (a plain single-writer
/// struct, same ownership discipline as Registry). `units` is the stage's
/// natural work denominator — points for the pipeline stages and phase-0
/// binning, logical probes (points x grids) for the shard loops, bytes for
/// the write stage. `clock_ns` sums the obs::Stage scopes' wall intervals
/// and `cpu_ns` the CPU time their thread spent inside them; wall minus
/// CPU is the time the thread waited.
struct PerfStageTotals {
  std::uint64_t samples = 0;  // scopes committed
  std::uint64_t units = 0;
  std::uint64_t clock_ns = 0;
  std::uint64_t cpu_ns = 0;

  void Merge(const PerfStageTotals& other) {
    samples += other.samples;
    units += other.units;
    clock_ns += other.clock_ns;
    cpu_ns += other.cpu_ns;
  }
};

/// Writes `totals` into `snap` as the counters `perf_units`,
/// `perf_samples`, `perf_clock_ns` and `perf_cpu_ns`, with `labels`
/// embedded in the names (e.g. `stage="decode"` yields the key
/// `perf_cpu_ns{stage="decode"}`). The exposition layer splits the name
/// back apart and merges embedded labels with the section label (see
/// RenderPrometheus), so the same series ride every scrape surface
/// unchanged. Counters only: they sum across sections, and readers derive
/// rates from the sums (PerfStageRows). The caller owns the running
/// totals, the counters' one record; they are written at snapshot time,
/// never into a Registry.
void WritePerfTotals(MetricsSnapshot* snap, const std::string& labels,
                     const PerfStageTotals& totals);

/// Writes the process-level gauges into `snap`: `process_rss_bytes`
/// (/proc/self/statm), `process_open_fds` (/proc/self/fd) and
/// `process_uptime_seconds` (shared steady timebase). Gauges read 0 where
/// /proc is unavailable.
void WriteProcessGauges(MetricsSnapshot* snap);

/// One instrumented stage pulled back out of a (possibly merged)
/// snapshot's perf counters, rates derived from the summed counters; a
/// zero denominator reads 0.
struct PerfStageRow {
  /// The embedded label set, e.g. `stage="probe",engine_shard="2"`.
  std::string labels;
  /// Its label values slash-joined, e.g. `probe/2`.
  std::string stage;
  std::uint64_t units = 0;
  double wall_ns_per_unit = 0.0;
  double cpu_ns_per_unit = 0.0;
  /// cpu_ns / clock_ns: 1 when the stage's thread ran throughout.
  double cpu_per_wall = 0.0;
};

/// One row per `perf_units{...}` counter in `snap`, in label order: the
/// rows behind spot_loadgen's stage x counter table.
std::vector<PerfStageRow> PerfStageRows(const MetricsSnapshot& snap);

}  // namespace obs
}  // namespace spot

#endif  // SPOT_OBS_PERF_COUNTERS_H_
