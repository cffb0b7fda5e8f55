#ifndef SPOT_OBS_STAGE_H_
#define SPOT_OBS_STAGE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace spot::obs {

/// The reactor's pipeline stages, in pipeline order: the one list every
/// per-stage table iterates. A stage's names all derive from its
/// TraceStage — span TraceStageName(s), histogram StageHistogramName(s),
/// perf labels StagePerfLabels(s).
inline constexpr TraceStage kReactorStages[] = {
    TraceStage::kDecode, TraceStage::kCoalesce, TraceStage::kProcess,
    TraceStage::kEncode, TraceStage::kWrite};

/// `pipeline_<stage>_us`.
inline std::string StageHistogramName(TraceStage stage) {
  return std::string("pipeline_") + TraceStageName(stage) + "_us";
}

/// `stage="<stage>"`.
inline std::string StagePerfLabels(TraceStage stage) {
  return std::string("stage=\"") + TraceStageName(stage) + "\"";
}

/// One measured window (DESIGN.md Section 12.3): reads the steady clock
/// once when constructed and once when it ends (Commit() or destruction),
/// and feeds that one interval to every attached sink — one `hist` sample
/// in µs; one `trace` span of kind `stage` (start on the
/// SteadyMicrosSinceStart timebase, `dur_us` the interval in whole µs);
/// one `totals` sample with `clock_ns` the interval and `cpu_ns` the
/// thread CPU time read inside it. Histogram sample, span and perf clock
/// are thus the same number. Null sinks are skipped, and the CPU clock is
/// read only with `totals` attached; Cancel() feeds none. Each scope keeps
/// its own start, so scopes nest and each measures exactly its own window.
/// A scope must end on the thread that opened it.
class Stage {
 public:
  explicit Stage(Histogram* hist, PerfStageTotals* totals = nullptr,
                 TraceRecorder* trace = nullptr,
                 TraceStage stage = TraceStage::kDecode)
      : hist_(hist), totals_(totals), trace_(trace) {
    span_.stage = stage;
    // Wall clock first, CPU clock second (the reverse at the end): the CPU
    // window nests inside the wall window.
    start_ = std::chrono::steady_clock::now();
    if (totals_ != nullptr) cpu_start_ns_ = ThreadCpuNs();
  }
  ~Stage() { Commit(); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Work items the perf sample is attributed (see PerfStageTotals).
  void set_units(std::uint64_t n) { units_ = n; }
  /// Span annotations: payload (points, or bytes for byte stages), batch
  /// correlation key, session (copied only when a recorder is attached).
  void set_points(std::uint64_t n) { span_.points = n; }
  void set_batch(std::uint64_t id) { span_.batch_id = id; }
  void set_session(const std::string& id) {
    if (trace_ != nullptr) span_.session = id;
  }

  /// Ends the window now and feeds the sinks, once; for stages that end
  /// mid-function.
  void Commit() {
    if (done_) return;
    done_ = true;
    const std::uint64_t cpu_end_ns = totals_ != nullptr ? ThreadCpuNs() : 0;
    elapsed_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (hist_ != nullptr) hist_->Record(elapsed_us());
    if (trace_ != nullptr) {
      span_.ts_us = start_us();
      span_.dur_us = elapsed_ns_ / 1000;
      trace_->Record(std::move(span_));
    }
    if (totals_ == nullptr) return;
    totals_->samples += 1;
    totals_->units += units_;
    totals_->clock_ns += elapsed_ns_;
    totals_->cpu_ns += cpu_end_ns - cpu_start_ns_;
  }

  /// Ends the scope without feeding any sink: the armed window was not the
  /// event it was armed for (a decode pass that ended kNeedMore, a flush
  /// that moved no bytes).
  void Cancel() { done_ = true; }

  /// The window once Commit() ended it.
  std::uint64_t start_us() const { return SteadyMicrosSinceStart(start_); }
  std::uint64_t elapsed_ns() const { return elapsed_ns_; }
  double elapsed_us() const { return static_cast<double>(elapsed_ns_) / 1e3; }

 private:
  Histogram* hist_;
  PerfStageTotals* totals_;
  TraceRecorder* trace_;
  TraceEvent span_;
  std::uint64_t cpu_start_ns_ = 0;
  std::uint64_t units_ = 0;
  std::uint64_t elapsed_ns_ = 0;
  bool done_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace spot::obs

#endif  // SPOT_OBS_STAGE_H_
