#ifndef SPOT_OBS_TRACE_H_
#define SPOT_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/ring.h"

namespace spot::obs {

/// Pipeline stage a trace span covers. kShardProbe nests inside kProcess:
/// one span per engine shard of a sharded batch, on its worker's thread.
enum class TraceStage : std::uint8_t {
  kDecode = 0,      // wire bytes -> frames
  kCoalesce = 1,    // frames -> per-session pending batch
  kProcess = 2,     // detector ProcessBatch (whole chunk)
  kShardProbe = 3,  // one shard's slice of the probe fan-out
  kEncode = 4,      // verdicts -> response frames
  kWrite = 5,       // response bytes -> socket
};

inline const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kDecode:
      return "decode";
    case TraceStage::kCoalesce:
      return "coalesce";
    case TraceStage::kProcess:
      return "process";
    case TraceStage::kShardProbe:
      return "shard_probe";
    case TraceStage::kEncode:
      return "encode";
    case TraceStage::kWrite:
      return "write";
  }
  return "unknown";
}

/// One complete ("ph":"X") span on the SteadyMicrosSinceStart timebase.
struct TraceEvent {
  TraceStage stage = TraceStage::kDecode;
  std::uint64_t ts_us = 0;   // span start
  std::uint64_t dur_us = 0;  // span length
  std::uint64_t batch_id = 0;  // correlation key; 0 = not batch-scoped
  std::uint32_t reactor = 0;
  std::int32_t shard = -1;  // >= 0 only for kShardProbe
  std::uint64_t points = 0;  // payload size (points or bytes for kWrite)
  std::string session;       // empty when not session-scoped
};

/// Fixed-size per-reactor flight recorder: an obs::Ring of the most recent
/// spans. Each reactor owns one recorder and is its only writer, so the
/// lock is contended only during a dump; when recording is off the reactor
/// never calls Record at all (the enabled check lives caller-side), making
/// the recorder literally zero-cost when idle.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 2048,
                         std::uint32_t reactor = 0)
      : ring_(capacity), reactor_(reactor) {}

  /// Appends a span (reactor id is stamped here), overwriting the oldest
  /// when full.
  void Record(TraceEvent event) {
    event.reactor = reactor_;
    ring_.Push(std::move(event));
  }

  /// The retained window, oldest first.
  std::vector<TraceEvent> Snapshot() const { return ring_.Snapshot(); }

  /// Spans overwritten since construction.
  std::uint64_t dropped() const { return ring_.dropped(); }

  std::size_t capacity() const { return ring_.capacity(); }
  std::uint32_t reactor() const { return reactor_; }

 private:
  Ring<TraceEvent> ring_;
  const std::uint32_t reactor_;
};

/// Renders spans from any number of recorders as a Chrome-trace / Perfetto
/// JSON document: {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid",
/// "args":{...}}, ...]}. pid = reactor, tid = reactor for reactor-thread
/// stages or 1000+shard for shard-probe spans (so worker lanes render as
/// separate rows under the reactor's process). Load the output directly in
/// chrome://tracing or ui.perfetto.dev.
std::string RenderChromeTrace(
    const std::vector<std::vector<TraceEvent>>& snapshots);

}  // namespace spot::obs

#endif  // SPOT_OBS_TRACE_H_
