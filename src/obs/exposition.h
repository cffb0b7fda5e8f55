#ifndef SPOT_OBS_EXPOSITION_H_
#define SPOT_OBS_EXPOSITION_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace spot {
namespace obs {

/// One labeled slice of the exposition — e.g. {"reactor=\"0\"", <snap>}
/// or {"session=\"s1\"", <snap>}. An empty label string means a global,
/// unlabeled series.
using LabeledSnapshot = std::pair<std::string, MetricsSnapshot>;

/// Renders Prometheus text exposition format 0.0.4. Metric families are
/// grouped across sections so each name gets exactly one `# TYPE` line;
/// every metric name is prefixed `spot_`. Histograms emit cumulative
/// `_bucket{le=...}` series (only up to the highest populated bucket,
/// then `+Inf`), plus `_sum` and `_count`.
///
/// Metric names may embed label pairs — `perf_cpu_ns{stage="decode"}` —
/// which are split off the family name and merged after the section
/// label, so a label-less Registry can carry labeled families (the
/// per-stage CPU profiling plane rides this, DESIGN.md Section 12).
std::string RenderPrometheus(const std::vector<LabeledSnapshot>& sections);

/// Compact single-line rendering for periodic log dumps: counters and
/// gauges as `k=v`, histograms as `k=count/p50/p95/p99` (values in the
/// histogram's native unit). Keys in sorted order.
std::string SummaryLine(const MetricsSnapshot& snap);

/// Appends `s` to `*out` as a JSON string literal: quotes and backslashes
/// escaped, control bytes as \u00XX. The journal's and the flight
/// recorder's renderers and the bench JSON documents share it; session
/// names arrive from the wire, so nothing in them may break the document.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace obs
}  // namespace spot

#endif  // SPOT_OBS_EXPOSITION_H_
