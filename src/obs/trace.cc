#include "obs/trace.h"

#include "obs/exposition.h"

namespace spot::obs {

std::string RenderChromeTrace(
    const std::vector<std::vector<TraceEvent>>& snapshots) {
  std::string out;
  std::size_t total = 0;
  for (const auto& s : snapshots) total += s.size();
  out.reserve(64 + total * 128);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& snapshot : snapshots) {
    for (const TraceEvent& e : snapshot) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"name\":";
      AppendJsonString(&out, TraceStageName(e.stage));
      out += ",\"ph\":\"X\",\"ts\":";
      out += std::to_string(e.ts_us);
      out += ",\"dur\":";
      out += std::to_string(e.dur_us);
      out += ",\"pid\":";
      out += std::to_string(e.reactor);
      out += ",\"tid\":";
      // Shard-probe spans run on pool workers: give each shard its own
      // lane under the reactor's process so the fan-out renders stacked.
      out += std::to_string(e.shard >= 0 ? 1000 + e.shard
                                         : static_cast<int>(e.reactor));
      out += ",\"args\":{\"batch\":";
      out += std::to_string(e.batch_id);
      out += ",\"points\":";
      out += std::to_string(e.points);
      if (!e.session.empty()) {
        out += ",\"session\":";
        AppendJsonString(&out, e.session);
      }
      if (e.shard >= 0) {
        out += ",\"shard\":";
        out += std::to_string(e.shard);
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace spot::obs
