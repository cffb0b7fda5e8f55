#include "obs/perf_counters.h"

#include <cstdio>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "common/timer.h"

namespace spot {
namespace obs {

namespace {

constexpr double SafeDiv(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

std::string Keyed(const char* base, const std::string& labels) {
  std::string name = base;
  if (!labels.empty()) name.append("{").append(labels).append("}");
  return name;
}

}  // namespace

void WritePerfTotals(MetricsSnapshot* snap, const std::string& labels,
                     const PerfStageTotals& t) {
  snap->counters[Keyed("perf_units", labels)] = t.units;
  snap->counters[Keyed("perf_samples", labels)] = t.samples;
  snap->counters[Keyed("perf_clock_ns", labels)] = t.clock_ns;
  snap->counters[Keyed("perf_cpu_ns", labels)] = t.cpu_ns;
}

void WriteProcessGauges(MetricsSnapshot* snap) {
  double rss_bytes = 0.0;
  double open_fds = 0.0;
#if defined(__linux__)
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r")) {
    unsigned long long total_pages = 0, resident_pages = 0;
    if (std::fscanf(statm, "%llu %llu", &total_pages, &resident_pages) == 2) {
      rss_bytes = static_cast<double>(resident_pages) *
                  static_cast<double>(::sysconf(_SC_PAGESIZE));
    }
    std::fclose(statm);
  }
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    long count = 0;
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
    if (count > 0) --count;  // the opendir fd itself
    open_fds = static_cast<double>(count);
  }
#endif
  snap->gauges["process_rss_bytes"] = rss_bytes;
  snap->gauges["process_open_fds"] = open_fds;
  snap->gauges["process_uptime_seconds"] =
      static_cast<double>(SteadyMicrosSinceStart()) / 1e6;
}

namespace {

/// "stage=\"decode\"" -> "decode"; extra labels append their values:
/// "stage=\"probe\",engine_shard=\"2\"" -> "probe/2".
std::string PrettyStage(const std::string& labels) {
  std::string out;
  std::size_t pos = 0;
  while (pos < labels.size()) {
    const std::size_t eq = labels.find('=', pos);
    if (eq == std::string::npos) break;
    std::size_t vbegin = eq + 1;
    if (vbegin < labels.size() && labels[vbegin] == '"') ++vbegin;
    std::size_t vend = labels.find('"', vbegin);
    if (vend == std::string::npos) vend = labels.size();
    if (!out.empty()) out.append("/");
    out.append(labels, vbegin, vend - vbegin);
    pos = labels.find(',', vend);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return out.empty() ? labels : out;
}

}  // namespace

std::vector<PerfStageRow> PerfStageRows(const MetricsSnapshot& snap) {
  auto counter = [&snap](const std::string& name) -> double {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  // Every instrumented stage owns a perf_units{...} counter; enumerate
  // those to find the label sets, then pull each stage's totals.
  static constexpr char kPrefix[] = "perf_units{";
  std::vector<PerfStageRow> rows;
  for (const auto& [name, value] : snap.counters) {
    if (name.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) continue;
    PerfStageRow row;
    row.labels = name.substr(sizeof(kPrefix) - 1,
                             name.size() - sizeof(kPrefix) /* '}' */);
    row.stage = PrettyStage(row.labels);
    row.units = value;
    const double units = static_cast<double>(value);
    const double wall = counter(Keyed("perf_clock_ns", row.labels));
    const double cpu = counter(Keyed("perf_cpu_ns", row.labels));
    row.wall_ns_per_unit = SafeDiv(wall, units);
    row.cpu_ns_per_unit = SafeDiv(cpu, units);
    row.cpu_per_wall = SafeDiv(cpu, wall);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace obs
}  // namespace spot
