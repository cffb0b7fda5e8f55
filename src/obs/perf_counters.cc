#include "obs/perf_counters.h"

#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <dirent.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define SPOT_HAVE_PERF_EVENTS 1
#endif

#include "common/timer.h"

namespace spot {
namespace obs {

namespace {

/// Testing seam (see ForceOpenErrnoForTesting): nonzero short-circuits
/// every open attempt as if perf_event_open itself failed with this.
int g_forced_open_errno = 0;

constexpr double SafeDiv(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

#ifdef SPOT_HAVE_PERF_EVENTS

/// The group read layout under PERF_FORMAT_GROUP +
/// PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING: one read() returns every
/// counter of the group from the same instant.
struct GroupReadBuf {
  std::uint64_t nr = 0;
  std::uint64_t time_enabled = 0;
  std::uint64_t time_running = 0;
  std::uint64_t values[8] = {};  // >= the 5 counters we open
};

int OpenOneCounter(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  // Only the leader starts disabled; members inherit the group's enable
  // state, and one IOC_ENABLE(GROUP) below arms everything atomically.
  attr.disabled = group_fd < 0 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // pid=0, cpu=-1: this thread, wherever it is scheduled.
  return static_cast<int>(::syscall(__NR_perf_event_open, &attr, 0, -1,
                                    group_fd, 0));
}

#endif  // SPOT_HAVE_PERF_EVENTS

}  // namespace

void PerfCounterGroup::ForceOpenErrnoForTesting(int err) {
  g_forced_open_errno = err;
}

std::unique_ptr<PerfCounterGroup> PerfCounterGroup::Open() {
  // Not make_unique: the constructor is private.
  std::unique_ptr<PerfCounterGroup> group(new PerfCounterGroup());
  if (g_forced_open_errno != 0) return group;  // simulated denial
#ifdef SPOT_HAVE_PERF_EVENTS
  const int leader = OpenOneCounter(PERF_COUNT_HW_CPU_CYCLES, -1);
  if (leader < 0) return group;  // EACCES/EPERM/ENOSYS/...: software mode
  static constexpr std::uint64_t kMembers[4] = {
      PERF_COUNT_HW_INSTRUCTIONS, PERF_COUNT_HW_CACHE_REFERENCES,
      PERF_COUNT_HW_CACHE_MISSES, PERF_COUNT_HW_BRANCH_MISSES};
  int members[4];
  for (int i = 0; i < 4; ++i) {
    members[i] = OpenOneCounter(kMembers[i], leader);
    if (members[i] < 0) {
      // All-or-nothing: a partial group would break the "five counters,
      // one instruction window" invariant, so any refusal falls all the
      // way back to software mode.
      for (int j = 0; j < i; ++j) ::close(members[j]);
      ::close(leader);
      return group;
    }
  }
  ::ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  if (::ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    for (int fd : members) ::close(fd);
    ::close(leader);
    return group;
  }
  group->leader_fd_ = leader;
  for (int i = 0; i < 4; ++i) group->member_fds_[i] = members[i];
  group->mode_ = PerfMode::kHardware;
#endif
  return group;
}

std::unique_ptr<PerfCounterGroup>
PerfCounterGroup::OpenWithBogusConfigForTesting() {
  std::unique_ptr<PerfCounterGroup> group(new PerfCounterGroup());
#ifdef SPOT_HAVE_PERF_EVENTS
  // A generic-hardware event id no PMU defines: the kernel refuses it
  // with EINVAL/ENOENT, which must land in software mode exactly like a
  // permission denial.
  const int fd = OpenOneCounter(~0ull >> 1, -1);
  if (fd >= 0) ::close(fd);  // a kernel accepting this is not our group
#endif
  return group;
}

PerfCounterGroup::~PerfCounterGroup() {
#ifdef SPOT_HAVE_PERF_EVENTS
  for (int fd : member_fds_) {
    if (fd >= 0) ::close(fd);
  }
  if (leader_fd_ >= 0) ::close(leader_fd_);
#endif
}

PerfSample PerfCounterGroup::Read() const {
  PerfSample sample;
#ifdef SPOT_HAVE_PERF_EVENTS
  if (mode_ != PerfMode::kHardware) return sample;
  GroupReadBuf buf;
  const ssize_t n = ::read(leader_fd_, &buf, sizeof(buf));
  if (n < static_cast<ssize_t>(3 * sizeof(std::uint64_t)) || buf.nr < 5) {
    return sample;  // degrade this sample, not the process
  }
  // Multiplex scaling: when the PMU was shared and this group only ran
  // for part of its enabled window, scale counts up by enabled/running —
  // the standard linear estimate.
  double scale = 1.0;
  if (buf.time_running > 0 && buf.time_running < buf.time_enabled) {
    scale = static_cast<double>(buf.time_enabled) /
            static_cast<double>(buf.time_running);
  }
  auto scaled = [scale](std::uint64_t v) {
    return static_cast<std::uint64_t>(static_cast<double>(v) * scale);
  };
  sample.cycles = scaled(buf.values[0]);
  sample.instructions = scaled(buf.values[1]);
  sample.cache_references = scaled(buf.values[2]);
  sample.cache_misses = scaled(buf.values[3]);
  sample.branch_misses = scaled(buf.values[4]);
  sample.hardware = true;
#endif
  return sample;
}

PerfCounterGroup* ThreadPerfGroup() {
  thread_local std::unique_ptr<PerfCounterGroup> group;
  if (group == nullptr) group = PerfCounterGroup::Open();
  return group.get();
}

namespace {

std::string Keyed(const char* base, const std::string& labels) {
  std::string name = base;
  if (!labels.empty()) name.append("{").append(labels).append("}");
  return name;
}

}  // namespace

void PublishPerfTotals(Registry* reg, const std::string& labels,
                       const PerfStageTotals& t) {
  reg->GetCounter(Keyed("perf_cycles", labels))->Set(t.cycles);
  reg->GetCounter(Keyed("perf_instructions", labels))->Set(t.instructions);
  reg->GetCounter(Keyed("perf_cache_references", labels))
      ->Set(t.cache_references);
  reg->GetCounter(Keyed("perf_cache_misses", labels))->Set(t.cache_misses);
  reg->GetCounter(Keyed("perf_branch_misses", labels))->Set(t.branch_misses);
  reg->GetCounter(Keyed("perf_units", labels))->Set(t.units);
  reg->GetCounter(Keyed("perf_samples", labels))->Set(t.samples);
  reg->GetCounter(Keyed("perf_hw_samples", labels))->Set(t.hw_samples);
  reg->GetCounter(Keyed("perf_clock_ns", labels))->Set(t.clock_ns);

  const double units = static_cast<double>(t.units);
  const double instr = static_cast<double>(t.instructions);
  reg->GetGauge(Keyed("perf_ipc", labels))
      ->Set(SafeDiv(instr, static_cast<double>(t.cycles)));
  reg->GetGauge(Keyed("perf_instr_per_unit", labels))
      ->Set(SafeDiv(instr, units));
  reg->GetGauge(Keyed("perf_miss_per_unit", labels))
      ->Set(SafeDiv(static_cast<double>(t.cache_misses), units));
  reg->GetGauge(Keyed("perf_branch_miss_per_unit", labels))
      ->Set(SafeDiv(static_cast<double>(t.branch_misses), units));
  reg->GetGauge(Keyed("perf_cycles_per_unit", labels))
      ->Set(SafeDiv(static_cast<double>(t.cycles), units));
}

void PublishPerfMode(Registry* reg, const PerfCounterGroup* group) {
  const PerfMode mode = group == nullptr ? PerfMode::kDisabled : group->mode();
  reg->GetGauge("perf_mode")->Set(static_cast<double>(mode));
}

void PublishProcessGauges(Registry* reg) {
  double rss_bytes = 0.0;
  double open_fds = 0.0;
#ifdef SPOT_HAVE_PERF_EVENTS
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
  reg->GetGauge("process_rss_bytes")->Set(rss_bytes);
  reg->GetGauge("process_open_fds")->Set(open_fds);
  reg->GetGauge("process_uptime_seconds")
      ->Set(static_cast<double>(SteadyMicrosSinceStart()) / 1e6);
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

PerfMode MergedPerfMode(const MetricsSnapshot& snap) {
  // NOT the perf_mode gauge: MetricsSnapshot::Merge SUMS gauges across
  // sections, so two software-mode reactors (1 + 1) would read as
  // "hardware" (2). The raw sample counters sum meaningfully instead:
  // any hardware sample anywhere means hardware, any sample at all means
  // software fallback, no perf series at all means profiling is off.
  static constexpr char kSamples[] = "perf_samples{";
  static constexpr char kHwSamples[] = "perf_hw_samples{";
  bool any_series = false;
  std::uint64_t hw = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.compare(0, sizeof(kHwSamples) - 1, kHwSamples) == 0) {
      hw += static_cast<std::uint64_t>(value);
    } else if (name.compare(0, sizeof(kSamples) - 1, kSamples) == 0) {
      any_series = true;
    }
  }
  if (hw > 0) return PerfMode::kHardware;
  return any_series ? PerfMode::kSoftware : PerfMode::kDisabled;
}

std::vector<PerfStageRow> PerfStageRows(const MetricsSnapshot& snap) {
  auto counter = [&snap](const std::string& name) -> double {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  // Every instrumented stage owns a perf_units{...} counter; enumerate
  // those to find the label sets, then pull each stage's raw totals.
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
    const double instr = counter(Keyed("perf_instructions", row.labels));
    row.ipc = SafeDiv(instr, counter(Keyed("perf_cycles", row.labels)));
    row.instr_per_unit = SafeDiv(instr, units);
    row.miss_per_unit =
        SafeDiv(counter(Keyed("perf_cache_misses", row.labels)), units);
    row.branch_miss_per_unit =
        SafeDiv(counter(Keyed("perf_branch_misses", row.labels)), units);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string RenderPerfSummary(const MetricsSnapshot& snap) {
  std::string out;
  for (const PerfStageRow& row : PerfStageRows(snap)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " %s: ipc=%.2f instr/u=%.1f miss/u=%.3f bmiss/u=%.3f",
                  row.stage.c_str(), row.ipc, row.instr_per_unit,
                  row.miss_per_unit, row.branch_miss_per_unit);
    out.append(out.empty() ? "" : " |").append(buf);
  }
  if (out.empty()) return std::string();
  const PerfMode mode = MergedPerfMode(snap);
  return std::string("perf[")
      .append(mode == PerfMode::kHardware
                  ? "hw"
                  : mode == PerfMode::kSoftware ? "sw" : "off")
      .append("]")
      .append(out);
}

}  // namespace obs
}  // namespace spot
