// Standalone SPOT network ingest server (DESIGN.md Sections 7-8).
//
//   spot_serverd [--port P] [--bind ADDR] [--checkpoint-dir DIR]
//                [--reactors N] [--shards N] [--max-resident N]
//                [--batch N]
//                [--metrics-port P] [--stats-interval SECS]
//                [--slow-batch-ms MS] [--log-level LEVEL]
//                [--trace-capacity N] [--trace-file PATH]
//
// Observability (DESIGN.md Sections 9-10): --metrics-port serves the
// live Prometheus text scrape — plus GET /trace (Chrome-trace JSON) and
// GET /journal (detector event journal) — on a dedicated thread (0 =
// ephemeral port; the bound port is printed as "metrics on
// <addr>:<port>"); --stats-interval logs a merged per-interval summary
// line to stdout; --slow-batch-ms warns on any engine batch slower than
// MS milliseconds (0 disables, default 250); --log-level picks the
// minimum emitted severity (debug|info|warning|error, default info
// here — the library default is warning); --trace-capacity sizes the
// per-reactor flight-recorder rings (0 disables tracing, default 2048);
// SIGUSR2 dumps the flight recorder to --trace-file (default
// spot_trace.json) without disturbing the ingest pipeline. The per-stage
// CPU profiling plane (DESIGN.md Section 12) is always on: each stage's
// `spot_perf_units`, `spot_perf_samples`, `spot_perf_clock_ns` and
// `spot_perf_cpu_ns` counters appear on every scrape surface, and on the
// --stats-interval line.
//
// Hosts --reactors event loops (default: min(hardware cores, 8)), each an
// epoll loop (Linux only; there is no other loop), in front of one
// SpotService behind the binary wire protocol. Reactor 0 accepts and
// deals connections round-robin; --no-reuseport is still accepted and
// changes nothing (there is one accept path). --max-resident bounds the
// resident sessions of the whole server. --shards N (at most 256) splits
// each batch into N jobs on the process's one compute pool of CPUs - 1
// workers, shared by every reactor. Clients create or resume sessions by
// name, on any reactor; with --checkpoint-dir, SIGTERM/SIGINT shuts down
// gracefully — every reactor processes its pending coalesced batches,
// then the server saves every session via CheckpointAll — so `kill
// -TERM` followed by a restart over the same directory resumes every
// stream bit-identically, even at a different reactor count (the CI
// server-smoke job proves it with spot_loadgen --verify).
//
// Prints "listening on <addr>:<port>" once ready (scripts wait for it).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "common/log.h"
#include "examples/example_flags.h"
#include "net/spot_server.h"
#include "obs/exposition.h"
#include "service/spot_service.h"

namespace {

/// Parses --log-level values; unknown text keeps `fallback`.
spot::LogLevel ParseLogLevel(const std::string& text,
                             spot::LogLevel fallback) {
  if (text == "debug") return spot::LogLevel::kDebug;
  if (text == "info") return spot::LogLevel::kInfo;
  if (text == "warning") return spot::LogLevel::kWarning;
  if (text == "error") return spot::LogLevel::kError;
  if (!text.empty()) {
    SPOT_LOG(Warning) << "unknown --log-level '" << text
                      << "' (want debug|info|warning|error)";
  }
  return fallback;
}

std::size_t DefaultReactors() {
  // hardware_concurrency() may legitimately report 0 (unknown).
  const unsigned cores = std::thread::hardware_concurrency();
  const std::size_t capped = cores == 0 ? 1 : static_cast<std::size_t>(cores);
  return capped < 8 ? capped : 8;
}

/// One shutdown line from a reactor's (or the merged) registry snapshot.
void PrintStatsLine(const char* label, const spot::obs::MetricsSnapshot& s) {
  const auto counter = [&s](const char* name) {
    const auto it = s.counters.find(name);
    return static_cast<unsigned long long>(
        it == s.counters.end() ? 0 : it->second);
  };
  std::printf(
      "%s: %llu points in %llu batches over %llu connections "
      "(%llu frames in, %llu/%llu bytes in/out, %llu stalls, "
      "%llu listener pauses)\n",
      label, counter("points_ingested"), counter("batches_run"),
      counter("connections_accepted"), counter("frames_received"),
      counter("bytes_in"), counter("bytes_out"),
      counter("backpressure_stalls"), counter("listener_pauses"));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);

  spot::SpotServiceConfig scfg;
  scfg.checkpoint_dir =
      spot::examples::TakeStringFlag(&args, "checkpoint-dir", "");
  scfg.num_shards = spot::examples::TakeSizeFlag(&args, "shards", 1);
  scfg.max_resident = spot::examples::TakeSizeFlag(&args, "max-resident", 64);

  spot::net::SpotServerConfig ncfg;
  ncfg.bind_address =
      spot::examples::TakeStringFlag(&args, "bind", "127.0.0.1");
  ncfg.port = static_cast<std::uint16_t>(
      spot::examples::TakeSizeFlag(&args, "port", 7077));
  ncfg.num_reactors =
      spot::examples::TakeSizeFlag(&args, "reactors", DefaultReactors());
  if (ncfg.num_reactors == 0) ncfg.num_reactors = 1;
  // Older scripts pass --no-reuseport; with one accept path it is a no-op.
  spot::examples::TakeBoolFlag(&args, "no-reuseport");
  ncfg.batch_points = spot::examples::TakeSizeFlag(&args, "batch", 256);
  const std::string metrics_port_text =
      spot::examples::TakeStringFlag(&args, "metrics-port");
  if (!metrics_port_text.empty()) {
    ncfg.metrics_port = std::atoi(metrics_port_text.c_str());
  }
  const std::string slow_ms_text =
      spot::examples::TakeStringFlag(&args, "slow-batch-ms");
  ncfg.slow_batch_warn_ms =
      slow_ms_text.empty() ? 250.0 : std::atof(slow_ms_text.c_str());
  ncfg.trace_capacity =
      spot::examples::TakeSizeFlag(&args, "trace-capacity", 2048);
  const std::string trace_file = spot::examples::TakeStringFlag(
      &args, "trace-file", "spot_trace.json");
  const std::size_t stats_interval =
      spot::examples::TakeSizeFlag(&args, "stats-interval", 0);
  // A server is interactive enough to default chattier than the library's
  // kWarning: startup/shutdown landmarks come through SPOT_LOG(Info).
  spot::SetLogLevel(
      ParseLogLevel(spot::examples::TakeStringFlag(&args, "log-level"),
                    spot::LogLevel::kInfo));

  if (!args.empty()) {
    SPOT_LOG(Error) << "unknown argument '" << args.front() << "'";
    return 2;
  }
  if (scfg.num_shards > spot::SpotConfig::kMaxShards) {
    SPOT_LOG(Error) << "--shards must be at most "
                    << spot::SpotConfig::kMaxShards;
    return 2;
  }
  if (!scfg.checkpoint_dir.empty()) {
    ::mkdir(scfg.checkpoint_dir.c_str(), 0755);
  }

  spot::net::SpotServer server(scfg, ncfg);
  if (!server.Start()) {
    SPOT_LOG(Error) << "cannot listen on " << ncfg.bind_address << ":"
                    << ncfg.port;
    return 1;
  }
  spot::net::SpotServer::InstallSignalHandlers(&server);
  if (server.metrics_port() >= 0) {
    std::printf("metrics on %s:%d/metrics\n", ncfg.bind_address.c_str(),
                server.metrics_port());
  }
  std::printf("listening on %s:%u (reactors=%zu, shards=%zu, batch=%zu%s%s)\n",
              ncfg.bind_address.c_str(), server.port(), server.num_reactors(),
              scfg.num_shards, ncfg.batch_points,
              scfg.checkpoint_dir.empty() ? "" : ", checkpoints in ",
              scfg.checkpoint_dir.c_str());
  std::fflush(stdout);

  // One watcher thread, polling every 200 ms, does whichever of two jobs
  // are on, both from the same published snapshots the scrape surfaces
  // read — safe to run beside the reactors:
  //  - --stats-interval: one merged summary line per interval;
  //  - SIGUSR2 trace dumps (tracing on): the signal handler only latches
  //    a flag; the watcher renders the flight recorder and writes the
  //    Chrome-trace file outside signal context.
  // With both off no thread starts.
  std::thread watcher;
  if (stats_interval > 0 || ncfg.trace_capacity > 0) {
    watcher = std::thread([&server, stats_interval, trace_file,
                           tracing = ncfg.trace_capacity > 0] {
      using Clock = std::chrono::steady_clock;
      auto next_stats = Clock::now() + std::chrono::seconds(stats_interval);
      while (!server.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const Clock::time_point now = Clock::now();
        if (stats_interval > 0 && now >= next_stats) {
          next_stats += std::chrono::seconds(stats_interval);
          const spot::net::StatsResp snap = server.StatsSnapshot();
          std::printf("stats: %s\n",
                      spot::obs::SummaryLine(snap.Merged()).c_str());
          std::fflush(stdout);
        }
        if (tracing && spot::net::SpotServer::TraceRequested()) {
          const std::string json = server.TraceJson();
          std::ofstream out(trace_file, std::ios::binary | std::ios::trunc);
          if (out && out.write(json.data(),
                               static_cast<std::streamsize>(json.size()))) {
            std::printf("trace dumped to %s (%zu bytes)\n",
                        trace_file.c_str(), json.size());
            std::fflush(stdout);
          } else {
            SPOT_LOG(Error) << "cannot write trace to " << trace_file;
          }
        }
      }
    });
  }

  server.Run();  // until SIGTERM/SIGINT; drains + checkpoints on the way out
  if (watcher.joinable()) watcher.join();

  // Shutdown summary: one line per reactor, then the total, then the
  // service's aggregates — all read from the registries, which are exact
  // once Run() has returned.
  const spot::net::StatsResp final_stats = server.StatsSnapshot();
  char label[32];
  for (std::size_t i = 0; i < final_stats.reactors.size(); ++i) {
    std::snprintf(label, sizeof(label), "reactor %zu", i);
    PrintStatsLine(label, final_stats.reactors[i]);
  }
  PrintStatsLine("total", final_stats.Merged());
  const spot::ServiceMetrics metrics = server.service().TotalMetrics();
  std::printf(
      "service totals: %zu sessions, %llu points processed, "
      "%llu outliers, %llu drifts, %llu checkpoints written\n",
      metrics.sessions,
      static_cast<unsigned long long>(metrics.points_processed),
      static_cast<unsigned long long>(metrics.outliers_detected),
      static_cast<unsigned long long>(metrics.drifts_detected),
      static_cast<unsigned long long>(metrics.checkpoints_written));
  spot::net::SpotServer::InstallSignalHandlers(nullptr);
  return 0;
}
