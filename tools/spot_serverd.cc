// Standalone SPOT network ingest server (DESIGN.md Sections 7-8).
//
//   spot_serverd [--port P] [--bind ADDR] [--checkpoint-dir DIR]
//                [--reactors N] [--shards N] [--max-resident N]
//                [--batch N]
//                [--metrics-port P] [--stats-interval SECS]
//                [--slow-batch-ms MS] [--log-level LEVEL]
//                [--trace-capacity N] [--trace-file PATH]
//                [--prof] [--prof-interval SECS]
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
// spot_trace.json) without disturbing the ingest pipeline; --prof turns
// on the hardware-counter profiling plane (DESIGN.md Section 12 — the
// `spot_perf_*` families appear on every scrape surface, falling back to
// clock-only mode where perf_event_open is denied); --prof-interval
// (implies --prof) additionally logs a one-line per-stage IPC/cache-miss
// summary every SECS seconds, mirroring --stats-interval.
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
#include "obs/perf_counters.h"
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

void PrintStatsLine(const char* label, const spot::net::SpotServerStats& s) {
  std::printf(
      "%s: %llu points in %llu batches over %llu connections "
      "(%llu frames in, %llu/%llu bytes in/out, %llu stalls, "
      "%llu listener pauses)\n",
      label, static_cast<unsigned long long>(s.points_ingested),
      static_cast<unsigned long long>(s.batches_run),
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.frames_received),
      static_cast<unsigned long long>(s.bytes_in),
      static_cast<unsigned long long>(s.bytes_out),
      static_cast<unsigned long long>(s.backpressure_stalls),
      static_cast<unsigned long long>(s.listener_pauses));
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
  const std::size_t prof_interval =
      spot::examples::TakeSizeFlag(&args, "prof-interval", 0);
  // One switch for both profiling tiers: the reactors read it from the
  // service's config.
  scfg.collect_perf_counters =
      spot::examples::TakeBoolFlag(&args, "prof") || prof_interval > 0;
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

  // Periodic stats dump: one merged summary line per interval, built from
  // the same published snapshots the scrape surfaces read — safe to run
  // beside the reactors.
  std::thread dumper;
  if (stats_interval > 0) {
    dumper = std::thread([&server, stats_interval] {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::seconds(stats_interval);
      while (!server.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::seconds(stats_interval);
        const spot::net::StatsResp snap = server.StatsSnapshot();
        std::printf("stats: %s\n",
                    spot::obs::SummaryLine(snap.Merged()).c_str());
        std::fflush(stdout);
      }
    });
  }

  // Periodic profiling dump (--prof-interval): one per-stage IPC /
  // instructions-per-unit / cache-miss line per interval, rendered from
  // the same merged snapshot as the stats line.
  std::thread prof_dumper;
  if (prof_interval > 0) {
    prof_dumper = std::thread([&server, prof_interval] {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::seconds(prof_interval);
      while (!server.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::seconds(prof_interval);
        const spot::net::StatsResp snap = server.StatsSnapshot();
        const std::string line =
            spot::obs::RenderPerfSummary(snap.Merged());
        if (!line.empty()) SPOT_LOG(Info) << line;
      }
    });
  }

  // SIGUSR2 trace dumps: the signal handler only latches a flag; this
  // watcher renders the flight recorder and writes the Chrome-trace file
  // outside signal context, far from the reactors' loops.
  std::thread tracer;
  if (ncfg.trace_capacity > 0) {
    tracer = std::thread([&server, trace_file] {
      while (!server.stopping()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (!spot::net::SpotServer::TraceRequested()) continue;
        const std::string json = server.TraceJson();
        std::ofstream out(trace_file,
                          std::ios::binary | std::ios::trunc);
        if (out && out.write(json.data(),
                             static_cast<std::streamsize>(json.size()))) {
          std::printf("trace dumped to %s (%zu bytes)\n",
                      trace_file.c_str(), json.size());
          std::fflush(stdout);
        } else {
          SPOT_LOG(Error) << "cannot write trace to " << trace_file;
        }
      }
    });
  }

  server.Run();  // until SIGTERM/SIGINT; drains + checkpoints on the way out
  if (dumper.joinable()) dumper.join();
  if (prof_dumper.joinable()) prof_dumper.join();
  if (tracer.joinable()) tracer.join();

  // Shutdown summary: one line per reactor, then the total, then the
  // service's aggregates.
  char label[32];
  for (std::size_t i = 0; i < server.num_reactors(); ++i) {
    std::snprintf(label, sizeof(label), "reactor %zu", i);
    PrintStatsLine(label, server.reactor_stats(i));
  }
  PrintStatsLine("total", server.stats());
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
