#ifndef SPOT_NET_SPOT_SERVER_H_
#define SPOT_NET_SPOT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/reactor.h"
#include "net/server_config.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/spot_service.h"

namespace spot {
namespace net {

/// Multi-reactor epoll ingest server (DESIGN.md Section 8).
///
/// The server owns `num_reactors` event loops and one SpotService that
/// every reactor borrows. Each reactor runs on its own thread with its
/// own epoll poller and its own connections. Reactor 0 owns the listener
/// and, with more than one reactor, deals accepted connections
/// round-robin.
///
/// Determinism is unchanged from the single-threaded server: a session is
/// exclusively attached to one connection (the service records which),
/// that connection lives on one reactor, and that reactor processes the
/// session's points strictly in arrival order — so the verdict stream is
/// byte-identical to feeding the same points to SpotService::Ingest
/// in-process, regardless of reactor count, shard count, framing, or
/// coalescing. A session resumed on another reactor simply attaches
/// there; its state never moves.
///
/// Shutdown: Stop() (thread- and signal-safe, a single atomic store on a
/// flag every reactor polls) makes every loop exit, drain its pending
/// batches and flush what it can; once every loop is joined the server
/// checkpoints the service — so a SIGTERM'd server restarts
/// bit-identically, even at a different reactor count
/// (InstallSignalHandlers wires this).
class SpotServer {
 public:
  /// The server owns its one SpotService, built from `service_config`.
  /// Every reactor's sharded batches run on the process's one compute
  /// pool.
  SpotServer(SpotServiceConfig service_config, SpotServerConfig config);
  ~SpotServer();

  SpotServer(const SpotServer&) = delete;
  SpotServer& operator=(const SpotServer&) = delete;

  /// Binds the listener(s) and initializes every reactor. False on
  /// socket/bind/listen or resource failure.
  bool Start();

  /// The bound port (valid after Start(); resolves port 0 requests).
  std::uint16_t port() const { return port_; }

  /// Runs reactors 1..N-1 on their own threads and reactor 0 on the
  /// calling thread, until Stop(); then joins and shuts everything down.
  void Run();

  /// Requests exit of every reactor loop. Async-signal-safe (a single
  /// atomic store); noticed within one 50 ms poll even when idle.
  void Stop() { stop_.store(true, std::memory_order_relaxed); }

  bool stopping() const { return stop_.load(std::memory_order_relaxed); }

  /// Stops, joins any loop threads, runs every reactor's drain, then
  /// checkpoints the service once. Idempotent; Run() performs it on exit.
  /// Only call from outside Run() after Run() returned.
  void Shutdown();

  /// Routes SIGTERM/SIGINT to `server->Stop()` (pass nullptr to detach),
  /// ignores SIGPIPE, and latches SIGUSR2 as a trace-dump request (poll
  /// it with TraceRequested()). One server per process can be wired at a
  /// time.
  static void InstallSignalHandlers(SpotServer* server);

  /// True once per SIGUSR2 received since the last call (the flag is
  /// consumed). The serving binary polls this and writes TraceJson() to
  /// its --trace-file; the server itself never touches the filesystem.
  static bool TraceRequested();

  const SpotServerConfig& config() const { return config_; }
  std::size_t num_reactors() const { return reactors_.size(); }

  /// The service every reactor shares.
  SpotService& service() { return service_; }
  const SpotService& service() const { return service_; }

  /// Whole-server observability snapshot (DESIGN.md Section 9): the
  /// per-reactor registry snapshots last published to the hub and the
  /// service's snapshot — the only record of the server's counters — with
  /// the process gauges (RSS, open fds, uptime) read into the service's
  /// section here. Safe from any thread at any time — it reads only
  /// mutex-guarded published copies, never a reactor's live registry.
  /// While the server runs, each reactor's slice is at most one loop turn
  /// stale; after Run() or Shutdown() returned it is exact (every
  /// reactor's shutdown publishes a final snapshot).
  StatsResp StatsSnapshot() const;

  /// StatsSnapshot() rendered as Prometheus text exposition (per-reactor
  /// series labeled reactor="i", the service's series unlabeled, then the
  /// service's labeled session sections as they are).
  /// This is what the --metrics-port endpoint serves.
  std::string PrometheusText() const;

  /// The flight recorder's contents (every reactor's ring) rendered as
  /// Chrome-trace JSON (DESIGN.md Section 10) — load it in Perfetto or
  /// chrome://tracing. Valid-but-empty when tracing is disabled. Safe
  /// from any thread (each ring locks internally).
  std::string TraceJson() const;

  /// The service's detector event journal as JSON (Journal::RenderJson).
  /// Safe from any thread.
  std::string JournalJson() const;

  /// Reactor `i`'s flight-recorder ring, or nullptr when tracing is off.
  obs::TraceRecorder* trace_recorder(std::size_t i) {
    return i < traces_.size() ? traces_[i].get() : nullptr;
  }

  /// The metrics HTTP port actually bound (valid after Start() when
  /// config().metrics_port >= 0; -1 when the endpoint is disabled).
  int metrics_port() const;

 private:
  /// Creates the bound, listening, non-blocking socket on
  /// `config_.bind_address:*port` (0 = ephemeral; resolved value written
  /// back). Returns -1 on failure.
  int MakeListener(std::uint16_t* port);

  SpotServerConfig config_;
  /// Declared before the reactors, which borrow it, so it outlives them.
  SpotService service_;
  obs::MetricsHub hub_;
  std::unique_ptr<obs::HttpExporter> exporter_;
  /// Per-reactor flight-recorder rings (empty when trace_capacity == 0).
  /// Owned here — not by the reactors — so a dump can merge every ring
  /// regardless of which thread asks.
  std::vector<std::unique_ptr<obs::TraceRecorder>> traces_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> threads_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool shutdown_done_ = false;
};

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_SPOT_SERVER_H_
