#ifndef SPOT_NET_REACTOR_H_
#define SPOT_NET_REACTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/poller.h"
#include "net/protocol.h"
#include "net/server_config.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/stage.h"
#include "obs/trace.h"
#include "stream/data_point.h"

namespace spot {

class SpotService;

namespace net {

/// One event loop of the multi-reactor server (DESIGN.md Section 8). A
/// reactor owns an epoll poller, a set of connections and — on
/// reactor 0 only — the listener, and borrows the server's one
/// SpotService, which every reactor shares. Everything it touches —
/// connections, coalescing buffers, its metrics registry — is
/// loop-thread-local; the only shared state is the service (internally
/// locked; it records which connection each session is attached to), the
/// server-wide stop flag and the metrics hub it publishes into.
///
/// Per-session processing order — and therefore verdict bit-identity —
/// is exactly the single-threaded server's: a session is exclusively
/// attached to one connection, which lives on one reactor, whose loop
/// processes the session's points in arrival order.
class Reactor {
 public:
  /// Borrows everything; all pointees must outlive the reactor. `hub`
  /// receives this reactor's metrics snapshot at the end of every loop
  /// turn (slot `index`); `stats_source` assembles the whole-server
  /// StatsResp a kStats request on one of this reactor's connections is
  /// answered with (DESIGN.md Section 9).
  Reactor(int index, const SpotServerConfig& config, SpotService* service,
          const std::atomic<bool>* stop, obs::MetricsHub* hub,
          std::function<StatsResp()> stats_source);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Opens the epoll poller and the cross-thread wakeup pipe. False, with
  /// the cause logged, when either cannot be created.
  bool Init();

  /// Takes ownership of the server's bound, listening, non-blocking
  /// socket. With `targets` non-empty (more than one reactor), accepted
  /// connections are dealt round-robin across them, this reactor
  /// included; otherwise this reactor keeps every one.
  void AdoptListener(int fd, std::vector<Reactor*> targets);

  /// Runs the loop until the shared stop flag is set, then drains and
  /// closes (Shutdown). Call from exactly one thread.
  void Run();

  /// Drains pending batches, flushes and closes every connection, and
  /// closes the listener and wakeup pipe, then publishes a final metrics
  /// snapshot, so a read after the loop is joined is exact. Idempotent;
  /// Run() calls it on exit, the server calls it for reactors whose loop
  /// never ran. The server checkpoints the service once every reactor
  /// has shut down.
  void Shutdown();

  /// Hands a freshly accepted connection to this reactor from another
  /// thread (the acceptor's). The fd is adopted on the next loop turn;
  /// the wakeup pipe makes that turn start immediately.
  void EnqueueConn(int fd);

  /// Wires the reactor into the flight recorder (DESIGN.md Section 10).
  /// `recorder` receives this reactor's pipeline spans
  /// (decode/coalesce/process/shard_probe/encode/write); `trace_source`
  /// renders the whole-server Chrome-trace JSON a kTraceDump request on
  /// one of this reactor's connections is answered with. Call before the
  /// loop starts; both may be null/empty (tracing off — each stage then
  /// pays one null test and records nothing).
  void SetTracing(obs::TraceRecorder* recorder,
                  std::function<std::string()> trace_source);

 private:
  /// Why a connection closed: the `cause` label of its
  /// `connections_closed{cause="<CloseCauseName>"}` count.
  enum class CloseCause {
    kPeerClosed,    // the peer's FIN (recv returned 0)
    kSocketError,   // recv failed, or the poller saw an error or hangup
    kCorruptFrame,  // the byte stream no longer frames
    kRefused,       // a queued kError drained first
    kWriteError,    // send failed: the peer is gone
    kShutdown,      // the server stopped
  };
  static const char* CloseCauseName(CloseCause cause);

  struct Conn {
    int fd = -1;
    FrameDecoder decoder{kDefaultMaxPayloadBytes};
    std::string outbuf;
    std::size_t out_off = 0;
    bool paused = false;      // reading suspended by backpressure
    bool want_close = false;  // close once outbuf drains, for close_cause
    /// kRefused unless a send failed: every other mark follows a queued
    /// kError.
    CloseCause close_cause = CloseCause::kRefused;
    bool poll_read = true;    // interest currently registered
    bool poll_write = false;
    /// Sessions attached to (and exclusively owned by) this connection:
    /// the reactor's only record of attachment.
    std::vector<std::string> sessions;
    /// Per-session coalescing buffers, ordered for deterministic
    /// end-of-turn flushing.
    std::map<std::string, std::vector<DataPoint>> pending;
  };

  /// One event-loop turn; returns false once stopped. Run() is
  /// `while (RunOnce(...)) {}` plus Shutdown().
  bool RunOnce(int timeout_ms);

  /// This connection's attachment token in the service: the reactor
  /// index and the fd, never 0.
  std::uint64_t Owner(const Conn& conn) const;
  void DetachSessions(Conn& conn);

  void AcceptReady();
  void AdoptConn(int fd);
  void DrainIntake();

  void ReadReady(int fd);
  void WriteReady(int fd);
  /// Handles one complete frame; false closes the connection.
  bool HandleFrame(Conn& conn, const Frame& frame);
  bool HandleIngest(Conn& conn, const std::string& payload);
  /// Runs `conn`'s pending points for `id` through the service in
  /// batch_points chunks; `all` also processes the sub-batch remainder.
  /// A refused chunk discards every point still pending for `id`, so
  /// nothing after it is ever processed.
  bool ProcessPending(Conn& conn, const std::string& id, bool all);
  /// Batch-boundary barrier: processes every point `conn` still has
  /// pending for `id`, so a request on the session sees everything the
  /// connection delivered before it. False when a chunk was refused (the
  /// error is queued).
  bool DrainSession(Conn& conn, const std::string& id);
  /// End-of-turn flush: processes every connection's remaining pending
  /// points (whatever arrived together in this turn is the batch).
  void FlushAllPending();

  /// Opens the measured window of one pipeline stage, feeding its
  /// histogram, its perf totals and the flight recorder (when tracing) —
  /// DESIGN.md Section 12.3.
  obs::Stage Measure(obs::TraceStage stage);

  /// Refreshes the registry's gauges and pushes a fresh snapshot, with
  /// each stage's perf totals written into it, into the hub. Runs at the
  /// end of every loop turn — a few-KB copy, far off the per-point path.
  void PublishMetrics();

  /// True when `id` is attached to exactly this connection (it is in
  /// `conn.sessions`); otherwise a kError(kNotAttached) naming the session
  /// is queued and false returns.
  bool RequireAttached(Conn& conn, MsgType request, const std::string& id);
  void Enqueue(Conn& conn, MsgType type, const std::string& payload);
  void SendOk(Conn& conn, MsgType request);
  /// Every refusal goes through here, counted per code as
  /// `refusals{code="<ErrorCodeName>"}`.
  void SendError(Conn& conn, MsgType request, ErrorCode code,
                 const std::string& message);
  /// Non-blocking write of the connection's output queue, measured as the
  /// `write` stage when bytes actually move.
  void TryFlush(Conn& conn);
  /// The send loop proper; returns the bytes written this call.
  std::size_t WriteLoop(Conn& conn);
  void UpdateBackpressure(Conn& conn);
  void SyncPollerInterest(Conn& conn);
  /// Processes the connection's pending points, detaches its sessions,
  /// closes the socket and counts the close under `cause`.
  void CloseConn(int fd, CloseCause cause);

  bool stopping() const { return stop_->load(std::memory_order_relaxed); }

  const int index_;
  const SpotServerConfig& config_;
  SpotService* service_;
  const std::atomic<bool>* stop_;

  EpollPoller poller_;
  int listen_fd_ = -1;
  /// Listener deregistered for one turn after an fd-exhausted accept;
  /// established connections on every reactor keep flowing meanwhile.
  bool listener_paused_ = false;
  /// Reactors the listener deals accepted connections to round-robin
  /// (itself included); empty with one reactor.
  std::vector<Reactor*> targets_;
  std::size_t next_target_ = 0;

  /// Cross-thread intake of connections dealt by reactor 0: guarded by
  /// `intake_mu_`, signalled through the wakeup pipe.
  std::mutex intake_mu_;
  std::vector<int> intake_;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  bool shutdown_done_ = false;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;

  /// Loop-thread-local metrics (DESIGN.md Section 9), the reactor's only
  /// record of its counters. The registry is written only by the loop
  /// thread; the cached instrument pointers keep every event at a plain
  /// increment — no atomics, no locks, no name lookups. Cross-thread
  /// reads happen only through hub_ snapshot copies published once per
  /// loop turn.
  obs::Registry obs_;
  obs::Counter* c_connections_accepted_ =
      obs_.GetCounter("connections_accepted");
  obs::Counter* c_frames_received_ = obs_.GetCounter("frames_received");
  obs::Counter* c_frames_sent_ = obs_.GetCounter("frames_sent");
  obs::Counter* c_bytes_in_ = obs_.GetCounter("bytes_in");
  obs::Counter* c_bytes_out_ = obs_.GetCounter("bytes_out");
  obs::Counter* c_backpressure_stalls_ =
      obs_.GetCounter("backpressure_stalls");
  obs::Counter* c_batches_run_ = obs_.GetCounter("batches_run");
  obs::Counter* c_points_ingested_ = obs_.GetCounter("points_ingested");
  /// Times this reactor's listener was paused by an fd-exhausted accept
  /// (EMFILE/ENFILE) — strictly per-reactor, see AcceptReady.
  obs::Counter* c_listener_pauses_ = obs_.GetCounter("listener_pauses");
  obs::Histogram* h_batch_points_ = obs_.GetHistogram("batch_points");
  obs::Counter* c_slow_batches_ = obs_.GetCounter("slow_batches");
  obs::Counter* c_stats_scrapes_ = obs_.GetCounter("stats_scrapes");
  obs::Counter* c_trace_dumps_ = obs_.GetCounter("trace_dumps");
  obs::MetricsHub* const hub_;
  const std::function<StatsResp()> stats_source_;

  /// Flight recorder (DESIGN.md Section 10): per-batch pipeline spans,
  /// written only by the loop thread into the server-owned per-reactor
  /// ring. Null = tracing off (the stage hooks cost one branch each).
  obs::TraceRecorder* trace_ = nullptr;
  std::function<std::string()> trace_source_;
  /// Per-reactor batch-id generator: the reactor index in the top 16
  /// bits keeps ids globally unique, so a merged multi-reactor trace
  /// never aliases two batches. 0 is reserved for "not batch-scoped".
  std::uint64_t next_batch_seq_ = 1;

  /// Each pipeline stage's histogram in obs_ and its loop-thread-local
  /// perf totals (written into each published snapshot), indexed by
  /// TraceStage; the engine's kShardProbe row stays empty.
  struct StageSinks {
    obs::Histogram* hist = nullptr;
    obs::PerfStageTotals perf;
  };
  std::array<StageSinks, static_cast<std::size_t>(obs::TraceStage::kWrite) + 1>
      stages_;
};

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_REACTOR_H_
