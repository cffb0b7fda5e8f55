#include "net/reactor.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/log.h"
#include "service/spot_service.h"

namespace spot {
namespace net {

namespace {

/// Upper bound on one epoll wait, which is also the cadence at which
/// Stop()/SIGTERM is noticed when the server is idle.
constexpr int kPollIntervalMs = 50;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The reactor index an attachment token names (see Reactor::Owner).
int ReactorOfOwner(std::uint64_t owner) {
  return static_cast<int>(owner >> 32) - 1;
}

}  // namespace

Reactor::Reactor(int index, const SpotServerConfig& config,
                 SpotService* service, const std::atomic<bool>* stop,
                 obs::MetricsHub* hub, std::function<StatsResp()> stats_source)
    : index_(index),
      config_(config),
      service_(service),
      stop_(stop),
      hub_(hub),
      stats_source_(std::move(stats_source)) {
  for (const obs::TraceStage stage : obs::kReactorStages) {
    stages_[static_cast<std::size_t>(stage)].hist =
        obs_.GetHistogram(obs::StageHistogramName(stage));
  }
}

Reactor::~Reactor() { Shutdown(); }

bool Reactor::Init() {
  if (!poller_.Open()) {
    SPOT_LOG(Error) << "reactor " << index_
                    << ": epoll_create1(): " << std::strerror(errno);
    return false;
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    SPOT_LOG(Error) << "reactor " << index_
                    << ": pipe(): " << std::strerror(errno);
    return false;
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  if (!SetNonBlocking(wake_rd_) || !SetNonBlocking(wake_wr_)) {
    return false;
  }
  poller_.Add(wake_rd_, /*read=*/true, /*write=*/false);
  return true;
}

void Reactor::AdoptListener(int fd, std::vector<Reactor*> targets) {
  listen_fd_ = fd;
  targets_ = std::move(targets);
  poller_.Add(listen_fd_, /*read=*/true, /*write=*/false);
}

void Reactor::SetTracing(obs::TraceRecorder* recorder,
                         std::function<std::string()> trace_source) {
  trace_ = recorder;
  trace_source_ = std::move(trace_source);
}

void Reactor::Run() {
  while (RunOnce(kPollIntervalMs)) {
  }
  Shutdown();
}

bool Reactor::RunOnce(int timeout_ms) {
  if (stopping() || !poller_.is_open() || shutdown_done_) return false;
  std::vector<EpollPoller::Event> events;
  if (poller_.Wait(timeout_ms, &events) < 0) {
    SPOT_LOG(Error) << "reactor " << index_
                    << ": event wait failed: " << std::strerror(errno);
    return false;
  }
  if (listener_paused_) {
    // Re-arm the listener paused by an fd-exhausted accept. This must
    // happen AFTER a Wait, not before it: re-arming first would put the
    // still-unaccepted connection right back into the wait set, making
    // it return immediately and turning the "pause" into a hot
    // accept/EMFILE spin. Waiting once without the listener restores
    // the idle cadence the pause exists to protect.
    poller_.Add(listen_fd_, /*read=*/true, /*write=*/false);
    listener_paused_ = false;
  }
  for (const EpollPoller::Event& ev : events) {
    if (ev.fd == wake_rd_) {
      DrainIntake();
      continue;
    }
    if (ev.fd == listen_fd_) {
      AcceptReady();
      continue;
    }
    if (ev.error && conns_.count(ev.fd) > 0) {
      CloseConn(ev.fd, CloseCause::kSocketError);
      continue;
    }
    if (ev.readable) ReadReady(ev.fd);
    if (ev.writable) WriteReady(ev.fd);  // re-checks liveness itself
  }
  // End-of-turn batch cut: whatever points arrived together in this turn
  // are processed together (the coalescing the protocol is built around).
  FlushAllPending();
  // Deferred closes: connections marked want_close go once their output
  // drained (or their socket broke).
  std::vector<std::pair<int, CloseCause>> doomed;
  for (const auto& [fd, conn] : conns_) {
    if (conn->want_close && conn->out_off >= conn->outbuf.size()) {
      doomed.emplace_back(fd, conn->close_cause);
    }
  }
  for (const auto& [fd, cause] : doomed) CloseConn(fd, cause);
  PublishMetrics();
  return !stopping();
}

obs::Stage Reactor::Measure(obs::TraceStage stage) {
  StageSinks& sinks = stages_[static_cast<std::size_t>(stage)];
  return obs::Stage(sinks.hist, &sinks.perf, trace_, stage);
}

void Reactor::PublishMetrics() {
  std::size_t pending_points = 0;
  std::size_t queued_bytes = 0;
  for (const auto& [fd, conn] : conns_) {
    for (const auto& [id, pending] : conn->pending) {
      pending_points += pending.size();
    }
    queued_bytes += conn->outbuf.size() - conn->out_off;
  }
  obs_.GetGauge("connections")->Set(static_cast<double>(conns_.size()));
  obs_.GetGauge("pending_points")->Set(static_cast<double>(pending_points));
  obs_.GetGauge("outbound_queued_bytes")
      ->Set(static_cast<double>(queued_bytes));
  obs::MetricsSnapshot snap = obs_.Snapshot();
  for (const obs::TraceStage stage : obs::kReactorStages) {
    obs::WritePerfTotals(&snap, obs::StagePerfLabels(stage),
                         stages_[static_cast<std::size_t>(stage)].perf);
  }
  hub_->Publish(static_cast<std::size_t>(index_), std::move(snap));
}

void Reactor::Shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // Process every connection's pending points (they arrived; the engine
  // state must reflect them before the checkpoint), push what we can of
  // the outbound queues without blocking, and close.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    for (auto& [id, pending] : conn.pending) {
      if (!pending.empty()) ProcessPending(conn, id, /*all=*/true);
    }
    TryFlush(conn);
    CloseConn(fd, CloseCause::kShutdown);
  }
  if (listen_fd_ >= 0) {
    if (poller_.is_open()) poller_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    // Accepted but never adopted connections just close.
    std::lock_guard<std::mutex> lock(intake_mu_);
    for (int fd : intake_) ::close(fd);
    intake_.clear();
  }
  if (wake_rd_ >= 0) {
    if (poller_.is_open()) poller_.Remove(wake_rd_);
    ::close(wake_rd_);
    ::close(wake_wr_);
    wake_rd_ = wake_wr_ = -1;
  }
  poller_.Close();
  PublishMetrics();  // final snapshot covers the shutdown drain
}

// ----------------------------------------------------------- connections --

void Reactor::EnqueueConn(int fd) {
  {
    std::lock_guard<std::mutex> lock(intake_mu_);
    intake_.push_back(fd);
  }
  // Wake the loop; a full pipe is fine — the byte already in it wakes us.
  const char byte = 1;
  (void)!::write(wake_wr_, &byte, 1);
}

void Reactor::DrainIntake() {
  char buf[64];
  while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
  }
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(intake_mu_);
    fds.swap(intake_);
  }
  for (int fd : fds) AdoptConn(fd);
}

void Reactor::AdoptConn(int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->decoder = FrameDecoder(config_.max_payload_bytes);
  poller_.Add(fd, /*read=*/true, /*write=*/false);
  conns_.emplace(fd, std::move(conn));
  c_connections_accepted_->Inc();
}

void Reactor::AcceptReady() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors with a connection still queued: the
        // level-triggered listen fd would re-fire every Wait and spin
        // this loop hot. Deregister it for one turn (RunOnce re-arms it)
        // so the degraded reactor keeps its idle cadence; established
        // connections on every reactor keep flowing.
        SPOT_LOG(Error) << "reactor " << index_
                        << ": accept(): " << std::strerror(errno)
                        << "; pausing this reactor's listener for one turn";
        poller_.Remove(listen_fd_);
        listener_paused_ = true;
        c_listener_pauses_->Inc();
      }
      return;  // EAGAIN or transient accept failure: try next turn
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sndbuf_bytes,
                   sizeof(config_.sndbuf_bytes));
    }
    if (!targets_.empty()) {
      // Deal connections round-robin across all reactors (deterministic
      // placement — connection k lands on reactor k % N).
      Reactor* target = targets_[next_target_ % targets_.size()];
      ++next_target_;
      if (target != this) {
        target->EnqueueConn(fd);
        continue;
      }
    }
    AdoptConn(fd);
  }
}

const char* Reactor::CloseCauseName(CloseCause cause) {
  switch (cause) {
    case CloseCause::kPeerClosed:
      return "peer_closed";
    case CloseCause::kSocketError:
      return "socket_error";
    case CloseCause::kCorruptFrame:
      return "corrupt_frame";
    case CloseCause::kRefused:
      return "refused";
    case CloseCause::kWriteError:
      return "write_error";
    case CloseCause::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

void Reactor::CloseConn(int fd, CloseCause cause) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  // Points the client successfully delivered are part of the stream even
  // if it vanished before reading the verdicts: process them so the
  // session's engine state stays deterministic (the verdicts go nowhere).
  for (auto& [id, pending] : conn.pending) {
    if (!pending.empty()) ProcessPending(conn, id, /*all=*/true);
  }
  DetachSessions(conn);
  if (poller_.is_open()) poller_.Remove(fd);
  ::close(fd);
  conns_.erase(it);
  // Closes are rare, so the by-name lookup stays off every hot path, as
  // for refusals.
  obs_.GetCounter(std::string("connections_closed{cause=\"") +
                  CloseCauseName(cause) + "\"}")
      ->Inc();
}

std::uint64_t Reactor::Owner(const Conn& conn) const {
  return (static_cast<std::uint64_t>(index_ + 1) << 32) |
         static_cast<std::uint32_t>(conn.fd);
}

void Reactor::DetachSessions(Conn& conn) {
  // The sessions stay in the service, unattached; a later resume from any
  // reactor re-attaches them.
  for (const std::string& id : conn.sessions) {
    service_->DetachSession(id, Owner(conn));
  }
  conn.sessions.clear();
  conn.pending.clear();
}

// ----------------------------------------------------------------- reads --

void Reactor::ReadReady(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  char buf[65536];
  while (!conn.paused && !conn.want_close) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      CloseConn(fd, CloseCause::kPeerClosed);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConn(fd, CloseCause::kSocketError);
      return;
    }
    c_bytes_in_->Inc(static_cast<std::uint64_t>(n));
    conn.decoder.Append(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (!conn.want_close) {
      // The decode stage is FrameDecoder::Next alone; the frame's handling
      // below is accounted to the stages it runs.
      obs::Stage decode = Measure(obs::TraceStage::kDecode);
      const FrameDecoder::Status status = conn.decoder.Next(&frame);
      if (status == FrameDecoder::Status::kFrame) {
        decode.set_units(1);  // one whole frame decoded
        decode.set_points(frame.payload.size());  // bytes for byte stages
        decode.Commit();
      } else {
        // Incomplete or corrupt attempts would skew per-frame rates.
        decode.Cancel();
      }
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kCorrupt) {
        // The byte stream cannot be resynchronized mid-frame: drop the
        // connection. (Sessions stay intact; the client can reconnect.)
        SPOT_LOG(Error) << "closing connection " << fd << ": "
                        << conn.decoder.error();
        CloseConn(fd, CloseCause::kCorruptFrame);
        return;
      }
      c_frames_received_->Inc();
      if (!HandleFrame(conn, frame)) {
        // Response (if any) is queued; close once it drains.
        conn.want_close = true;
      }
    }
  }
  SyncPollerInterest(conn);
}

bool Reactor::HandleFrame(Conn& conn, const Frame& frame) {
  // Two tiers (DESIGN.md Section 11.4): a request type is served;
  // anything else is a protocol violation, refused and closed.
  const std::uint8_t type = static_cast<std::uint8_t>(frame.type);
  if (!IsRequestType(type)) {
    SendError(conn, frame.type, ErrorCode::kUnsupportedRequest,
              "unsupported request type " + std::to_string(type));
    return false;
  }
  switch (frame.type) {
    case MsgType::kCreateSession: {
      CreateSessionReq req;
      if (!DecodeCreateSession(frame.payload, &req)) break;
      // Learn() runs outside the service lock — only this id is reserved
      // meanwhile, other sessions' calls proceed.
      bool taken = false;
      if (!service_->CreateSession(req.session_id, req.config, req.training,
                                   /*knowledge=*/nullptr, Owner(conn),
                                   &taken)) {
        if (taken) {
          SendError(conn, frame.type, ErrorCode::kSessionExists,
                    "session '" + req.session_id + "' already exists");
        } else {
          SendError(conn, frame.type, ErrorCode::kLearnFailed,
                    "CreateSession('" + req.session_id +
                        "') failed (invalid id, config or training)");
        }
        return true;
      }
      conn.sessions.push_back(req.session_id);
      SendOk(conn, frame.type);
      return true;
    }
    case MsgType::kResumeSession: {
      ResumeSessionReq req;
      if (!DecodeResumeSession(frame.payload, &req)) break;
      std::uint64_t holder = 0;
      if (!service_->AttachSession(req.session_id, Owner(conn), &holder)) {
        if (holder != 0) {
          SendError(conn, frame.type, ErrorCode::kAttachedElsewhere,
                    "session '" + req.session_id +
                        "' is attached to another connection (on reactor " +
                        std::to_string(ReactorOfOwner(holder)) + ")");
        } else {
          SendError(conn, frame.type, ErrorCode::kSessionUnknown,
                    "no session or checkpoint for '" + req.session_id + "'");
        }
        return true;
      }
      if (std::find(conn.sessions.begin(), conn.sessions.end(),
                    req.session_id) == conn.sessions.end()) {
        conn.sessions.push_back(req.session_id);
      }
      SendOk(conn, frame.type);
      return true;
    }
    case MsgType::kIngest:
      if (HandleIngest(conn, frame.payload)) return true;
      return !conn.want_close;  // ingest errors close (stream ordering)
    case MsgType::kFlush: {
      FlushReq req;
      if (!DecodeFlush(frame.payload, &req)) break;
      if (!req.session_id.empty() &&
          !RequireAttached(conn, frame.type, req.session_id)) {
        return true;
      }
      bool ok = true;
      for (auto& [id, pending] : conn.pending) {
        if (!req.session_id.empty() && id != req.session_id) continue;
        if (!pending.empty()) ok &= ProcessPending(conn, id, /*all=*/true);
      }
      if (!ok) return false;  // ProcessPending queued the error
      SendOk(conn, frame.type);
      return true;
    }
    case MsgType::kCheckpoint: {
      CheckpointReq req;
      if (!DecodeCheckpoint(frame.payload, &req)) break;
      // Only this connection's sessions: a named one must be attached
      // here, an empty id means every session attached here.
      if (!req.session_id.empty() &&
          !RequireAttached(conn, frame.type, req.session_id)) {
        return true;
      }
      // A checkpoint must cover every point this connection delivered.
      for (auto& [id, pending] : conn.pending) {
        if (!pending.empty() && !ProcessPending(conn, id, /*all=*/true)) {
          return false;
        }
      }
      bool ok = true;
      for (const std::string& id : conn.sessions) {
        if (req.session_id.empty() || id == req.session_id) {
          ok &= service_->Checkpoint(id);
        }
      }
      if (ok) {
        SendOk(conn, frame.type);
      } else {
        SendError(conn, frame.type, ErrorCode::kCheckpointFailed,
                  "checkpoint failed");
      }
      return true;
    }
    case MsgType::kStats: {
      // A metrics scrape: answerable on any connection, session or not,
      // and deliberately side-effect-free on the ingest pipeline — it
      // does not cut batches, touch coalescing buffers or the service,
      // so verdicts are bit-identical with and without scrapes. The
      // request carries no payload; anything else is malformed and
      // falls through to the close-the-connection path below.
      if (!frame.payload.empty()) break;
      // Publish our own registry first so the snapshot reflects this
      // very turn; other reactors are at most one loop turn stale.
      c_stats_scrapes_->Inc();
      PublishMetrics();
      Enqueue(conn, MsgType::kStatsResp, EncodeStats(stats_source_()));
      return true;
    }
    case MsgType::kTraceDump: {
      // A flight-recorder dump: like kStats, answerable on any connection
      // and side-effect-free on the ingest pipeline (the rings are read
      // under their own locks; nothing is cut or cleared). Empty payload
      // required; anything else is malformed and closes the connection.
      if (!frame.payload.empty()) break;
      if (!trace_source_) {
        SendError(conn, frame.type, ErrorCode::kTracingDisabled,
                  "tracing not enabled on this server");
        return true;
      }
      c_trace_dumps_->Inc();
      Enqueue(conn, MsgType::kTraceResp, trace_source_());
      return true;
    }
    case MsgType::kCloseSession: {
      CloseSessionReq req;
      if (!DecodeCloseSession(frame.payload, &req)) break;
      if (!RequireAttached(conn, frame.type, req.session_id)) return true;
      if (!DrainSession(conn, req.session_id)) return false;
      if (!service_->CloseSession(req.session_id, req.persist)) {
        SendError(conn, frame.type, ErrorCode::kCheckpointFailed,
                  "CloseSession('" + req.session_id + "') failed");
        return true;
      }
      conn.sessions.erase(std::find(conn.sessions.begin(),
                                    conn.sessions.end(), req.session_id));
      conn.pending.erase(req.session_id);
      SendOk(conn, frame.type);
      return true;
    }
    case MsgType::kFeedback: {
      FeedbackReq req;
      if (!DecodeFeedback(frame.payload, &req)) break;
      if (!RequireAttached(conn, frame.type, req.session_id)) return true;
      // Batch-boundary barrier: the detector's tick and RNG stream sit at
      // exactly the position the in-process reference reaches before its
      // own ApplyFeedback — that positional identity is what makes the
      // differential bit-identity guarantee hold (DESIGN.md Section 11).
      if (!DrainSession(conn, req.session_id)) return false;
      std::string error;
      if (!service_->ApplyFeedback(req.session_id, req.point_ids,
                                   req.examples, &error)) {
        SendError(conn, frame.type, ErrorCode::kFeedbackFailed, error);
        return true;
      }
      SendOk(conn, frame.type);
      return true;
    }
    case MsgType::kQueryTopK: {
      QueryTopKReq req;
      if (!DecodeQueryTopK(frame.payload, &req)) break;
      if (!RequireAttached(conn, frame.type, req.session_id)) return true;
      // Same barrier as kFeedback: the query answers "after everything
      // you sent so far", never a mid-batch snapshot.
      if (!DrainSession(conn, req.session_id)) return false;
      TopKResp resp;
      resp.session_id = req.session_id;
      std::string error;
      if (!service_->QueryTopK(req.session_id, req.k, &resp.entries,
                               &error)) {
        SendError(conn, frame.type, ErrorCode::kSessionUnknown, error);
        return true;
      }
      Enqueue(conn, MsgType::kTopKResp, EncodeTopK(resp));
      return true;
    }
    default:
      break;
  }
  SendError(conn, frame.type, ErrorCode::kMalformedPayload,
            "malformed request payload");
  return false;
}

bool Reactor::HandleIngest(Conn& conn, const std::string& payload) {
  obs::Stage coalesce = Measure(obs::TraceStage::kCoalesce);
  IngestReq req;
  if (!DecodeIngest(payload, &req)) {
    coalesce.Cancel();
    SendError(conn, MsgType::kIngest, ErrorCode::kMalformedPayload,
              "malformed ingest payload");
    conn.want_close = true;
    return false;
  }
  if (!RequireAttached(conn, MsgType::kIngest, req.session_id)) {
    coalesce.Cancel();
    conn.want_close = true;
    return false;
  }
  std::vector<DataPoint>& pending = conn.pending[req.session_id];
  const std::size_t frame_points = req.points.size();
  pending.insert(pending.end(),
                 std::make_move_iterator(req.points.begin()),
                 std::make_move_iterator(req.points.end()));
  // Coalesce stage ends here; the early batch cut below is accounted to
  // the process stage by ProcessPending itself.
  coalesce.set_units(frame_points);
  coalesce.set_points(frame_points);
  coalesce.set_session(req.session_id);
  coalesce.Commit();
  // Early batch cut: keep memory bounded when a client pipelines far
  // ahead; the remainder rides the end-of-turn flush.
  if (pending.size() >= config_.batch_points) {
    return ProcessPending(conn, req.session_id, /*all=*/false);
  }
  return true;
}

// --------------------------------------------------------------- batches --

bool Reactor::ProcessPending(Conn& conn, const std::string& id, bool all) {
  std::vector<DataPoint>& pending = conn.pending[id];
  // Consume by index and erase the prefix once at the end: erasing per
  // chunk would shift the whole remainder every iteration, turning one
  // large coalesced backlog into quadratic work inside the event loop.
  std::size_t pos = 0;
  const std::size_t batch_points =
      config_.batch_points == 0 ? 1 : config_.batch_points;
  while (pending.size() - pos >= (all ? 1 : batch_points)) {
    const std::size_t n = std::min(pending.size() - pos, batch_points);
    std::vector<DataPoint> chunk;
    chunk.reserve(n);
    std::move(pending.begin() + static_cast<long>(pos),
              pending.begin() + static_cast<long>(pos + n),
              std::back_inserter(chunk));
    pos += n;
    // Batch correlation key: reactor index in the top 16 bits, a
    // per-reactor sequence below — globally unique, 0 never issued. The
    // process, shard_probe and encode spans of this chunk all carry it.
    const std::uint64_t batch_id =
        (static_cast<std::uint64_t>(index_) << 48) | next_batch_seq_++;
    // The engine's own bin/probe scopes nest inside this one (each
    // measures exactly its own window).
    obs::Stage process = Measure(obs::TraceStage::kProcess);
    process.set_units(n);
    process.set_points(n);
    process.set_batch(batch_id);
    process.set_session(id);
    IngestResult result = service_->Ingest(id, chunk);
    process.Commit();
    const double process_us = process.elapsed_us();
    h_batch_points_->Record(static_cast<double>(n));
    if (trace_ != nullptr) {
      // Per-shard probe lanes from the engine's stage record, already on
      // the shared steady-µs timebase.
      for (std::size_t k = 0; k < result.stages.probes.size(); ++k) {
        const StageEntry& probe = result.stages.probes[k];
        obs::TraceEvent shard_span;
        shard_span.stage = obs::TraceStage::kShardProbe;
        shard_span.ts_us = probe.start_us;
        shard_span.dur_us = probe.perf.clock_ns / 1000;
        shard_span.batch_id = batch_id;
        shard_span.shard = static_cast<std::int32_t>(k);
        shard_span.session = id;
        trace_->Record(std::move(shard_span));
      }
    }
    if (config_.slow_batch_warn_ms > 0.0 &&
        process_us > config_.slow_batch_warn_ms * 1e3) {
      c_slow_batches_->Inc();
      SPOT_LOG(Warning) << "reactor " << index_ << ": slow batch: session '"
                        << id << "', " << n << " points took "
                        << process_us / 1e3 << " ms (threshold "
                        << config_.slow_batch_warn_ms << " ms)";
    }
    if (!result.ok) {
      SendError(conn, MsgType::kIngest, ErrorCode::kIngestFailed,
                "Ingest('" + id + "') failed at the service");
      conn.want_close = true;
      // The session's stream ends at the refused chunk: processing the
      // points queued behind it would advance the detector past a hole.
      pending.clear();
      return false;
    }
    c_batches_run_->Inc();
    c_points_ingested_->Inc(n);
    // A large coalesced run's verdicts can encode past the wire payload
    // cap, which the client's decoder would latch as corrupt. Split the
    // run into as many kVerdicts frames as the cap requires —
    // protocol-legal (verdicts arrive "batched however the server
    // coalesced them") with first_point_id kept accurate per frame.
    std::size_t begin = 0;
    while (begin < result.verdicts.size()) {
      const std::size_t end = VerdictRunEnd(id, result.verdicts, begin,
                                            config_.max_payload_bytes);
      VerdictsResp resp;
      resp.session_id = id;
      resp.first_point_id = chunk[begin].id;
      resp.verdicts.assign(
          std::make_move_iterator(result.verdicts.begin() +
                                  static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(result.verdicts.begin() +
                                  static_cast<std::ptrdiff_t>(end)));
      obs::Stage encode = Measure(obs::TraceStage::kEncode);
      encode.set_units(resp.verdicts.size());
      encode.set_points(resp.verdicts.size());
      encode.set_batch(batch_id);
      encode.set_session(id);
      const std::string payload = EncodeVerdicts(resp);
      encode.Commit();
      Enqueue(conn, MsgType::kVerdicts, payload);
      begin = end;
    }
  }
  pending.erase(pending.begin(), pending.begin() + static_cast<long>(pos));
  return true;
}

bool Reactor::DrainSession(Conn& conn, const std::string& id) {
  auto pending = conn.pending.find(id);
  return pending == conn.pending.end() || pending->second.empty() ||
         ProcessPending(conn, id, /*all=*/true);
}

void Reactor::FlushAllPending() {
  for (auto& [fd, conn] : conns_) {
    if (conn->want_close) continue;
    for (auto& [id, pending] : conn->pending) {
      if (pending.empty()) continue;
      if (!ProcessPending(*conn, id, /*all=*/true)) break;
    }
    SyncPollerInterest(*conn);
  }
}

// ---------------------------------------------------------------- writes --

bool Reactor::RequireAttached(Conn& conn, MsgType request,
                              const std::string& id) {
  if (std::find(conn.sessions.begin(), conn.sessions.end(), id) !=
      conn.sessions.end()) {
    return true;
  }
  SendError(conn, request, ErrorCode::kNotAttached,
            "session '" + id + "' is not attached to this connection");
  return false;
}

void Reactor::Enqueue(Conn& conn, MsgType type, const std::string& payload) {
  conn.outbuf.append(EncodeFrame(type, payload));
  c_frames_sent_->Inc();
  TryFlush(conn);
  UpdateBackpressure(conn);
  SyncPollerInterest(conn);
}

void Reactor::SendOk(Conn& conn, MsgType request) {
  OkResp resp{static_cast<std::uint8_t>(request)};
  Enqueue(conn, MsgType::kOk, EncodeOk(resp));
}

void Reactor::SendError(Conn& conn, MsgType request, ErrorCode code,
                        const std::string& message) {
  ErrorResp resp;
  resp.request_type = static_cast<std::uint8_t>(request);
  resp.code = code;
  resp.message = message;
  // Refusals are rare, so the by-name counter lookup stays off every hot
  // path.
  obs_.GetCounter(std::string("refusals{code=\"") + ErrorCodeName(code) +
                  "\"}")
      ->Inc();
  Enqueue(conn, MsgType::kError, EncodeError(resp));
}

void Reactor::TryFlush(Conn& conn) {
  if (conn.out_off >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    return;
  }
  obs::Stage write = Measure(obs::TraceStage::kWrite);
  const std::size_t sent = WriteLoop(conn);
  if (sent == 0) {
    write.Cancel();  // a flush that moved no bytes is not a write
    return;
  }
  write.set_units(sent);  // bytes for byte stages
  write.set_points(sent);
}

std::size_t Reactor::WriteLoop(Conn& conn) {
  std::size_t sent = 0;
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Reclaim the sent prefix (mirroring FrameDecoder's read-side
        // bound): a connection whose queue never fully drains — e.g. a
        // consumer pacing itself around the backpressure threshold —
        // must not retain every verdict byte ever sent to it. Only past
        // a threshold, though: level-triggered epoll wakes us on every
        // sndbuf vacancy, and an unconditional erase would let a
        // byte-at-a-time consumer force an O(queued) memmove per byte
        // of progress. The memory bound holds amortized: outbuf never
        // exceeds the unsent bytes plus this threshold.
        constexpr std::size_t kOutbufReclaimBytes = 64 * 1024;
        if (conn.out_off >= kOutbufReclaimBytes) {
          conn.outbuf.erase(0, conn.out_off);
          conn.out_off = 0;
        }
        return sent;
      }
      // Peer is gone; drop the queue and let the deferred sweep close us.
      conn.outbuf.clear();
      conn.out_off = 0;
      conn.want_close = true;
      conn.close_cause = CloseCause::kWriteError;
      return sent;
    }
    conn.out_off += static_cast<std::size_t>(n);
    c_bytes_out_->Inc(static_cast<std::uint64_t>(n));
    sent += static_cast<std::size_t>(n);
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  return sent;
}

void Reactor::UpdateBackpressure(Conn& conn) {
  const std::size_t queued = conn.outbuf.size() - conn.out_off;
  if (!conn.paused && queued > config_.max_output_bytes) {
    conn.paused = true;
    c_backpressure_stalls_->Inc();
  } else if (conn.paused && queued < config_.max_output_bytes / 2) {
    conn.paused = false;
  }
}

void Reactor::SyncPollerInterest(Conn& conn) {
  if (!poller_.is_open() || conns_.count(conn.fd) == 0) return;
  const bool want_read = !conn.paused && !conn.want_close;
  const bool want_write = conn.out_off < conn.outbuf.size();
  if (want_read != conn.poll_read || want_write != conn.poll_write) {
    conn.poll_read = want_read;
    conn.poll_write = want_write;
    poller_.Update(conn.fd, want_read, want_write);
  }
}

void Reactor::WriteReady(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  TryFlush(conn);
  UpdateBackpressure(conn);
  if (conn.want_close && conn.out_off >= conn.outbuf.size()) {
    CloseConn(fd, conn.close_cause);
    return;
  }
  SyncPollerInterest(conn);
}

}  // namespace net
}  // namespace spot
