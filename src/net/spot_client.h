#ifndef SPOT_NET_SPOT_CLIENT_H_
#define SPOT_NET_SPOT_CLIENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/spot_config.h"
#include "net/protocol.h"
#include "stream/data_point.h"

namespace spot {
namespace net {

/// Uniform status of one client RPC (DESIGN.md Section 11): every
/// SpotClient call returns the same shape — success, a machine-readable
/// ErrorCode, and a human-readable cause — so callers branch on the code
/// and never on message text. `code` distinguishes server refusals
/// (carried on the wire by a kError), client-side validation failures
/// (kInvalidArgument, nothing was sent) and transport breakage
/// (kTransport, the connection is gone). Tests in boolean contexts as
/// `if (!status)`; the explicit conversion keeps it out of arithmetic.
struct RpcStatus {
  bool ok = true;
  ErrorCode code = ErrorCode::kUnknown;
  std::string cause;

  explicit operator bool() const { return ok; }

  static RpcStatus Success() { return RpcStatus{}; }
  static RpcStatus Failure(ErrorCode code, std::string cause) {
    RpcStatus s;
    s.ok = false;
    s.code = code;
    s.cause = std::move(cause);
    return s;
  }
};

/// Small blocking client for the SPOT wire protocol (DESIGN.md Section 7).
///
/// Ingest is *pipelined*: it writes the frame and returns without waiting,
/// so a caller can stream many batches back-to-back and let the server
/// coalesce them. Verdicts arriving meanwhile are drained opportunistically
/// (non-blocking) after every send — which is what keeps a deep pipeline
/// deadlock-free: the server's write-side backpressure stops reading when
/// its outbound queue fills, and a client that only wrote without ever
/// reading would wedge both sides. Flush() is the barrier: it blocks until
/// the server confirms every pending point of the session was processed,
/// and returns the session's verdicts accumulated since the last barrier,
/// one per ingested point in point order.
///
/// The client is single-threaded and not thread-safe; use one client per
/// connection (the load generator runs one per worker thread).
class SpotClient {
 public:
  SpotClient() = default;
  ~SpotClient();

  SpotClient(const SpotClient&) = delete;
  SpotClient& operator=(const SpotClient&) = delete;

  /// Connects to `host:port` (IPv4 dotted quad or "localhost").
  RpcStatus Connect(const std::string& host, std::uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Creates and learns a session on the server (blocks for the Ok).
  /// `training` must be rectangular — the wire carries one rows*dims
  /// matrix — so a ragged input fails fast here (kInvalidArgument, row
  /// named in the cause) without touching the connection.
  RpcStatus CreateSession(const std::string& id, const SpotConfig& config,
                          const std::vector<std::vector<double>>& training);

  /// Re-attaches a session that is live on the server or resumable from
  /// its checkpoint directory (blocks for the Ok).
  RpcStatus ResumeSession(const std::string& id);

  /// Pipelined ingest: sends the batch and returns. Verdicts are
  /// collected per session and handed out by the next Flush(). Every
  /// point in the batch must have the same dimension (fails fast
  /// client-side otherwise, like CreateSession's training matrix).
  RpcStatus Ingest(const std::string& id,
                   const std::vector<DataPoint>& points);

  /// Barrier: forces the server to process everything pending for `id`
  /// and appends all of the session's verdicts received since the last
  /// Flush() to `verdicts` (nullptr discards them). Blocks for the Ok.
  RpcStatus Flush(const std::string& id, std::vector<SpotResult>* verdicts);

  /// Server-side checkpoint of `id`, which must be attached to this
  /// connection, or of every session attached to it when `id` is empty
  /// (blocks for the Ok).
  RpcStatus Checkpoint(const std::string& id = "");

  /// Supervised feedback round: label previously ingested points by id —
  /// they must still be retained in the session's top-k window
  /// server-side — and/or submit fresh labeled outlier examples of the
  /// session's dimensionality. The server forces a batch boundary first,
  /// so the round lands at the same stream position an in-process caller
  /// would see, and the verdict stream stays bit-identical. Blocks for
  /// the Ok.
  RpcStatus Feedback(const std::string& id,
                     const std::vector<std::uint64_t>& point_ids,
                     const std::vector<std::vector<double>>& examples);

  /// Streaming top-k query: the session's k worst outliers in the
  /// current (omega, epsilon)-decayed window, best first, with their
  /// outlying-subspace findings. Read-only server-side — interleaving
  /// queries never perturbs the verdict stream. Blocks for the
  /// kTopKResp.
  RpcStatus TopK(const std::string& id, std::uint32_t k,
                 std::vector<TopKEntry>* out);

  /// Scrapes the server's observability snapshot (blocks for the
  /// kStatsResp; interleaved verdicts are stashed as usual). Fails when
  /// the server answers with an error.
  RpcStatus Stats(StatsResp* out);

  /// Dumps the server's flight recorder (blocks for the kTraceResp;
  /// interleaved verdicts are stashed as usual). `json` receives the raw
  /// Chrome-trace JSON bytes. Fails with kTracingDisabled when the
  /// recorder is off server-side.
  RpcStatus TraceDump(std::string* json);

  /// Closes the session on the server. Implies a flush of its pending
  /// points; trailing verdicts are appended to `verdicts` when non-null.
  RpcStatus CloseSession(const std::string& id, bool persist = true,
                         std::vector<SpotResult>* verdicts = nullptr);

  /// Wire payload cap in both directions: requests over it are refused
  /// fail-fast (an over-cap frame is connection-fatal server-side), and
  /// Connect() sizes the receive decoder with it. Defaults to the
  /// protocol's kDefaultMaxPayloadBytes; set it BEFORE Connect() to
  /// match a server with a non-default SpotServerConfig::max_payload_bytes.
  void set_max_payload(std::size_t bytes) { max_payload_ = bytes; }
  std::size_t max_payload() const { return max_payload_; }

  /// Cause of the last failed call (empty when none) — the same string
  /// as the returned RpcStatus::cause, kept for log lines and tools.
  const std::string& last_error() const { return last_error_; }
  /// Code of the last failed call (kUnknown when none failed yet).
  ErrorCode last_code() const { return last_code_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  /// Writes one frame fully (blocking). False on a transport error.
  bool SendFrame(MsgType type, const std::string& payload);
  /// Blocks until the reply to the request just sent arrives: verdict
  /// runs on the way are stashed; a kError is recorded (cause in
  /// last_error_, code in last_code_) and returns false, as does a
  /// transport failure or any frame type other than `reply_type`. On true
  /// `*reply` holds the reply frame for the caller to decode.
  bool AwaitReply(MsgType reply_type, Frame* reply);
  /// AwaitReply for the kOk answering `request`.
  bool AwaitOk(MsgType request);
  /// Non-blocking read: stashes any already-arrived verdict runs. A kError
  /// here is asynchronous (the server closes after it): its code and
  /// cause are recorded and the connection is dropped.
  bool DrainPending();
  enum class Decoded { kReply, kNeedMore, kFailed };
  /// Decodes buffered frames, stashing verdict runs, until a reply frame
  /// (kReply, in `*frame`), an empty buffer (kNeedMore) or a failure
  /// (kFailed: a kError was recorded, or the transport failed).
  Decoded NextReply(Frame* frame);
  bool StashVerdicts(const Frame& frame);
  /// Moves `id`'s stashed verdicts onto `verdicts` (nullptr discards).
  void TakeStash(const std::string& id, std::vector<SpotResult>* verdicts);
  /// Records a kError frame's cause + code; a malformed one fails the
  /// transport.
  void RecordServerError(const Frame& frame);
  void FailTransport(const std::string& what);
  void FailInvalid(const std::string& what);
  /// The RpcStatus for the bool the internal helpers produced.
  RpcStatus Finish(bool ok);

  int fd_ = -1;
  std::size_t max_payload_ = kDefaultMaxPayloadBytes;
  FrameDecoder decoder_;
  std::string last_error_;
  ErrorCode last_code_ = ErrorCode::kUnknown;
  std::map<std::string, std::vector<SpotResult>> stash_;
  /// Ids of ingested points awaiting verdicts, per session. Each arriving
  /// verdict run is checked against this queue: its first_point_id must
  /// match the oldest outstanding point and it must not cover more points
  /// than are outstanding — a server delivering runs out of order or for
  /// the wrong offset fails the transport instead of silently
  /// mis-attributing verdicts.
  std::map<std::string, std::deque<std::uint64_t>> outstanding_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_SPOT_CLIENT_H_
