#ifndef SPOT_NET_PROTOCOL_H_
#define SPOT_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/detector.h"
#include "core/spot_config.h"
#include "core/topk_outliers.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "stream/data_point.h"

namespace spot {
namespace net {

/// SPOT wire protocol v3 (DESIGN.md Sections 7 and 11). There is one
/// dialect: a frame stamped with any version byte but kWireVersion is
/// corrupt, and every kError payload carries a machine-readable ErrorCode.
///
/// Every message is one *frame*: a fixed 16-byte header followed by a
/// little-endian payload. The header is
///
///     u32 magic   = kFrameMagic ("SPW1")
///     u8  version = kWireVersion
///     u8  type    (MsgType)
///     u16 flags   = 0 (reserved; receivers reject non-zero)
///     u32 payload_len
///     u32 payload_crc32 (IEEE CRC-32 of the payload bytes)
///
/// written with the checkpoint format's own codec (common/bytes.h):
/// fixed-width little-endian fields, doubles as raw IEEE-754 bit
/// patterns, u32-length-prefixed strings. Like a checkpoint it carries a
/// single version byte that readers must recognize — no optional fields
/// or skippable sections inside a version; any layout change bumps
/// kWireVersion. The CRC and the payload-length cap make frame parsing
/// safe against truncated, corrupt and oversized input: a violating frame
/// is a *connection* error (there is no way to resynchronize a byte
/// stream mid-frame), never a crash.
///
/// Conversation model (one TCP connection, strictly ordered):
///  * The client sends request frames (kCreateSession, kResumeSession,
///    kIngest, kFlush, kCheckpoint, kCloseSession).
///  * Every request except kIngest gets exactly one kOk or kError response,
///    in request order. kIngest is pipelined fire-and-forget: its verdicts
///    arrive asynchronously as kVerdicts frames, one verdict per ingested
///    point in point order, batched however the server coalesced them.
///  * kFlush is the barrier: its kOk is enqueued after every verdict for
///    the flushed session(s), so a client that reads until the kOk has
///    seen every verdict for the points it sent.

constexpr std::uint32_t kFrameMagic = 0x31575053;  // "SPW1" little-endian
constexpr std::uint8_t kWireVersion = 3;
constexpr std::size_t kFrameHeaderBytes = 16;

/// Default cap on a frame's payload. 16 MiB fits > 100k points of a
/// 20-attribute stream in one ingest frame; anything larger is taken as a
/// corrupt length field, not a legitimate request.
constexpr std::size_t kDefaultMaxPayloadBytes = 16u << 20;

enum class MsgType : std::uint8_t {
  // Requests (client -> server).
  kCreateSession = 1,  // id + full SpotConfig + training matrix
  kResumeSession = 2,  // id; attach (reopening from the checkpoint dir)
  kIngest = 3,         // id + batch of points (pipelined, no direct reply)
  kFlush = 4,          // id ("" = all sessions of this connection)
  kCheckpoint = 5,     // id ("" = all sessions of this connection)
  kCloseSession = 6,   // id + persist flag
  kStats = 7,          // empty payload; scrape the server's metrics
  kTraceDump = 8,      // empty payload; dump the flight recorder
  kFeedback = 9,       // id + labeled point ids + fresh examples
  kQueryTopK = 10,     // id + k; ask for the worst current outliers

  // Responses (server -> client).
  kOk = 16,         // echoes the request type it answers
  kError = 17,      // echoes the request type + error code + message
  kVerdicts = 18,   // id + verdicts for a coalesced run of ingested points
  kStatsResp = 19,  // whole-server metrics snapshot (answers kStats)
  kTraceResp = 20,  // raw Chrome-trace JSON bytes (answers kTraceDump)
  kTopKResp = 21,   // id + top-k outlier entries (answers kQueryTopK)
};

/// True for the request-role message types the server serves. Any other
/// type on a request stream is refused with kError(kUnsupportedRequest)
/// and the connection closes.
bool IsRequestType(std::uint8_t type);

/// Machine-readable cause carried by every kError payload: clients branch
/// on the code, never on message text. Codes are part of the wire
/// contract — append, never renumber.
enum class ErrorCode : std::uint16_t {
  /// An unrecognized value (never sent by a server).
  kUnknown = 0,
  kSessionUnknown = 1,     // no such session (or its reload failed)
  kSessionExists = 2,      // create of an id that is already live
  kNotAttached = 3,        // session not attached to this connection
  kAttachedElsewhere = 4,  // session attached to another connection
  // 5 is retired; never reassign it.
  kUnsupportedRequest = 6, // not a request type the server serves
  kMalformedPayload = 7,   // undecodable or semantically invalid payload
  kLearnFailed = 8,        // CreateSession's offline learning failed
  kIngestFailed = 9,       // service refused the batch
  kCheckpointFailed = 10,  // checkpoint write failed / no directory
  kStatsUnavailable = 11,  // not sent: every server answers kStats
  kTracingDisabled = 12,   // flight recorder not enabled
  kFeedbackFailed = 13,    // detector refused the feedback round

  // Client-local codes (never sent by a server).
  kInvalidArgument = 100,  // refused client-side before any send
  kTransport = 101,        // connection failed mid-conversation
};

/// Stable lower-case name (for logs and tools; never parsed back).
const char* ErrorCodeName(ErrorCode code);

/// IEEE CRC-32 of frame payloads: the library's one CRC (common/bytes.h).
using spot::Crc32;

// ---------------------------------------------------------------- frames --

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Serializes one frame (header + payload) ready for the socket.
std::string EncodeFrame(MsgType type, const std::string& payload);

/// Incremental frame parser over an arriving byte stream.
///
/// Feed bytes with Append() as they arrive; Next() yields complete frames.
/// Corruption (bad magic, a version other than kWireVersion, non-zero
/// flags, CRC mismatch, payload over `max_payload`) is terminal: the
/// decoder latches kCorrupt and the connection must be closed. Truncation
/// is simply kNeedMore.
///
/// Memory bound: every kNeedMore return reclaims the prefix consumed by
/// already-delivered frames, so the internal buffer never holds more than
/// one in-flight frame (<= 16 + max_payload bytes) plus whatever the last
/// Append delivered — a connection cannot grow it without bound by pacing
/// frames across reads.
class FrameDecoder {
 public:
  enum class Status { kFrame, kNeedMore, kCorrupt };

  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void Append(const char* data, std::size_t len);

  Status Next(Frame* out);

  /// Human-readable reason after kCorrupt.
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed by complete frames.
  std::size_t buffered() const { return buf_.size() - off_; }

  /// Total bytes held internally, including any consumed-but-unreclaimed
  /// prefix (observability for the memory-bound regression test).
  std::size_t buffer_bytes() const { return buf_.size(); }

 private:
  Status Corrupt(const std::string& reason);
  /// Erases the consumed prefix so drained Next() loops leave at most one
  /// partial frame buffered (see the class-level memory bound).
  void Reclaim();

  std::size_t max_payload_;
  std::string buf_;
  std::size_t off_ = 0;
  bool corrupt_ = false;
  std::string error_;
};

// -------------------------------------------------------- request codecs --

struct CreateSessionReq {
  std::string session_id;
  SpotConfig config;
  std::vector<std::vector<double>> training;  // rectangular, row-major
};

struct ResumeSessionReq {
  std::string session_id;
};

struct IngestReq {
  std::string session_id;
  std::vector<DataPoint> points;  // all the same dimension
};

struct FlushReq {
  std::string session_id;  // "" = every session of the connection
};

struct CheckpointReq {
  std::string session_id;  // "" = every session of the connection
};

struct CloseSessionReq {
  std::string session_id;
  bool persist = true;
};

/// Supervised feedback: label previously ingested points by id
/// (resolved against the session's top-k retention window server-side)
/// and/or submit fresh labeled outlier examples (rectangular, the
/// session's dimensionality). Answered kOk/kError after the round ran at
/// a batch boundary of the session's stream.
struct FeedbackReq {
  std::string session_id;
  std::vector<std::uint64_t> point_ids;
  std::vector<std::vector<double>> examples;  // rectangular, row-major
};

/// Ask for the k worst outliers in the session's current window.
struct QueryTopKReq {
  std::string session_id;
  std::uint32_t k = 0;
};

std::string EncodeCreateSession(const CreateSessionReq& req);
bool DecodeCreateSession(const std::string& payload, CreateSessionReq* out);

std::string EncodeResumeSession(const ResumeSessionReq& req);
bool DecodeResumeSession(const std::string& payload, ResumeSessionReq* out);

std::string EncodeIngest(const IngestReq& req);
bool DecodeIngest(const std::string& payload, IngestReq* out);

std::string EncodeFlush(const FlushReq& req);
bool DecodeFlush(const std::string& payload, FlushReq* out);

std::string EncodeCheckpoint(const CheckpointReq& req);
bool DecodeCheckpoint(const std::string& payload, CheckpointReq* out);

std::string EncodeCloseSession(const CloseSessionReq& req);
bool DecodeCloseSession(const std::string& payload, CloseSessionReq* out);

std::string EncodeFeedback(const FeedbackReq& req);
bool DecodeFeedback(const std::string& payload, FeedbackReq* out);

std::string EncodeQueryTopK(const QueryTopKReq& req);
bool DecodeQueryTopK(const std::string& payload, QueryTopKReq* out);

// ------------------------------------------------------- response codecs --

struct OkResp {
  std::uint8_t request_type = 0;  // the MsgType this Ok answers
};

/// kError payload: `u8 request_type, u16 code, str message`.
struct ErrorResp {
  std::uint8_t request_type = 0;
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

/// Verdicts for one coalesced run of a session's ingested points, in point
/// order. `first_point_id` is the DataPoint::id of the first covered point
/// (a client-side ordering sanity check, not a correlation key: verdicts
/// are matched to points purely by per-session arrival order).
struct VerdictsResp {
  std::string session_id;
  std::uint64_t first_point_id = 0;
  std::vector<SpotResult> verdicts;
};

std::string EncodeOk(const OkResp& resp);
bool DecodeOk(const std::string& payload, OkResp* out);

std::string EncodeError(const ErrorResp& resp);
bool DecodeError(const std::string& payload, ErrorResp* out);

std::string EncodeVerdicts(const VerdictsResp& resp);
bool DecodeVerdicts(const std::string& payload, VerdictsResp* out);

/// One past the last verdict of the longest run from `begin` whose
/// EncodeVerdicts payload for `session_id` fits in `max_payload` bytes.
/// The run takes at least one verdict, so a verdict that alone exceeds
/// the cap still travels, in a payload of its own.
std::size_t VerdictRunEnd(const std::string& session_id,
                          const std::vector<SpotResult>& verdicts,
                          std::size_t begin, std::size_t max_payload);

/// Whole-server metrics snapshot (answers kStats; DESIGN.md Section 9).
/// One section per reactor (pipeline-stage histograms + transport
/// counters + connection gauges), one for the server's service
/// (checkpoint durations, eviction/reload counters, resident-session
/// gauges) and the service's labeled detection-quality sections
/// (SpotService::QualitySnapshot). A kStats *request* carries an empty
/// payload; anything else is malformed and closes the connection like any
/// other bad request payload.
struct StatsResp {
  std::vector<obs::MetricsSnapshot> reactors;  // index == reactor index
  obs::MetricsSnapshot service;
  /// `session="id"` and `session="id",subspace="0x…"` sections, sessions
  /// in id order.
  std::vector<obs::LabeledSnapshot> sessions;

  /// The reactors and the service folded into one snapshot
  /// (counters/gauges sum, histograms merge).
  obs::MetricsSnapshot Merged() const;
};

std::string EncodeStats(const StatsResp& resp);
bool DecodeStats(const std::string& payload, StatsResp* out);

/// Canonical byte encoding of a verdict list (the kVerdicts payload body,
/// doubles as raw bit patterns). Two verdict sequences are equal *as
/// detector output* iff their VerdictBytes match — the differential tests
/// and the loadgen's --verify mode compare server round-trip verdicts to
/// in-process SpotService output through exactly this function.
void EncodeVerdictList(const std::vector<SpotResult>& verdicts,
                       ByteWriter* w);
bool DecodeVerdictList(ByteReader* r, std::vector<SpotResult>* out);
std::string VerdictBytes(const std::vector<SpotResult>& verdicts);

/// Answers kQueryTopK: the session's k worst current outliers, best
/// first. Each entry carries identity (point id + tick), raw and decayed
/// score, and the outlying-subspace findings — but *not* the point's
/// attribute values, which stay server-side (label them by id via
/// kFeedback instead of re-uploading them).
struct TopKResp {
  std::string session_id;
  std::vector<TopKEntry> entries;
};

std::string EncodeTopK(const TopKResp& resp);
bool DecodeTopK(const std::string& payload, TopKResp* out);

/// Canonical byte encoding of a top-k entry list (the kTopKResp payload
/// body, values omitted — the VerdictBytes sibling for query results).
/// Two top-k answers are equal iff their TopKBytes match; the loadgen's
/// --verify mode and the differential tests compare through this.
void EncodeTopKEntryList(const std::vector<TopKEntry>& entries,
                         ByteWriter* w);
bool DecodeTopKEntryList(ByteReader* r, std::vector<TopKEntry>* out);
std::string TopKBytes(const std::vector<TopKEntry>& entries);

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_PROTOCOL_H_
