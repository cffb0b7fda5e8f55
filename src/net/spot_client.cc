#include "net/spot_client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <utility>

#include "common/log.h"

namespace spot {
namespace net {

SpotClient::~SpotClient() { Disconnect(); }

RpcStatus SpotClient::Finish(bool ok) {
  if (ok) return RpcStatus::Success();
  return RpcStatus::Failure(last_code_, last_error_);
}

RpcStatus SpotClient::Connect(const std::string& host, std::uint16_t port) {
  Disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    FailTransport(std::string("socket(): ") + std::strerror(errno));
    return Finish(false);
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    FailInvalid("bad host '" + host + "' (IPv4 dotted quad expected)");
    return Finish(false);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string what = std::string("connect(): ") +
                             std::strerror(errno);
    Disconnect();
    FailTransport(what);
    return Finish(false);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  decoder_ = FrameDecoder(max_payload_);
  stash_.clear();
  outstanding_.clear();
  last_error_.clear();
  last_code_ = ErrorCode::kUnknown;
  return RpcStatus::Success();
}

void SpotClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void SpotClient::FailTransport(const std::string& what) {
  last_error_ = what;
  last_code_ = ErrorCode::kTransport;
  Disconnect();
}

void SpotClient::FailInvalid(const std::string& what) {
  last_error_ = what;
  last_code_ = ErrorCode::kInvalidArgument;
}

bool SpotClient::SendFrame(MsgType type, const std::string& payload) {
  if (fd_ < 0) {
    last_error_ = "not connected";
    last_code_ = ErrorCode::kTransport;
    return false;
  }
  // A payload over the wire cap is connection-fatal server-side (the
  // frame decoder latches corrupt and closes); refuse to send it and
  // name the real cause instead, leaving the connection untouched.
  if (payload.size() > max_payload_) {
    FailInvalid("frame payload of " + std::to_string(payload.size()) +
                " bytes exceeds the " + std::to_string(max_payload_) +
                "-byte wire cap; split the batch (or set_max_payload to "
                "match a server with a raised cap)");
    return false;
  }
  const std::string wire = EncodeFrame(type, payload);
  std::size_t off = 0;
  while (off < wire.size()) {
    // Non-blocking sends, draining inbound verdicts whenever the socket
    // is write-full: the server's backpressure stops reading us once its
    // outbound queue fills, so a client wedged inside a blocking send —
    // never consuming the verdicts that would unwedge the server — would
    // deadlock both sides. Interleaving the drain here makes even a
    // single frame larger than every buffer involved make progress.
    const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!DrainPending()) return false;  // also detects peer close
        pollfd p{fd_, POLLIN | POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      FailTransport(std::string("send(): ") + std::strerror(errno));
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_sent_ += wire.size();
  return true;
}

bool SpotClient::StashVerdicts(const Frame& frame) {
  VerdictsResp resp;
  if (!DecodeVerdicts(frame.payload, &resp)) {
    FailTransport("malformed verdicts frame from server");
    return false;
  }
  // Ordering sanity check against the ids we ingested (see outstanding_).
  std::deque<std::uint64_t>& pending = outstanding_[resp.session_id];
  if (!resp.verdicts.empty()) {
    if (resp.verdicts.size() > pending.size() ||
        pending.front() != resp.first_point_id) {
      FailTransport("verdict run out of order for session '" +
                    resp.session_id + "'");
      return false;
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<long>(resp.verdicts.size()));
  }
  std::vector<SpotResult>& bucket = stash_[resp.session_id];
  bucket.insert(bucket.end(),
                std::make_move_iterator(resp.verdicts.begin()),
                std::make_move_iterator(resp.verdicts.end()));
  return true;
}

void SpotClient::RecordServerError(const Frame& frame) {
  ErrorResp resp;
  if (!DecodeError(frame.payload, &resp)) {
    FailTransport("malformed error frame from server");
    return;
  }
  last_error_ = resp.message;
  last_code_ = resp.code;
}

SpotClient::Decoded SpotClient::NextReply(Frame* frame) {
  while (true) {
    const FrameDecoder::Status status = decoder_.Next(frame);
    if (status == FrameDecoder::Status::kNeedMore) return Decoded::kNeedMore;
    if (status == FrameDecoder::Status::kCorrupt) {
      FailTransport("corrupt frame from server: " + decoder_.error());
      return Decoded::kFailed;
    }
    if (frame->type == MsgType::kVerdicts) {
      if (!StashVerdicts(*frame)) return Decoded::kFailed;
      continue;
    }
    if (frame->type == MsgType::kError) {
      // Report the server's refusal whichever request it blames (an
      // ingest error surfaces at the next barrier).
      RecordServerError(*frame);
      return Decoded::kFailed;
    }
    return Decoded::kReply;
  }
}

bool SpotClient::AwaitReply(MsgType reply_type, Frame* reply) {
  if (fd_ < 0) {
    if (last_error_.empty()) FailTransport("not connected");
    return false;
  }
  char buf[65536];
  while (true) {
    switch (NextReply(reply)) {
      case Decoded::kFailed:
        return false;
      case Decoded::kReply:
        if (reply->type == reply_type) return true;
        FailTransport("unexpected frame type from server");
        return false;
      case Decoded::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      FailTransport("server closed the connection");
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      FailTransport(std::string("recv(): ") + std::strerror(errno));
      return false;
    }
    bytes_received_ += static_cast<std::uint64_t>(n);
    decoder_.Append(buf, static_cast<std::size_t>(n));
  }
}

bool SpotClient::AwaitOk(MsgType request) {
  Frame frame;
  if (!AwaitReply(MsgType::kOk, &frame)) return false;
  OkResp resp;
  if (!DecodeOk(frame.payload, &resp) ||
      resp.request_type != static_cast<std::uint8_t>(request)) {
    FailTransport("out-of-order Ok from server");
    return false;
  }
  return true;
}

RpcStatus SpotClient::TraceDump(std::string* json) {
  json->clear();
  Frame frame;
  if (!SendFrame(MsgType::kTraceDump, std::string()) ||
      !AwaitReply(MsgType::kTraceResp, &frame)) {
    return Finish(false);
  }
  // The payload IS the Chrome-trace JSON document — no codec.
  *json = std::move(frame.payload);
  return RpcStatus::Success();
}

RpcStatus SpotClient::Stats(StatsResp* out) {
  *out = StatsResp{};
  Frame frame;
  if (!SendFrame(MsgType::kStats, std::string()) ||
      !AwaitReply(MsgType::kStatsResp, &frame)) {
    return Finish(false);
  }
  if (!DecodeStats(frame.payload, out)) {
    FailTransport("malformed stats frame from server");
    return Finish(false);
  }
  return RpcStatus::Success();
}

RpcStatus SpotClient::TopK(const std::string& id, std::uint32_t k,
                           std::vector<TopKEntry>* out) {
  out->clear();
  QueryTopKReq req;
  req.session_id = id;
  req.k = k;
  Frame frame;
  if (!SendFrame(MsgType::kQueryTopK, EncodeQueryTopK(req)) ||
      !AwaitReply(MsgType::kTopKResp, &frame)) {
    return Finish(false);
  }
  TopKResp resp;
  if (!DecodeTopK(frame.payload, &resp) || resp.session_id != id) {
    FailTransport("malformed top-k frame from server");
    return Finish(false);
  }
  *out = std::move(resp.entries);
  return RpcStatus::Success();
}

bool SpotClient::DrainPending() {
  if (fd_ < 0) return false;
  char buf[65536];
  std::string lost;  // why the transport ended, if it did
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      lost = "server closed the connection";
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      lost = std::string("recv(): ") + std::strerror(errno);
      break;
    }
    bytes_received_ += static_cast<std::uint64_t>(n);
    decoder_.Append(buf, static_cast<std::size_t>(n));
  }
  // Only verdict runs can legitimately be in flight outside a barrier.
  // The frames that arrived are decoded before a lost transport is
  // reported: a refusal the server sent just before closing keeps its
  // code and cause.
  Frame frame;
  switch (NextReply(&frame)) {
    case Decoded::kNeedMore:
      if (lost.empty()) return true;
      FailTransport(lost);
      return false;
    case Decoded::kFailed:
      Disconnect();  // an asynchronous kError: the server closes on us
      return false;
    case Decoded::kReply:
      break;
  }
  FailTransport("unexpected frame type outside a barrier");
  return false;
}

RpcStatus SpotClient::CreateSession(
    const std::string& id, const SpotConfig& config,
    const std::vector<std::vector<double>>& training) {
  // The wire encodes the training matrix as rows * dims cells, so a
  // ragged matrix would produce a payload the server can only reject as
  // generically malformed (closing the connection). Fail fast here with
  // an error that names the offending row instead.
  for (std::size_t i = 0; i < training.size(); ++i) {
    if (training[i].size() != training.front().size()) {
      FailInvalid("ragged training matrix: row " + std::to_string(i) +
                  " has " + std::to_string(training[i].size()) +
                  " attributes, row 0 has " +
                  std::to_string(training.front().size()));
      return Finish(false);
    }
  }
  CreateSessionReq req;
  req.session_id = id;
  req.config = config;
  req.training = training;
  return Finish(
      SendFrame(MsgType::kCreateSession, EncodeCreateSession(req)) &&
      AwaitOk(MsgType::kCreateSession));
}

RpcStatus SpotClient::ResumeSession(const std::string& id) {
  ResumeSessionReq req{id};
  return Finish(
      SendFrame(MsgType::kResumeSession, EncodeResumeSession(req)) &&
      AwaitOk(MsgType::kResumeSession));
}

RpcStatus SpotClient::Ingest(const std::string& id,
                             const std::vector<DataPoint>& points) {
  // Same wire constraint as the training matrix: a batch mixing point
  // dimensions cannot be encoded; name the offender instead of letting
  // the server drop the connection on a malformed payload.
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].values.size() != points.front().values.size()) {
      FailInvalid("mixed-dimension ingest batch: point " +
                  std::to_string(i) + " has " +
                  std::to_string(points[i].values.size()) +
                  " attributes, point 0 has " +
                  std::to_string(points.front().values.size()));
      return Finish(false);
    }
  }
  IngestReq req;
  req.session_id = id;
  req.points = points;
  if (!SendFrame(MsgType::kIngest, EncodeIngest(req))) {
    return Finish(false);
  }
  std::deque<std::uint64_t>& pending = outstanding_[id];
  for (const DataPoint& p : points) pending.push_back(p.id);
  // Opportunistic drain keeps the pipeline deadlock-free (see class doc).
  return Finish(DrainPending());
}

void SpotClient::TakeStash(const std::string& id,
                           std::vector<SpotResult>* verdicts) {
  auto it = stash_.find(id);
  if (it != stash_.end()) {
    if (verdicts != nullptr) {
      verdicts->insert(verdicts->end(),
                       std::make_move_iterator(it->second.begin()),
                       std::make_move_iterator(it->second.end()));
    }
    stash_.erase(it);
  }
}

RpcStatus SpotClient::Flush(const std::string& id,
                            std::vector<SpotResult>* verdicts) {
  FlushReq req{id};
  if (!SendFrame(MsgType::kFlush, EncodeFlush(req)) ||
      !AwaitOk(MsgType::kFlush)) {
    return Finish(false);
  }
  TakeStash(id, verdicts);
  return RpcStatus::Success();
}

RpcStatus SpotClient::Checkpoint(const std::string& id) {
  CheckpointReq req{id};
  return Finish(SendFrame(MsgType::kCheckpoint, EncodeCheckpoint(req)) &&
                AwaitOk(MsgType::kCheckpoint));
}

RpcStatus SpotClient::Feedback(
    const std::string& id, const std::vector<std::uint64_t>& point_ids,
    const std::vector<std::vector<double>>& examples) {
  if (point_ids.empty() && examples.empty()) {
    FailInvalid("feedback carries no labels (no point ids, no examples)");
    return Finish(false);
  }
  // Rectangularity, like CreateSession's training matrix: the wire
  // carries one rows*dims block.
  for (std::size_t i = 0; i < examples.size(); ++i) {
    if (examples[i].size() != examples.front().size()) {
      FailInvalid("ragged feedback examples: row " + std::to_string(i) +
                  " has " + std::to_string(examples[i].size()) +
                  " attributes, row 0 has " +
                  std::to_string(examples.front().size()));
      return Finish(false);
    }
  }
  FeedbackReq req;
  req.session_id = id;
  req.point_ids = point_ids;
  req.examples = examples;
  return Finish(SendFrame(MsgType::kFeedback, EncodeFeedback(req)) &&
                AwaitOk(MsgType::kFeedback));
}

RpcStatus SpotClient::CloseSession(const std::string& id, bool persist,
                                   std::vector<SpotResult>* verdicts) {
  CloseSessionReq req{id, persist};
  if (!SendFrame(MsgType::kCloseSession, EncodeCloseSession(req)) ||
      !AwaitOk(MsgType::kCloseSession)) {
    return Finish(false);
  }
  TakeStash(id, verdicts);
  outstanding_.erase(id);  // the session is gone; drop its id queue
  return RpcStatus::Success();
}

}  // namespace net
}  // namespace spot
