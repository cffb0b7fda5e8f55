#include "net/protocol.h"

#include "core/checkpoint.h"

namespace spot {
namespace net {

namespace {

/// The config section of a kCreateSession payload is the checkpoint
/// format's own config encoding (WriteConfigBinary / ReadConfigBinary), so
/// the wire carries every nested learning knob and the two serializers
/// cannot drift apart.
std::string ConfigBlob(const SpotConfig& config) {
  ByteWriter w;
  WriteConfigBinary(w, config);
  return w.Take();
}

bool ParseConfigBlob(const std::string& blob, SpotConfig* out) {
  ByteReader r(blob);
  return ReadConfigBinary(r, out) && r.AtEnd();
}

}  // namespace

bool IsRequestType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kCreateSession) &&
         type <= static_cast<std::uint8_t>(MsgType::kQueryTopK);
}

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknown:
      return "unknown";
    case ErrorCode::kSessionUnknown:
      return "session_unknown";
    case ErrorCode::kSessionExists:
      return "session_exists";
    case ErrorCode::kNotAttached:
      return "not_attached";
    case ErrorCode::kAttachedElsewhere:
      return "attached_elsewhere";
    case ErrorCode::kUnsupportedRequest:
      return "unsupported_request";
    case ErrorCode::kMalformedPayload:
      return "malformed_payload";
    case ErrorCode::kLearnFailed:
      return "learn_failed";
    case ErrorCode::kIngestFailed:
      return "ingest_failed";
    case ErrorCode::kCheckpointFailed:
      return "checkpoint_failed";
    case ErrorCode::kStatsUnavailable:
      return "stats_unavailable";
    case ErrorCode::kTracingDisabled:
      return "tracing_disabled";
    case ErrorCode::kFeedbackFailed:
      return "feedback_failed";
    case ErrorCode::kInvalidArgument:
      return "invalid_argument";
    case ErrorCode::kTransport:
      return "transport";
  }
  return "unknown";
}

// ---------------------------------------------------------------- frames --

std::string EncodeFrame(MsgType type, const std::string& payload) {
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<std::uint8_t>(type));
  w.U16(0);  // flags
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  std::string out = w.Take();
  out.append(payload);
  return out;
}

void FrameDecoder::Append(const char* data, std::size_t len) {
  if (corrupt_) return;
  buf_.append(data, len);
}

FrameDecoder::Status FrameDecoder::Corrupt(const std::string& reason) {
  corrupt_ = true;
  error_ = reason;
  return Status::kCorrupt;
}

void FrameDecoder::Reclaim() {
  if (off_ == 0) return;
  buf_.erase(0, off_);
  off_ = 0;
}

FrameDecoder::Status FrameDecoder::Next(Frame* out) {
  if (corrupt_) return Status::kCorrupt;
  if (buf_.size() - off_ < kFrameHeaderBytes) {
    Reclaim();
    return Status::kNeedMore;
  }
  ByteReader header(buf_.data() + off_, kFrameHeaderBytes);
  const std::uint32_t magic = header.U32();
  const std::uint8_t version = header.U8();
  const std::uint8_t type = header.U8();
  const std::uint16_t flags = header.U16();
  const std::uint32_t payload_len = header.U32();
  const std::uint32_t payload_crc = header.U32();
  if (magic != kFrameMagic) return Corrupt("bad frame magic");
  if (version != kWireVersion) return Corrupt("unknown protocol version");
  if (flags != 0) return Corrupt("non-zero reserved flags");
  if (payload_len > max_payload_) return Corrupt("oversized frame payload");
  if (buf_.size() - off_ < kFrameHeaderBytes + payload_len) {
    // Reclaim here too: a frame straddling the reader's recv chunks with
    // off_ > 0 would otherwise retain every byte this connection ever
    // sent (callers drain Next() to kNeedMore after each Append, so this
    // runs once per read batch and the buffer stays bounded by one
    // in-flight frame plus one read).
    Reclaim();
    return Status::kNeedMore;
  }
  const char* payload = buf_.data() + off_ + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != payload_crc) {
    return Corrupt("payload CRC mismatch");
  }
  out->type = static_cast<MsgType>(type);
  out->payload.assign(payload, payload_len);
  off_ += kFrameHeaderBytes + payload_len;
  if (off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
  return Status::kFrame;
}

// -------------------------------------------------------- request codecs --

std::string EncodeCreateSession(const CreateSessionReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  w.Str(ConfigBlob(req.config));
  const std::uint32_t rows = static_cast<std::uint32_t>(req.training.size());
  const std::uint32_t dims =
      rows > 0 ? static_cast<std::uint32_t>(req.training.front().size()) : 0;
  w.U32(rows);
  w.U32(dims);
  for (const auto& row : req.training) {
    for (double v : row) w.F64(v);
  }
  return w.Take();
}

bool DecodeCreateSession(const std::string& payload, CreateSessionReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  const std::string blob = r.Str();
  if (!r.ok() || !ParseConfigBlob(blob, &out->config)) return r.Fail();
  const std::uint32_t rows = r.U32();
  const std::uint32_t dims = r.U32();
  if (!r.ok()) return false;
  // A training matrix that claims more cells than the payload holds would
  // be a corrupt (or hostile) length field; bound before allocating.
  // Divide instead of multiplying so a crafted rows*dims cannot wrap
  // mod 2^64 past the check, and reject zero-width rows outright (rows of
  // no attributes cost allocation but can never be valid training). An
  // empty matrix is encoded with width 0 and only so.
  if (rows > 0 ? dims == 0 || rows > payload.size() / (8ull * dims)
               : dims != 0) {
    return r.Fail();
  }
  out->training.assign(rows, std::vector<double>(dims));
  for (auto& row : out->training) {
    for (auto& v : row) v = r.F64();
  }
  return r.AtEnd();
}

std::string EncodeResumeSession(const ResumeSessionReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  return w.Take();
}

bool DecodeResumeSession(const std::string& payload, ResumeSessionReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  return r.AtEnd();
}

std::string EncodeIngest(const IngestReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  const std::uint32_t count = static_cast<std::uint32_t>(req.points.size());
  const std::uint32_t dims =
      count > 0
          ? static_cast<std::uint32_t>(req.points.front().values.size())
          : 0;
  w.U32(count);
  w.U32(dims);
  for (const auto& p : req.points) {
    w.U64(p.id);
    for (double v : p.values) w.F64(v);
  }
  return w.Take();
}

bool DecodeIngest(const std::string& payload, IngestReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  const std::uint32_t count = r.U32();
  const std::uint32_t dims = r.U32();
  if (!r.ok()) return false;
  // Each point occupies 8 + 8*dims bytes; divide (never multiply by the
  // untrusted count) so a crafted count*dims cannot wrap mod 2^64 past
  // this bound and force a huge allocation. An empty batch is encoded with
  // width 0 and only so.
  if (count > payload.size() / (8ull + 8ull * dims) ||
      (count == 0 && dims != 0)) {
    return r.Fail();
  }
  out->points.assign(count, DataPoint{});
  for (auto& p : out->points) {
    p.id = r.U64();
    p.values.resize(dims);
    for (auto& v : p.values) v = r.F64();
  }
  return r.AtEnd();
}

std::string EncodeFlush(const FlushReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  return w.Take();
}

bool DecodeFlush(const std::string& payload, FlushReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  return r.AtEnd();
}

std::string EncodeCheckpoint(const CheckpointReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  return w.Take();
}

bool DecodeCheckpoint(const std::string& payload, CheckpointReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  return r.AtEnd();
}

std::string EncodeCloseSession(const CloseSessionReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  w.Bool(req.persist);
  return w.Take();
}

bool DecodeCloseSession(const std::string& payload, CloseSessionReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  out->persist = r.Bool();
  return r.AtEnd();
}

std::string EncodeFeedback(const FeedbackReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  w.U32(static_cast<std::uint32_t>(req.point_ids.size()));
  for (std::uint64_t id : req.point_ids) w.U64(id);
  const std::uint32_t rows = static_cast<std::uint32_t>(req.examples.size());
  const std::uint32_t dims =
      rows > 0 ? static_cast<std::uint32_t>(req.examples.front().size()) : 0;
  w.U32(rows);
  w.U32(dims);
  for (const auto& row : req.examples) {
    for (double v : row) w.F64(v);
  }
  return w.Take();
}

bool DecodeFeedback(const std::string& payload, FeedbackReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  const std::uint32_t nids = r.U32();
  if (!r.ok()) return false;
  // Each labeled id is 8 bytes; bound by division against what is left so
  // a crafted count cannot force a huge allocation (DecodeIngest's
  // discipline).
  if (nids > r.remaining() / 8) return r.Fail();
  out->point_ids.assign(nids, 0);
  for (std::uint64_t& id : out->point_ids) id = r.U64();
  const std::uint32_t rows = r.U32();
  const std::uint32_t dims = r.U32();
  if (!r.ok()) return false;
  // Same hostile-count bound and empty-matrix encoding as the training
  // matrix: divide, never multiply rows*dims, and reject zero-width rows.
  if (rows > 0 ? dims == 0 || rows > payload.size() / (8ull * dims)
               : dims != 0) {
    return r.Fail();
  }
  out->examples.assign(rows, std::vector<double>(dims));
  for (auto& row : out->examples) {
    for (auto& v : row) v = r.F64();
  }
  return r.AtEnd();
}

std::string EncodeQueryTopK(const QueryTopKReq& req) {
  ByteWriter w;
  w.Str(req.session_id);
  w.U32(req.k);
  return w.Take();
}

bool DecodeQueryTopK(const std::string& payload, QueryTopKReq* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  out->k = r.U32();
  return r.AtEnd();
}

// ------------------------------------------------------- response codecs --

std::string EncodeOk(const OkResp& resp) {
  ByteWriter w;
  w.U8(resp.request_type);
  return w.Take();
}

bool DecodeOk(const std::string& payload, OkResp* out) {
  ByteReader r(payload);
  out->request_type = r.U8();
  return r.AtEnd();
}

std::string EncodeError(const ErrorResp& resp) {
  ByteWriter w;
  w.U8(resp.request_type);
  w.U16(static_cast<std::uint16_t>(resp.code));
  w.Str(resp.message);
  return w.Take();
}

bool DecodeError(const std::string& payload, ErrorResp* out) {
  ByteReader r(payload);
  out->request_type = r.U8();
  out->code = static_cast<ErrorCode>(r.U16());
  out->message = r.Str();
  return r.AtEnd();
}

namespace {

/// The finding layout verdicts and top-k entries share: a u32 count, then
/// per finding the subspace mask and the three PCS doubles (32 bytes).
void EncodeFindings(const std::vector<SubspaceFinding>& findings,
                    ByteWriter* w) {
  w->U32(static_cast<std::uint32_t>(findings.size()));
  for (const SubspaceFinding& f : findings) {
    w->U64(f.subspace.bits());
    w->F64(f.pcs.rd);
    w->F64(f.pcs.irsd);
    w->F64(f.pcs.count);
  }
}

bool DecodeFindings(ByteReader* r, std::vector<SubspaceFinding>* out) {
  const std::uint32_t count = r->U32();
  if (!r->ok()) return false;
  // Bound the untrusted count against the remaining bytes so a crafted
  // count cannot force a huge allocation.
  if (static_cast<std::uint64_t>(count) * 32 > r->remaining()) {
    return r->Fail();
  }
  out->assign(count, SubspaceFinding{});
  for (SubspaceFinding& f : *out) {
    f.subspace = Subspace(r->U64());
    f.pcs.rd = r->F64();
    f.pcs.irsd = r->F64();
    f.pcs.count = r->F64();
  }
  return r->ok();
}

}  // namespace

void EncodeVerdictList(const std::vector<SpotResult>& verdicts,
                       ByteWriter* w) {
  w->U32(static_cast<std::uint32_t>(verdicts.size()));
  for (const SpotResult& v : verdicts) {
    w->Bool(v.is_outlier);
    w->F64(v.score);
    EncodeFindings(v.findings, w);
  }
}

bool DecodeVerdictList(ByteReader* r, std::vector<SpotResult>* out) {
  const std::uint32_t count = r->U32();
  if (!r->ok()) return false;
  // Each verdict occupies at least 13 bytes (flag + score + finding count).
  if (static_cast<std::uint64_t>(count) * 13 > r->remaining()) {
    return r->Fail();
  }
  out->assign(count, SpotResult{});
  for (SpotResult& v : *out) {
    v.is_outlier = r->Bool();
    v.score = r->F64();
    if (!DecodeFindings(r, &v.findings)) return false;
  }
  return r->ok();
}

std::string VerdictBytes(const std::vector<SpotResult>& verdicts) {
  ByteWriter w;
  EncodeVerdictList(verdicts, &w);
  return w.Take();
}

std::string EncodeVerdicts(const VerdictsResp& resp) {
  ByteWriter w;
  w.Str(resp.session_id);
  w.U64(resp.first_point_id);
  EncodeVerdictList(resp.verdicts, &w);
  return w.Take();
}

bool DecodeVerdicts(const std::string& payload, VerdictsResp* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  out->first_point_id = r.U64();
  if (!DecodeVerdictList(&r, &out->verdicts)) return false;
  return r.AtEnd();
}

std::size_t VerdictRunEnd(const std::string& session_id,
                          const std::vector<SpotResult>& verdicts,
                          std::size_t begin, std::size_t max_payload) {
  // EncodeVerdicts: the id, the first point id and the verdict count, then
  // per verdict a flag, the score and a finding count, and 32 bytes per
  // finding (EncodeFindings).
  std::size_t bytes = 4 + session_id.size() + 8 + 4;
  std::size_t end = begin;
  while (end < verdicts.size()) {
    const std::size_t verdict_bytes = 13 + 32 * verdicts[end].findings.size();
    if (end > begin && bytes + verdict_bytes > max_payload) break;
    bytes += verdict_bytes;
    ++end;
  }
  return end;
}

void EncodeTopKEntryList(const std::vector<TopKEntry>& entries,
                         ByteWriter* w) {
  w->U32(static_cast<std::uint32_t>(entries.size()));
  for (const TopKEntry& e : entries) {
    w->U64(e.point_id);
    w->U64(e.tick);
    w->F64(e.score);
    w->F64(e.decayed_score);
    EncodeFindings(e.findings, w);
  }
}

bool DecodeTopKEntryList(ByteReader* r, std::vector<TopKEntry>* out) {
  const std::uint32_t count = r->U32();
  if (!r->ok()) return false;
  // An entry occupies at least 36 bytes (id + tick + two scores + finding
  // count); bound the untrusted count against the remaining bytes.
  if (static_cast<std::uint64_t>(count) * 36 > r->remaining()) {
    return r->Fail();
  }
  out->assign(count, TopKEntry{});
  for (TopKEntry& e : *out) {
    e.point_id = r->U64();
    e.tick = r->U64();
    e.score = r->F64();
    e.decayed_score = r->F64();
    if (!DecodeFindings(r, &e.findings)) return false;
  }
  return r->ok();
}

std::string TopKBytes(const std::vector<TopKEntry>& entries) {
  ByteWriter w;
  EncodeTopKEntryList(entries, &w);
  return w.Take();
}

std::string EncodeTopK(const TopKResp& resp) {
  ByteWriter w;
  w.Str(resp.session_id);
  EncodeTopKEntryList(resp.entries, &w);
  return w.Take();
}

bool DecodeTopK(const std::string& payload, TopKResp* out) {
  ByteReader r(payload);
  out->session_id = r.Str();
  if (!DecodeTopKEntryList(&r, &out->entries)) return false;
  return r.AtEnd();
}

// ---------------------------------------------------------- stats codec --

namespace {

void EncodeHistogram(const obs::Histogram& hist, ByteWriter* w) {
  w->F64(hist.sum());
  w->F64(hist.min());
  w->F64(hist.max());
  // Sparse bucket list: (index, count) pairs for populated buckets.
  std::uint32_t nonzero = 0;
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    if (hist.bucket(i) != 0) ++nonzero;
  }
  w->U32(nonzero);
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    if (hist.bucket(i) == 0) continue;
    w->U8(static_cast<std::uint8_t>(i));
    w->U64(hist.bucket(i));
  }
}

bool DecodeHistogram(ByteReader* r, obs::Histogram* out) {
  const double sum = r->F64();
  const double min = r->F64();
  const double max = r->F64();
  const std::uint32_t nonzero = r->U32();
  if (!r->ok()) return false;
  if (nonzero > obs::Histogram::kNumBuckets) return r->Fail();
  // The encoder lists exactly the populated buckets, in ascending index
  // order, so a zero count or a repeated or out-of-order index has no
  // encoding and fails the decode.
  std::uint64_t counts[obs::Histogram::kNumBuckets] = {};
  int next = 0;  // lowest index the next pair may carry
  for (std::uint32_t b = 0; b < nonzero; ++b) {
    const std::uint8_t idx = r->U8();
    const std::uint64_t count = r->U64();
    if (!r->ok()) return false;
    if (idx < next || idx >= obs::Histogram::kNumBuckets || count == 0) {
      return r->Fail();
    }
    counts[idx] = count;
    next = idx + 1;
  }
  if (!obs::Histogram::Restore(counts, sum, min, max, out)) return r->Fail();
  return true;
}

void EncodeSnapshot(const obs::MetricsSnapshot& snap, ByteWriter* w) {
  w->U32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, value] : snap.counters) {
    w->Str(name);
    w->U64(value);
  }
  w->U32(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, value] : snap.gauges) {
    w->Str(name);
    w->F64(value);
  }
  w->U32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, hist] : snap.histograms) {
    w->Str(name);
    EncodeHistogram(hist, w);
  }
}

// The values of the three snapshot sections: counters, gauges, histograms.
bool DecodeValue(ByteReader* r, std::uint64_t* v) {
  *v = r->U64();
  return r->ok();
}
bool DecodeValue(ByteReader* r, double* v) {
  *v = r->F64();
  return r->ok();
}
bool DecodeValue(ByteReader* r, obs::Histogram* h) {
  return DecodeHistogram(r, h);
}

/// Decodes a snapshot section, a count of (name, value) pairs each at least
/// `min_bytes` long. Bounding the untrusted count against the remaining
/// bytes keeps a crafted count from driving huge allocations. EncodeSnapshot
/// writes a section in its map's (ascending, unique) name order, so a
/// repeated or out-of-order name has no encoding and fails the decode.
template <typename Map>
bool DecodeSection(ByteReader* r, std::size_t min_bytes, Map* out) {
  const std::uint32_t count = r->U32();
  if (!r->ok()) return false;
  if (count > r->remaining() / min_bytes) return r->Fail();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r->Str();
    typename Map::mapped_type value;
    if (!DecodeValue(r, &value)) return false;
    if (!out->empty() && !(out->rbegin()->first < name)) return r->Fail();
    out->emplace_hint(out->end(), std::move(name), std::move(value));
  }
  return true;
}

bool DecodeSnapshot(ByteReader* r, obs::MetricsSnapshot* out) {
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();
  // A counter or gauge is >= 12 bytes (length-prefixed name + 8 bytes), a
  // histogram >= 32 (name + three doubles + bucket count).
  return DecodeSection(r, 12, &out->counters) &&
         DecodeSection(r, 12, &out->gauges) &&
         DecodeSection(r, 32, &out->histograms);
}

}  // namespace

obs::MetricsSnapshot StatsResp::Merged() const {
  obs::MetricsSnapshot merged;
  for (const obs::MetricsSnapshot& snap : reactors) merged.Merge(snap);
  merged.Merge(service);
  return merged;
}

std::string EncodeStats(const StatsResp& resp) {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(resp.reactors.size()));
  for (const obs::MetricsSnapshot& snap : resp.reactors) {
    EncodeSnapshot(snap, &w);
  }
  EncodeSnapshot(resp.service, &w);
  w.U32(static_cast<std::uint32_t>(resp.sessions.size()));
  for (const auto& [label, snap] : resp.sessions) {
    w.Str(label);
    EncodeSnapshot(snap, &w);
  }
  return w.Take();
}

bool DecodeStats(const std::string& payload, StatsResp* out) {
  ByteReader r(payload);
  const std::uint32_t nreactors = r.U32();
  if (!r.ok()) return false;
  // An empty snapshot is 12 bytes (three zero counts).
  if (nreactors > payload.size() / 12) return r.Fail();
  out->reactors.assign(nreactors, obs::MetricsSnapshot());
  for (obs::MetricsSnapshot& snap : out->reactors) {
    if (!DecodeSnapshot(&r, &snap)) return false;
  }
  if (!DecodeSnapshot(&r, &out->service)) return false;
  const std::uint32_t nsessions = r.U32();
  if (!r.ok()) return false;
  // A session section is >= 16 bytes (an empty label and an empty
  // snapshot).
  if (nsessions > r.remaining() / 16) return r.Fail();
  out->sessions.assign(nsessions, obs::LabeledSnapshot());
  for (auto& [label, snap] : out->sessions) {
    label = r.Str();
    if (!DecodeSnapshot(&r, &snap)) return false;
  }
  return r.AtEnd();
}

}  // namespace net
}  // namespace spot
