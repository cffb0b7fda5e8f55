// Tests of the SPOT wire protocol (src/net/protocol.h): the CRC-32
// reference vector, frame encode/decode under byte-at-a-time delivery,
// every payload codec, request decoders that accept exactly one encoding per
// request under fixed-seed mutation, and rejection of truncated / corrupt /
// oversized frames without a crash. The byte codec itself is tested in
// common_test.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "net/protocol.h"
#include "mutations.h"
#include "obs/exposition.h"
#include "obs/perf_counters.h"

namespace spot {
namespace net {
namespace {

TEST(Crc32Test, ReferenceVector) {
  // The canonical CRC-32 check value.
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(data.data(), data.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(FrameTest, RoundTripAndByteAtATimeDelivery) {
  const std::string payload = "some payload bytes";
  const std::string wire = EncodeFrame(MsgType::kFlush, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  Frame frame;
  // Feed a single byte at a time: every prefix must report kNeedMore.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Append(wire.data() + i, 1);
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
  }
  decoder.Append(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kFlush);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, BackToBackFramesInOneAppend) {
  const std::string wire =
      EncodeFrame(MsgType::kFlush, EncodeFlush({"a"})) +
      EncodeFrame(MsgType::kCheckpoint, EncodeCheckpoint({"b"}));
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kFlush);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kCheckpoint);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
}

TEST(FrameTest, CorruptMagicIsTerminal) {
  std::string wire = EncodeFrame(MsgType::kFlush, "x");
  wire[0] = 'Z';
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt);
  // Latched: further appends / polls stay corrupt.
  decoder.Append(wire.data(), wire.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt);
  EXPECT_FALSE(decoder.error().empty());
}

TEST(FrameTest, UnknownVersionRejected) {
  // One dialect: every version byte but kWireVersion is corrupt, the
  // older v1 and v2 included.
  for (std::uint8_t bad : {std::uint8_t{1}, std::uint8_t{2},
                           std::uint8_t{kWireVersion + 1}}) {
    std::string wire = EncodeFrame(MsgType::kFlush, "x");
    wire[4] = static_cast<char>(bad);  // version byte
    // Re-stamping the version byte does not touch the payload CRC, so
    // the version check is what must reject it.
    FrameDecoder decoder;
    decoder.Append(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt)
        << int(bad);
  }
}

TEST(FrameTest, NonZeroFlagsRejected) {
  std::string wire = EncodeFrame(MsgType::kFlush, "x");
  wire[6] = 1;  // flags low byte
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt);
}

TEST(FrameTest, PayloadCorruptionFailsCrc) {
  std::string wire = EncodeFrame(MsgType::kIngest, "sensitive payload");
  wire[kFrameHeaderBytes + 3] ^= 0x40;
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt);
}

TEST(FrameTest, OversizedFrameRejectedBeforeBuffering) {
  // A header announcing a payload beyond the decoder's cap must be
  // rejected from the header alone (no attempt to buffer the payload).
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<std::uint8_t>(MsgType::kIngest));
  w.U16(0);
  w.U32(1u << 20);  // 1 MiB payload announced...
  w.U32(0);
  FrameDecoder decoder(/*max_payload=*/1024);  // ...but the cap is 1 KiB
  const std::string& header = w.bytes();
  decoder.Append(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kCorrupt);
}

TEST(FrameTest, ConsumedPrefixReclaimedWhenFramesStraddleReads) {
  // Regression: the mid-frame kNeedMore path used to skip reclaiming the
  // consumed prefix, so frames straddling recv-sized appends (with a
  // >= 16-byte remainder after each drained frame) retained every byte a
  // connection ever sent — linear RSS growth despite the payload cap.
  // Stream frames sized one byte past the append chunk so every append
  // ends mid-frame with a consumed prefix, and assert the decoder's
  // internal buffer stays bounded by one in-flight frame + one append.
  const std::size_t kChunk = 64 * 1024;
  const std::string payload(kChunk - kFrameHeaderBytes + 1, 'p');
  const std::string wire = EncodeFrame(MsgType::kIngest, payload);
  ASSERT_EQ(wire.size(), kChunk + 1);

  const int kFrames = 64;
  std::string stream;
  stream.reserve(wire.size() * kFrames);
  for (int i = 0; i < kFrames; ++i) stream += wire;

  FrameDecoder decoder;
  Frame frame;
  int got = 0;
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - off);
    decoder.Append(stream.data() + off, n);
    while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
      EXPECT_EQ(frame.payload.size(), payload.size());
      ++got;
    }
    EXPECT_LE(decoder.buffer_bytes(), wire.size() + kChunk);
  }
  EXPECT_EQ(got, kFrames);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, TruncatedFrameIsJustNeedMore) {
  const std::string wire = EncodeFrame(MsgType::kIngest, "partial");
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size() - 3);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Status::kNeedMore);
}

TEST(CodecTest, CreateSessionRoundTrip) {
  CreateSessionReq req;
  req.session_id = "tenant-42";
  req.config.seed = 77;
  req.config.fs_max_dimension = 3;
  req.config.omega = 1234;
  req.training = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const std::string payload = EncodeCreateSession(req);
  CreateSessionReq got;
  ASSERT_TRUE(DecodeCreateSession(payload, &got));
  EXPECT_EQ(got.session_id, "tenant-42");
  EXPECT_EQ(got.config.seed, 77u);
  EXPECT_EQ(got.config.fs_max_dimension, 3);
  EXPECT_EQ(got.config.omega, req.config.omega);
  EXPECT_EQ(got.training, req.training);

  // The config section reuses the checkpoint encoding: re-encoding the
  // decoded request must reproduce the payload byte-for-byte.
  EXPECT_EQ(EncodeCreateSession(got), payload);
}

TEST(CodecTest, ConfigBlobWithTrailingBytesRejected) {
  // A kCreateSession payload whose config blob carries one byte past the
  // config encoding: like every other payload section, it must be exact.
  const auto payload_with_blob = [](const std::string& blob) {
    ByteWriter w;
    w.Str("tenant");
    w.Str(blob);
    w.U32(1);  // one training row of one attribute
    w.U32(1);
    w.F64(0.5);
    return w.Take();
  };
  ByteWriter config;
  WriteConfigBinary(config, SpotConfig{});
  CreateSessionReq got;
  ASSERT_TRUE(DecodeCreateSession(payload_with_blob(config.bytes()), &got));
  EXPECT_FALSE(
      DecodeCreateSession(payload_with_blob(config.bytes() + '\0'), &got));
}

TEST(CodecTest, IngestRoundTrip) {
  IngestReq req;
  req.session_id = "s";
  for (int i = 0; i < 5; ++i) {
    DataPoint p;
    p.id = 100 + static_cast<std::uint64_t>(i);
    p.values = {0.1 * i, -0.2 * i, 3.0};
    req.points.push_back(p);
  }
  IngestReq got;
  ASSERT_TRUE(DecodeIngest(EncodeIngest(req), &got));
  ASSERT_EQ(got.points.size(), 5u);
  EXPECT_EQ(got.session_id, "s");
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    EXPECT_EQ(got.points[i].id, req.points[i].id);
    EXPECT_EQ(got.points[i].values, req.points[i].values);
  }
}

TEST(CodecTest, EmptyIngestAndTrailingJunkRejected) {
  IngestReq req;
  req.session_id = "s";
  IngestReq got;
  ASSERT_TRUE(DecodeIngest(EncodeIngest(req), &got));
  EXPECT_TRUE(got.points.empty());

  std::string payload = EncodeIngest(req);
  payload.push_back('\0');
  EXPECT_FALSE(DecodeIngest(payload, &got));
}

TEST(CodecTest, HostileCountsDoNotAllocate) {
  // An ingest payload claiming 2^31 points in 16 bytes must fail cleanly.
  ByteWriter w;
  w.Str("s");
  w.U32(0x80000000u);  // count
  w.U32(64);           // dims
  IngestReq got;
  EXPECT_FALSE(DecodeIngest(w.bytes(), &got));

  // count * (8 + 8*dims) chosen to wrap to 0 mod 2^64: the size bound
  // must be computed by division, never by multiplying untrusted counts.
  ByteWriter o;
  o.Str("s");
  o.U32(0x40000000u);  // count = 2^30
  o.U32(0x7FFFFFFFu);  // dims: 8 + 8*dims = 2^34 -> product wraps to 0
  EXPECT_FALSE(DecodeIngest(o.bytes(), &got));

  ByteWriter v;
  v.Str("s");
  v.U64(0);
  v.U32(0x7FFFFFFFu);  // verdict count
  VerdictsResp verdicts;
  EXPECT_FALSE(DecodeVerdicts(v.bytes(), &verdicts));
}

TEST(CodecTest, HostileTrainingMatrixDoesNotAllocate) {
  CreateSessionReq req;
  req.session_id = "s";
  std::string base = EncodeCreateSession(req);  // rows=0, dims=0 tail
  // Rewrite the trailing rows/dims words with values whose product wraps
  // mod 2^64 (2^31 * 2^31 * 8 = 2^65 = 0): must be rejected, not
  // allocated.
  ByteWriter tail;
  tail.U32(0x80000000u);  // rows
  tail.U32(0x80000000u);  // dims
  base.replace(base.size() - 8, 8, tail.bytes());
  CreateSessionReq got;
  EXPECT_FALSE(DecodeCreateSession(base, &got));

  // Zero-width rows are also hostile: they cost one vector allocation
  // each while claiming zero payload bytes.
  ByteWriter zero;
  zero.U32(0xFFFFFFFFu);  // rows
  zero.U32(0);            // dims
  base.replace(base.size() - 8, 8, zero.bytes());
  EXPECT_FALSE(DecodeCreateSession(base, &got));
}

TEST(CodecTest, SimpleRequestRoundTrips) {
  ResumeSessionReq resume{"r-1"};
  ResumeSessionReq resume2;
  ASSERT_TRUE(DecodeResumeSession(EncodeResumeSession(resume), &resume2));
  EXPECT_EQ(resume2.session_id, "r-1");

  FlushReq flush{""};
  FlushReq flush2{"nonempty"};
  ASSERT_TRUE(DecodeFlush(EncodeFlush(flush), &flush2));
  EXPECT_EQ(flush2.session_id, "");

  CheckpointReq ckpt{"all-of-them"};
  CheckpointReq ckpt2;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(ckpt), &ckpt2));
  EXPECT_EQ(ckpt2.session_id, "all-of-them");

  CloseSessionReq close{"c", false};
  CloseSessionReq close2;
  ASSERT_TRUE(DecodeCloseSession(EncodeCloseSession(close), &close2));
  EXPECT_EQ(close2.session_id, "c");
  EXPECT_FALSE(close2.persist);

  OkResp ok{static_cast<std::uint8_t>(MsgType::kFlush)};
  OkResp ok2;
  ASSERT_TRUE(DecodeOk(EncodeOk(ok), &ok2));
  EXPECT_EQ(ok2.request_type, static_cast<std::uint8_t>(MsgType::kFlush));

  ErrorResp err;
  err.request_type = static_cast<std::uint8_t>(MsgType::kIngest);
  err.code = ErrorCode::kSessionUnknown;
  err.message = "no session";
  ErrorResp err2;
  ASSERT_TRUE(DecodeError(EncodeError(err), &err2));
  EXPECT_EQ(err2.request_type, static_cast<std::uint8_t>(MsgType::kIngest));
  EXPECT_EQ(err2.code, ErrorCode::kSessionUnknown);
  EXPECT_EQ(err2.message, "no session");
}

TEST(CodecTest, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnknown), "unknown");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kSessionUnknown),
               "session_unknown");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kUnsupportedRequest),
               "unsupported_request");
  EXPECT_STREQ(ErrorCodeName(ErrorCode::kFeedbackFailed),
               "feedback_failed");
  EXPECT_STREQ(ErrorCodeName(static_cast<ErrorCode>(9999)), "unknown");
}

TEST(CodecTest, FeedbackRoundTrip) {
  FeedbackReq req;
  req.session_id = "fb";
  req.point_ids = {42, 7, 1000000007};
  req.examples = {{1.5, -2.5, 0.0}, {3.25, 4.0, 1.0 / 3.0}};
  FeedbackReq got;
  ASSERT_TRUE(DecodeFeedback(EncodeFeedback(req), &got));
  EXPECT_EQ(got.session_id, "fb");
  EXPECT_EQ(got.point_ids, req.point_ids);
  EXPECT_EQ(got.examples, req.examples);

  // Ids-only and examples-only rounds are both legal payloads.
  FeedbackReq ids_only;
  ids_only.session_id = "fb";
  ids_only.point_ids = {1};
  ASSERT_TRUE(DecodeFeedback(EncodeFeedback(ids_only), &got));
  EXPECT_EQ(got.point_ids, ids_only.point_ids);
  EXPECT_TRUE(got.examples.empty());

  // Truncation anywhere must fail cleanly, and trailing junk too.
  const std::string wire = EncodeFeedback(req);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FeedbackReq scratch;
    EXPECT_FALSE(DecodeFeedback(wire.substr(0, cut), &scratch)) << cut;
  }
  FeedbackReq scratch;
  EXPECT_FALSE(DecodeFeedback(wire + "x", &scratch));
}

TEST(CodecTest, HostileFeedbackCountsDoNotAllocate) {
  // 4G point ids announced in a dozen bytes: rejected by the
  // remaining-bytes bound before any allocation.
  ByteWriter w;
  w.Str("s");
  w.U32(0xFFFFFFFFu);  // id count
  FeedbackReq got;
  EXPECT_FALSE(DecodeFeedback(w.bytes(), &got));

  // rows * dims chosen to wrap mod 2^64 — the bound must divide, never
  // multiply untrusted counts (same discipline as DecodeIngest).
  ByteWriter o;
  o.Str("s");
  o.U32(0);            // no ids
  o.U32(0x40000000u);  // rows = 2^30
  o.U32(0x80000000u);  // dims: 8 * rows * dims = 2^64 -> wraps to 0
  EXPECT_FALSE(DecodeFeedback(o.bytes(), &got));

  // Zero-width rows claim zero payload bytes but cost an allocation each.
  ByteWriter z;
  z.Str("s");
  z.U32(0);
  z.U32(0xFFFFFFFFu);  // rows
  z.U32(0);            // dims
  EXPECT_FALSE(DecodeFeedback(z.bytes(), &got));
}

TEST(CodecTest, QueryTopKRoundTrip) {
  QueryTopKReq req;
  req.session_id = "q";
  req.k = 17;
  QueryTopKReq got;
  ASSERT_TRUE(DecodeQueryTopK(EncodeQueryTopK(req), &got));
  EXPECT_EQ(got.session_id, "q");
  EXPECT_EQ(got.k, 17u);

  const std::string wire = EncodeQueryTopK(req);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    QueryTopKReq scratch;
    EXPECT_FALSE(DecodeQueryTopK(wire.substr(0, cut), &scratch)) << cut;
  }
  QueryTopKReq scratch;
  EXPECT_FALSE(DecodeQueryTopK(wire + "x", &scratch));
}

// ---------------------------------------------------- canonical decoding --

/// One message type's codec as a byte-to-byte round trip, with sample
/// payloads to mutate. Lists come both filled and empty, since an empty
/// list has exactly one encoding too.
struct PayloadCodec {
  const char* name;
  std::vector<std::string> payloads;
  /// Decodes `payload` and re-encodes the request into `out`; false when
  /// the decode fails.
  bool (*round_trip)(const std::string& payload, std::string* out);
};

template <typename Msg, bool (*Decode)(const std::string&, Msg*),
          std::string (*Encode)(const Msg&)>
bool RoundTrip(const std::string& payload, std::string* out) {
  Msg msg;
  if (!Decode(payload, &msg)) return false;
  *out = Encode(msg);
  return true;
}

std::vector<PayloadCodec> RequestCodecs() {
  CreateSessionReq create;
  create.session_id = "tenant";
  create.config.use_decay = false;
  create.config.seed = 5;
  create.training = {{0.25, 0.5}, {0.75, 1.0}, {-1.5, 2.0}};
  CreateSessionReq create_empty;
  create_empty.session_id = "t";

  IngestReq ingest;
  ingest.session_id = "s";
  for (std::uint64_t i = 0; i < 3; ++i) {
    DataPoint p;
    p.id = 40 + i;
    p.values = {0.5 * static_cast<double>(i), -1.0};
    ingest.points.push_back(p);
  }
  IngestReq ingest_empty;
  ingest_empty.session_id = "s";

  FeedbackReq feedback;
  feedback.session_id = "fb";
  feedback.point_ids = {7, 1u << 30};
  feedback.examples = {{1.5, -2.5}, {0.0, 3.0}};
  FeedbackReq feedback_ids;
  feedback_ids.session_id = "fb";
  feedback_ids.point_ids = {9};

  // Codecs that decode a width come last (see the test below).
  return {
      {"ResumeSession",
       {EncodeResumeSession({"r-1"})},
       RoundTrip<ResumeSessionReq, DecodeResumeSession, EncodeResumeSession>},
      {"Flush",
       {EncodeFlush({"s"}), EncodeFlush({""})},
       RoundTrip<FlushReq, DecodeFlush, EncodeFlush>},
      {"Checkpoint",
       {EncodeCheckpoint({"s"})},
       RoundTrip<CheckpointReq, DecodeCheckpoint, EncodeCheckpoint>},
      {"CloseSession",
       {EncodeCloseSession({"s", true}), EncodeCloseSession({"s", false})},
       RoundTrip<CloseSessionReq, DecodeCloseSession, EncodeCloseSession>},
      {"QueryTopK",
       {EncodeQueryTopK({"q", 17})},
       RoundTrip<QueryTopKReq, DecodeQueryTopK, EncodeQueryTopK>},
      {"Ingest",
       {EncodeIngest(ingest), EncodeIngest(ingest_empty)},
       RoundTrip<IngestReq, DecodeIngest, EncodeIngest>},
      {"Feedback",
       {EncodeFeedback(feedback), EncodeFeedback(feedback_ids)},
       RoundTrip<FeedbackReq, DecodeFeedback, EncodeFeedback>},
      {"CreateSession",
       {EncodeCreateSession(create), EncodeCreateSession(create_empty)},
       RoundTrip<CreateSessionReq, DecodeCreateSession, EncodeCreateSession>},
  };
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 0xF];
  }
  return out;
}

// Runs every codec over the mutations of its sample payloads: each mutated
// payload either fails to decode or decodes to a message that re-encodes
// to exactly the mutated bytes. The first codec with a non-canonical
// decode stops the run.
void ExpectCanonicalUnderMutation(const std::vector<PayloadCodec>& codecs,
                                  std::uint64_t seed) {
  Rng rng(seed);
  for (const PayloadCodec& codec : codecs) {
    std::size_t decoded = 0;
    std::size_t non_canonical = 0;
    std::string first;
    for (std::size_t i = 0; i < codec.payloads.size(); ++i) {
      const std::string& p = codec.payloads[i];
      std::string again;
      ASSERT_TRUE(codec.round_trip(p, &again)) << codec.name;
      ASSERT_EQ(again, p) << codec.name;
      const std::string& other =
          codec.payloads[(i + 1) % codec.payloads.size()];
      ForEachMutation(p, other, &rng, [&](const std::string& m) {
        std::string re;
        if (!codec.round_trip(m, &re)) return;
        ++decoded;
        if (re != m) {
          if (non_canonical++ == 0) first = Hex(m) + " -> " + Hex(re);
        }
      });
    }
    EXPECT_GT(decoded, 0u) << codec.name;
    ASSERT_EQ(non_canonical, 0u)
        << codec.name << ": first non-canonical payload " << first;
  }
}

// Request decoders are canonical: no request has two encodings. A flag
// byte other than 0 or 1 and an empty list with a non-zero width are the
// two ways to break that, and both are refused. A decoder that accepts a
// width for an empty matrix may also size a row buffer from it, so the
// codecs that decode widths run last.
TEST(CodecTest, RequestDecodersAreCanonicalUnderMutation) {
  ExpectCanonicalUnderMutation(RequestCodecs(), 20261019);
}

std::vector<TopKEntry> SampleTopK() {
  std::vector<TopKEntry> entries(2);
  entries[0].point_id = 424242;
  entries[0].tick = 99;
  entries[0].score = 0.875;
  entries[0].decayed_score = 0.4375;
  SubspaceFinding f;
  f.subspace = Subspace(0b1011);
  f.pcs.rd = 0.125;
  f.pcs.irsd = 0.5;
  f.pcs.count = 17.25;
  entries[0].findings.push_back(f);
  entries[1].point_id = 7;
  entries[1].tick = 3;
  entries[1].score = 1.0 / 3.0;
  entries[1].decayed_score = 1.0 / 3.0;
  return entries;
}

TEST(CodecTest, TopKRoundTripBitExactly) {
  TopKResp resp;
  resp.session_id = "t";
  resp.entries = SampleTopK();
  TopKResp got;
  ASSERT_TRUE(DecodeTopK(EncodeTopK(resp), &got));
  EXPECT_EQ(got.session_id, "t");
  // Bit-exact round trip == identical canonical top-k bytes.
  EXPECT_EQ(TopKBytes(got.entries), TopKBytes(resp.entries));
  ASSERT_EQ(got.entries.size(), 2u);
  EXPECT_EQ(got.entries[0].point_id, 424242u);
  EXPECT_EQ(got.entries[0].tick, 99u);
  ASSERT_EQ(got.entries[0].findings.size(), 1u);
  EXPECT_EQ(got.entries[0].findings[0].subspace.bits(), 0b1011u);
  // Attribute values never travel (they stay server-side for labeling).
  EXPECT_TRUE(got.entries[0].values.empty());

  // The canonical bytes distinguish any score perturbation.
  std::vector<TopKEntry> other = SampleTopK();
  other[1].decayed_score = std::nextafter(other[1].decayed_score, 1.0);
  EXPECT_NE(TopKBytes(resp.entries), TopKBytes(other));

  // Truncation sweep + trailing junk.
  const std::string wire = EncodeTopK(resp);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    TopKResp scratch;
    EXPECT_FALSE(DecodeTopK(wire.substr(0, cut), &scratch)) << cut;
  }
  TopKResp scratch;
  EXPECT_FALSE(DecodeTopK(wire + "x", &scratch));
}

TEST(CodecTest, HostileTopKCountsDoNotAllocate) {
  ByteWriter w;
  w.Str("t");
  w.U32(0xFFFFFFFFu);  // entry count in a 9-byte payload
  TopKResp got;
  EXPECT_FALSE(DecodeTopK(w.bytes(), &got));

  ByteWriter f;
  f.Str("t");
  f.U32(1);            // one entry...
  f.U64(1);            // point_id
  f.U64(2);            // tick
  f.F64(1.0);          // score
  f.F64(1.0);          // decayed
  f.U32(0xFFFFFFFFu);  // ...claiming 4G findings
  EXPECT_FALSE(DecodeTopK(f.bytes(), &got));
}

std::vector<SpotResult> SampleVerdicts() {
  std::vector<SpotResult> verdicts(3);
  verdicts[0].is_outlier = true;
  verdicts[0].score = 0.987654321;
  SubspaceFinding f;
  f.subspace = Subspace(0b1011);
  f.pcs.rd = 0.125;
  f.pcs.irsd = 0.5;
  f.pcs.count = 17.25;
  verdicts[0].findings.push_back(f);
  f.subspace = Subspace(0b100000);
  verdicts[0].findings.push_back(f);
  verdicts[2].score = 1.0 / 3.0;
  return verdicts;
}

TEST(CodecTest, VerdictsRoundTripBitExactly) {
  VerdictsResp resp;
  resp.session_id = "v";
  resp.first_point_id = 424242;
  resp.verdicts = SampleVerdicts();
  VerdictsResp got;
  ASSERT_TRUE(DecodeVerdicts(EncodeVerdicts(resp), &got));
  EXPECT_EQ(got.session_id, "v");
  EXPECT_EQ(got.first_point_id, 424242u);
  // Bit-exact round trip == identical canonical verdict bytes.
  EXPECT_EQ(VerdictBytes(got.verdicts), VerdictBytes(resp.verdicts));
  ASSERT_EQ(got.verdicts.size(), 3u);
  EXPECT_TRUE(got.verdicts[0].is_outlier);
  ASSERT_EQ(got.verdicts[0].findings.size(), 2u);
  EXPECT_EQ(got.verdicts[0].findings[1].subspace.bits(), 0b100000u);
}

TEST(CodecTest, VerdictBytesDistinguishesVerdicts) {
  std::vector<SpotResult> a = SampleVerdicts();
  std::vector<SpotResult> b = SampleVerdicts();
  EXPECT_EQ(VerdictBytes(a), VerdictBytes(b));
  b[2].score = std::nextafter(b[2].score, 1.0);
  EXPECT_NE(VerdictBytes(a), VerdictBytes(b));
}

// The reactor splits a coalesced verdict run at the payload cap with
// VerdictRunEnd, so its size rule must be EncodeVerdicts' own: for ids of
// several lengths and verdicts with 0-3 findings, every run fits a cap of
// exactly its encoded size and loses its last verdict one byte below it.
TEST(CodecTest, VerdictRunEndMatchesEncodedSize) {
  std::vector<SpotResult> verdicts(9);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    verdicts[i].is_outlier = i % 4 != 0;
    verdicts[i].score = 0.5 * static_cast<double>(i);
    for (std::size_t f = 0; f < i % 4; ++f) {
      SubspaceFinding finding;
      finding.subspace = Subspace(std::uint64_t{1} << f);
      finding.pcs.rd = 0.25;
      verdicts[i].findings.push_back(finding);
    }
  }
  for (const std::string& id : std::vector<std::string>{
           "", "s", "tenant-0", std::string(130, 'x')}) {
    for (std::size_t begin = 0; begin < verdicts.size(); ++begin) {
      for (std::size_t end = begin + 1; end <= verdicts.size(); ++end) {
        VerdictsResp run;
        run.session_id = id;
        run.verdicts.assign(verdicts.begin() + static_cast<long>(begin),
                            verdicts.begin() + static_cast<long>(end));
        const std::size_t bytes = EncodeVerdicts(run).size();
        EXPECT_EQ(VerdictRunEnd(id, verdicts, begin, bytes), end)
            << id.size() << " " << begin << ".." << end;
        // A run always takes its first verdict, whatever the cap.
        EXPECT_EQ(VerdictRunEnd(id, verdicts, begin, bytes - 1),
                  std::max(end - 1, begin + 1))
            << id.size() << " " << begin << ".." << end;
      }
    }
  }
}

TEST(CodecTest, RequestTypePredicate) {
  EXPECT_TRUE(IsRequestType(static_cast<std::uint8_t>(MsgType::kIngest)));
  EXPECT_TRUE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kCreateSession)));
  EXPECT_TRUE(IsRequestType(static_cast<std::uint8_t>(MsgType::kStats)));
  EXPECT_TRUE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kTraceDump)));
  EXPECT_TRUE(IsRequestType(static_cast<std::uint8_t>(MsgType::kFeedback)));
  EXPECT_TRUE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kQueryTopK)));
  EXPECT_FALSE(IsRequestType(static_cast<std::uint8_t>(MsgType::kOk)));
  EXPECT_FALSE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kStatsResp)));
  EXPECT_FALSE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kTraceResp)));
  EXPECT_FALSE(
      IsRequestType(static_cast<std::uint8_t>(MsgType::kTopKResp)));
  EXPECT_FALSE(IsRequestType(0));
  EXPECT_FALSE(IsRequestType(11));  // unassigned request-range value
  EXPECT_FALSE(IsRequestType(255));
}

TEST(FrameTest, TraceDumpRoundTrip) {
  // The trace request is empty; the response payload is raw Chrome-trace
  // JSON bytes with no codec of its own — the frame CRC is the integrity
  // check, and the bytes must survive verbatim (quotes, braces and all).
  FrameDecoder decoder;
  Frame frame;
  const std::string req = EncodeFrame(MsgType::kTraceDump, "");
  decoder.Append(req.data(), req.size());
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kTraceDump);
  EXPECT_TRUE(frame.payload.empty());

  const std::string json =
      "{\"traceEvents\":[{\"name\":\"process\",\"ph\":\"X\",\"ts\":1,"
      "\"dur\":2,\"pid\":0,\"tid\":0,\"args\":{\"batch\":7}}]}";
  const std::string resp = EncodeFrame(MsgType::kTraceResp, json);
  decoder.Append(resp.data(), resp.size());
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, MsgType::kTraceResp);
  EXPECT_EQ(frame.payload, json);
}

TEST(CodecTest, StatsRoundTrip) {
  StatsResp resp;
  obs::MetricsSnapshot r0;
  r0.counters["points_ingested"] = 1234;
  r0.counters["batches_run"] = 17;
  r0.gauges["connections"] = 2.0;
  r0.gauges["pending_points"] = 48.5;
  for (int i = 0; i < 200; ++i) {
    r0.histograms["pipeline_process_us"].Record(i * 37.0);
  }
  obs::MetricsSnapshot r1;  // empty slot: a reactor that never published
  resp.reactors = {r0, r1};
  resp.service.counters["evictions"] = 5;
  resp.service.histograms["checkpoint_save_us"].Record(900.0);

  StatsResp decoded;
  ASSERT_TRUE(DecodeStats(EncodeStats(resp), &decoded));
  ASSERT_EQ(decoded.reactors.size(), 2u);
  EXPECT_EQ(decoded.reactors[0].counters, r0.counters);
  EXPECT_EQ(decoded.reactors[0].gauges, r0.gauges);
  EXPECT_EQ(decoded.reactors[0].histograms.at("pipeline_process_us"),
            r0.histograms.at("pipeline_process_us"));
  EXPECT_TRUE(decoded.reactors[1].empty());
  EXPECT_EQ(decoded.service.counters.at("evictions"), 5u);
  EXPECT_EQ(decoded.service.histograms.at("checkpoint_save_us"),
            resp.service.histograms.at("checkpoint_save_us"));

  // Merged() folds every reactor slice and the service into one view.
  const obs::MetricsSnapshot merged = decoded.Merged();
  EXPECT_EQ(merged.counters.at("points_ingested"), 1234u);
  EXPECT_EQ(merged.counters.at("evictions"), 5u);

  // Truncation anywhere must decode to false, never crash or over-read.
  const std::string wire = EncodeStats(resp);
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    StatsResp scratch;
    EXPECT_FALSE(DecodeStats(wire.substr(0, cut), &scratch)) << cut;
  }
  // Trailing junk is rejected too.
  StatsResp scratch;
  EXPECT_FALSE(DecodeStats(wire + "x", &scratch));
}

// Every section publishes its own perf_* counters; the merged view sums
// them, so the rates PerfStageRows derives cover every section.
TEST(CodecTest, MergedSumsPerfCounters) {
  obs::PerfStageTotals totals;
  totals.samples = 4;
  totals.units = 100;
  totals.clock_ns = 5000;
  totals.cpu_ns = 3000;
  const auto section = [&totals](const std::string& labels) {
    obs::MetricsSnapshot snap;
    obs::WritePerfTotals(&snap, labels, totals);
    return snap;
  };
  StatsResp resp;
  resp.reactors = {section("stage=\"process\""),
                   section("stage=\"process\"")};
  resp.service = section("stage=\"bin\"");
  resp.service.gauges["sessions"] = 2.0;

  const obs::MetricsSnapshot merged = resp.Merged();
  EXPECT_EQ(merged.gauges.at("sessions"), 2.0);
  EXPECT_EQ(merged.counters.at("perf_units{stage=\"process\"}"), 200u);
  EXPECT_EQ(merged.counters.at("perf_units{stage=\"bin\"}"), 100u);
  EXPECT_EQ(merged.counters.at("perf_cpu_ns{stage=\"process\"}"), 6000u);
  EXPECT_EQ(merged.counters.at("perf_cpu_ns{stage=\"bin\"}"), 3000u);
}

// A session's detection-quality section and one of its subspace sections,
// as SpotService::QualitySnapshot labels and fills them.
std::vector<obs::LabeledSnapshot> SampleSessionSections() {
  obs::MetricsSnapshot session;
  session.counters["grid_cells_reclaimed"] = 77;
  session.counters["grid_compactions"] = 3;
  session.counters["session_alarms"] = 123;
  session.counters["session_points"] = 5000;
  session.gauges["slab_free_slots"] = 16.0;
  session.gauges["slab_slots"] = 1024.0;
  session.gauges["tracked_subspaces"] = 9.0;
  for (int i = 1; i <= 50; ++i) {
    session.histograms["rd_margin_x1000"].Record(i * 40.0);
  }
  session.histograms["irsd_margin_x1000"].Record(999.0);
  obs::MetricsSnapshot subspace;
  subspace.counters["subspace_alarms"] = 100;
  subspace.counters["subspace_points"] = 5000;
  return {{"session=\"lg-0\"", session},
          {"session=\"lg-0\",subspace=\"0xb\"", subspace}};
}

TEST(CodecTest, StatsSessionSectionsRoundTrip) {
  // The stats payload carries the service's labeled session sections
  // after the reactor/service snapshots. A session section, a subspace
  // section and an empty section must round-trip exactly, and truncating
  // anywhere inside the tail must fail cleanly like the snapshot sections.
  StatsResp resp;
  resp.reactors = {obs::MetricsSnapshot()};
  resp.sessions = SampleSessionSections();
  // A session that has seen nothing yet, under an empty label.
  resp.sessions.emplace_back("", obs::MetricsSnapshot());

  StatsResp decoded;
  ASSERT_TRUE(DecodeStats(EncodeStats(resp), &decoded));
  ASSERT_EQ(decoded.sessions.size(), 3u);
  for (std::size_t i = 0; i < resp.sessions.size(); ++i) {
    const obs::LabeledSnapshot& want = resp.sessions[i];
    const obs::LabeledSnapshot& got = decoded.sessions[i];
    EXPECT_EQ(got.first, want.first) << i;
    EXPECT_EQ(got.second.counters, want.second.counters) << i;
    EXPECT_EQ(got.second.gauges, want.second.gauges) << i;
    EXPECT_EQ(got.second.histograms, want.second.histograms) << i;
  }
  EXPECT_TRUE(decoded.sessions[2].second.empty());
  // The merged view folds the reactors and the service only.
  EXPECT_EQ(decoded.Merged().counters.count("session_points"), 0u);

  const std::string wire = EncodeStats(resp);
  for (std::size_t cut = 0; cut < wire.size(); cut += 5) {
    StatsResp scratch;
    EXPECT_FALSE(DecodeStats(wire.substr(0, cut), &scratch)) << cut;
  }
  StatsResp scratch;
  EXPECT_FALSE(DecodeStats(wire + "x", &scratch));
}

TEST(CodecTest, HostileSessionCountsDoNotAllocate) {
  // A stats tail claiming 4G session sections (or 4G counters inside one
  // section) in a handful of bytes must be rejected by the size bound
  // before any proportional allocation — same discipline as the reactor
  // and instrument counts.
  ByteWriter w;
  w.U32(0);            // reactors
  w.U32(0);            // service snapshot: counters,
  w.U32(0);            //   gauges,
  w.U32(0);            //   histograms
  w.U32(0xFFFFFFFFu);  // "session count"
  StatsResp scratch;
  EXPECT_FALSE(DecodeStats(w.bytes(), &scratch));

  StatsResp one;
  one.sessions.emplace_back("session=\"s\"", obs::MetricsSnapshot());
  std::string wire = EncodeStats(one);
  // The section's snapshot ends with its three u32 counts; rewrite the
  // counter count.
  ByteWriter count;
  count.U32(0xFFFFFFFFu);
  wire.replace(wire.size() - 12, 4, count.bytes());
  EXPECT_FALSE(DecodeStats(wire, &scratch));
}

TEST(CodecTest, MinimalSessionSectionsDecode) {
  // The session-count bound divides by the smallest section a session can
  // encode to (16 bytes: an empty label and an empty snapshot), so a
  // payload made of nothing but minimal sections still decodes.
  StatsResp resp;
  resp.sessions.resize(64);
  const std::string wire = EncodeStats(resp);
  ASSERT_EQ(wire.size(), 20u + 64u * 16u);
  StatsResp decoded;
  ASSERT_TRUE(DecodeStats(wire, &decoded));
  EXPECT_EQ(decoded.sessions.size(), 64u);
}

std::vector<PayloadCodec> ResponseCodecs() {
  VerdictsResp verdicts;
  verdicts.session_id = "v";
  verdicts.first_point_id = 424242;
  verdicts.verdicts = SampleVerdicts();
  VerdictsResp verdicts_empty;
  verdicts_empty.session_id = "v";

  TopKResp topk;
  topk.session_id = "t";
  topk.entries = SampleTopK();
  TopKResp topk_empty;
  topk_empty.session_id = "t";

  // Snapshots with several names per section, in the map's order, and
  // histograms that are populated, single-sample and empty.
  StatsResp stats;
  obs::MetricsSnapshot r0;
  r0.counters["batches_run"] = 17;
  r0.counters["points_ingested"] = 1234;
  r0.gauges["connections"] = 2.0;
  r0.gauges["pending_points"] = 48.5;
  for (int i = 0; i < 40; ++i) {
    r0.histograms["pipeline_process_us"].Record(i * 37.0);
  }
  r0.histograms["pipeline_encode_us"].Record(3.0);
  r0.histograms["pipeline_write_us"];  // registered, never recorded
  stats.reactors = {r0, obs::MetricsSnapshot()};
  stats.service.counters["evictions"] = 5;
  stats.service.histograms["checkpoint_save_us"].Record(900.0);
  stats.sessions = SampleSessionSections();

  return {
      {"Ok",
       {EncodeOk({5}), EncodeOk({0})},
       RoundTrip<OkResp, DecodeOk, EncodeOk>},
      {"Error",
       {EncodeError({3, ErrorCode::kLearnFailed, "bad config"}),
        EncodeError({1, ErrorCode::kUnknown, ""})},
       RoundTrip<ErrorResp, DecodeError, EncodeError>},
      {"Verdicts",
       {EncodeVerdicts(verdicts), EncodeVerdicts(verdicts_empty)},
       RoundTrip<VerdictsResp, DecodeVerdicts, EncodeVerdicts>},
      {"TopK",
       {EncodeTopK(topk), EncodeTopK(topk_empty)},
       RoundTrip<TopKResp, DecodeTopK, EncodeTopK>},
      {"Stats",
       {EncodeStats(stats), EncodeStats(StatsResp())},
       RoundTrip<StatsResp, DecodeStats, EncodeStats>},
  };
}

// Response decoders are canonical too. A stats payload has three ways to
// break that, all refused: a histogram bucket with a zero count or a
// repeated or out-of-order index; histogram moments that Record never
// produces (a NaN, a negative min, a max below the min, moments on an
// empty histogram), which decoding used to normalize; and a repeated or
// out-of-order instrument name, which decoding used to fold into one map
// entry.
TEST(CodecTest, ResponseDecodersAreCanonicalUnderMutation) {
  ExpectCanonicalUnderMutation(ResponseCodecs(), 20261020);
}

TEST(CodecTest, HostileStatsCountsDoNotAllocate) {
  // A header announcing 2^32-ish snapshots/instruments must be rejected
  // by the payload-size bound before any proportional allocation.
  ByteWriter w;
  w.U64(0);            // handoffs
  w.U32(0xFFFFFFFFu);  // "reactor count"
  StatsResp scratch;
  EXPECT_FALSE(DecodeStats(w.bytes(), &scratch));

  ByteWriter w2;
  w2.U64(0);
  w2.U32(1);           // one reactor snapshot...
  w2.U32(0xFFFFFFFFu);  // ...claiming 4G counters
  EXPECT_FALSE(DecodeStats(w2.bytes(), &scratch));
}

}  // namespace
}  // namespace net
}  // namespace spot
