// End-to-end tests of the network ingest layer (src/net/): a real
// SpotServer on a loopback socket, driven by SpotClient and by raw
// sockets. Proves the acceptance criteria of DESIGN.md Sections 7-8:
// server round-trip verdicts (including outlying-subspace findings) are
// byte-identical to in-process SpotService::Ingest on the same stream at
// shards {1, 4} x reactors {1, 2, 4} — under randomized client-side
// chunking and mid-stream flush barriers, with every reactor sharing the
// server's one service — and that malformed traffic, cross-reactor
// session claims, and fd exhaustion never crash the server or disturb
// other connections — and that every reactor's sharded batches share the
// process's one compute pool.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/detector.h"
#include "eval/presets.h"
#include "mutations.h"
#include "net/protocol.h"
#include "net/spot_client.h"
#include "net/spot_server.h"
#include "obs/stage.h"
#include "service/spot_service.h"
#include "stream/synthetic.h"

namespace spot {
namespace net {
namespace {

std::string MakeCheckpointDir(const char* tag) {
  const std::string dir = testing::TempDir() + "spot_net_" + tag;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

SpotConfig SessionConfig() {
  SpotConfig cfg = eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 300;
  return cfg;
}

std::vector<DataPoint> TenantPoints(int t, int n) {
  stream::SyntheticConfig scfg;
  scfg.dimension = 6;
  scfg.outlier_probability = 0.03;
  scfg.concept_seed = 300 + static_cast<std::uint64_t>(t);
  scfg.seed = 8100 + static_cast<std::uint64_t>(t);
  stream::GaussianStream gen(scfg);
  std::vector<DataPoint> out;
  for (const LabeledPoint& p : Take(gen, static_cast<std::size_t>(n))) {
    out.push_back(p.point);
  }
  return out;
}

std::vector<std::vector<double>> TenantTraining(int t) {
  stream::SyntheticConfig scfg;
  scfg.dimension = 6;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = 300 + static_cast<std::uint64_t>(t);
  scfg.seed = 8200 + static_cast<std::uint64_t>(t);
  stream::GaussianStream gen(scfg);
  return ValuesOf(Take(gen, 300));
}

/// A SpotServer (owning the service its reactors share) running Run() on
/// a thread — reactor 0's loop lives there, further reactors spawn their
/// own threads inside Run().
class TestServer {
 public:
  TestServer(SpotServiceConfig scfg, SpotServerConfig ncfg) {
    server_ = std::make_unique<SpotServer>(scfg, ncfg);
    EXPECT_TRUE(server_->Start());
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~TestServer() { StopAndJoin(); }

  /// Stops every loop and joins; Run() performs the graceful Shutdown()
  /// (drain every reactor, then one CheckpointAll) on its way out. Safe
  /// to call twice.
  void StopAndJoin() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
  }

  std::uint16_t port() const { return server_->port(); }
  SpotService& service() { return server_->service(); }
  SpotServer& server() { return *server_; }

  /// Counter `name` as the server's registries record it, read through
  /// StatsSnapshot(): reactor `reactor`'s own, or summed across every
  /// section when negative. Exact after StopAndJoin(): each reactor's
  /// shutdown publishes a final snapshot.
  std::uint64_t Counter(const std::string& name, int reactor = -1) const {
    const StatsResp stats = server_->StatsSnapshot();
    const obs::MetricsSnapshot snap =
        reactor < 0 ? stats.Merged()
                    : stats.reactors[static_cast<std::size_t>(reactor)];
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  /// Every series of counter `family` (`family{...}`, any labels), summed
  /// across every section.
  std::uint64_t CounterFamily(const std::string& family) const {
    std::uint64_t sum = 0;
    for (const auto& [name, value] :
         server_->StatsSnapshot().Merged().counters) {
      if (name.rfind(family + "{", 0) == 0) sum += value;
    }
    return sum;
  }

 private:
  std::unique_ptr<SpotServer> server_;
  std::thread thread_;
};

/// Feeds `points` through the wire in randomized chunks with occasional
/// mid-stream barriers and returns every verdict, in point order.
std::vector<SpotResult> StreamOverWire(SpotClient& client,
                                       const std::string& id,
                                       const std::vector<DataPoint>& points,
                                       std::uint64_t chunk_seed) {
  Rng rng(chunk_seed);
  std::vector<SpotResult> verdicts;
  std::size_t i = 0;
  while (i < points.size()) {
    const std::size_t n = std::min(
        points.size() - i, 1 + static_cast<std::size_t>(rng.NextInt(0, 96)));
    EXPECT_TRUE(client.Ingest(
        id, std::vector<DataPoint>(points.begin() + static_cast<long>(i),
                                   points.begin() + static_cast<long>(i + n))))
        << client.last_error();
    i += n;
    if (rng.NextDouble() < 0.15) {
      EXPECT_TRUE(client.Flush(id, &verdicts)) << client.last_error();
    }
  }
  EXPECT_TRUE(client.Flush(id, &verdicts)) << client.last_error();
  return verdicts;
}

// The headline differential: two sessions streamed over the wire — each
// on its own connection, so a multi-reactor server spreads them across
// loops — through a server running at `shards` x `reactors`, against two
// in-process reference services at shard count 1 — randomized framing,
// randomized barriers. VerdictBytes (raw IEEE-754 bit patterns of scores
// and PCS evidence, subspace masks, flags) must match exactly.
void RunDifferential(std::size_t shards, std::size_t reactors) {
  SpotServiceConfig scfg;
  scfg.num_shards = shards;
  SpotServerConfig ncfg;
  ncfg.batch_points = 48;  // force multi-chunk coalescing paths
  ncfg.num_reactors = reactors;
  TestServer server(scfg, ncfg);

  SpotServiceConfig ref_cfg;  // shards=1: also proves shard invariance
  SpotService reference(ref_cfg);

  std::vector<std::unique_ptr<SpotClient>> clients;
  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    clients.push_back(std::make_unique<SpotClient>());
    SpotClient& client = *clients.back();
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.CreateSession(id, SessionConfig(), TenantTraining(t)))
        << client.last_error();
    ASSERT_TRUE(
        reference.CreateSession(id, SessionConfig(), TenantTraining(t)));
  }

  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    const std::vector<DataPoint> points = TenantPoints(t, 700);
    const std::vector<SpotResult> wire_verdicts = StreamOverWire(
        *clients[static_cast<std::size_t>(t)], id, points,
        42 + static_cast<std::uint64_t>(t));
    const IngestResult ref = reference.Ingest(id, points);
    ASSERT_TRUE(ref.ok);
    ASSERT_EQ(wire_verdicts.size(), points.size());
    EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref.verdicts))
        << "shards=" << shards << " reactors=" << reactors
        << " session=" << id;
  }
  for (auto& client : clients) client->Disconnect();
  server.StopAndJoin();
  EXPECT_GT(server.Counter("batches_run"), 0u);
  EXPECT_EQ(server.Counter("points_ingested"), 1400u);
}

TEST(NetDifferentialTest, WireVerdictsByteIdenticalAtOneShard) {
  RunDifferential(/*shards=*/1, /*reactors=*/1);
}

TEST(NetDifferentialTest, WireVerdictsByteIdenticalAtFourShards) {
  RunDifferential(/*shards=*/4, /*reactors=*/1);
}

TEST(NetDifferentialTest, WireVerdictsByteIdenticalAtTwoShards) {
  RunDifferential(/*shards=*/2, /*reactors=*/1);
}

TEST(NetDifferentialTest, TwoReactorsByteIdentical) {
  RunDifferential(/*shards=*/1, /*reactors=*/2);
}

TEST(NetDifferentialTest, FourReactorsFourShardsByteIdentical) {
  RunDifferential(/*shards=*/4, /*reactors=*/4);
}

TEST(NetDifferentialTest, TwoReactorsTwoShardsByteIdentical) {
  RunDifferential(/*shards=*/2, /*reactors=*/2);
}

/// Streams in fixed-size chunks with a Flush barrier after each, so the
/// batch boundaries the service sees are identical run to run. The free-
/// running StreamOverWire coalesces by arrival timing, which legitimately
/// varies the batch split (and with it stats_.batches_processed inside
/// the checkpoint) between two otherwise identical servers — the
/// observability differential must only ever see the differences its
/// knob induces.
std::vector<SpotResult> StreamDeterministic(SpotClient& client,
                                            const std::string& id,
                                            const std::vector<DataPoint>& points,
                                            std::size_t chunk) {
  std::vector<SpotResult> verdicts;
  for (std::size_t i = 0; i < points.size(); i += chunk) {
    const std::size_t n = std::min(chunk, points.size() - i);
    EXPECT_TRUE(client.Ingest(
        id, std::vector<DataPoint>(points.begin() + static_cast<long>(i),
                                   points.begin() + static_cast<long>(i + n))))
        << client.last_error();
    EXPECT_TRUE(client.Flush(id, &verdicts)) << client.last_error();
  }
  return verdicts;
}

// ------------------------------------------------------------ robustness --

int RawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Blocks until the peer closes (returns true), collecting the frames it
/// sent before the EOF into `frames` when non-null. False when the
/// connection is still open after `timeout_ms`, or its bytes are not
/// frames — so a server that fails to close cannot hang the test.
bool WaitForClose(int fd, std::vector<Frame>* frames = nullptr,
                  int timeout_ms = 5000) {
  timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  FrameDecoder decoder;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    decoder.Append(buf, static_cast<std::size_t>(n));
    Frame frame;
    FrameDecoder::Status status;
    while ((status = decoder.Next(&frame)) == FrameDecoder::Status::kFrame) {
      if (frames != nullptr) frames->push_back(frame);
    }
    if (status == FrameDecoder::Status::kCorrupt) return false;
  }
}

/// The ErrorCode of the first kError among `frames` (kUnknown if none).
ErrorCode FirstErrorCode(const std::vector<Frame>& frames) {
  for (const Frame& frame : frames) {
    ErrorResp resp;
    if (frame.type == MsgType::kError && DecodeError(frame.payload, &resp)) {
      return resp.code;
    }
  }
  return ErrorCode::kUnknown;
}

TEST(NetRobustnessTest, GarbageClosesConnectionServerSurvives) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});

  const int raw = RawConnect(server.port());
  SendAll(raw, std::string(1024, 'Z'));  // not a frame at all
  EXPECT_TRUE(WaitForClose(raw));
  ::close(raw);

  // A well-behaved client on a fresh connection still gets full service.
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("ok", SessionConfig(), TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("ok", TenantPoints(0, 32)));
  ASSERT_TRUE(client.Flush("ok", &verdicts));
  EXPECT_EQ(verdicts.size(), 32u);

  server.StopAndJoin();
  EXPECT_EQ(server.Counter("connections_closed{cause=\"corrupt_frame\"}"), 1u);
}

TEST(NetRobustnessTest, CorruptCrcAndOversizedFramesRejected) {
  SpotServerConfig ncfg;
  ncfg.max_payload_bytes = 1 << 16;
  TestServer server(SpotServiceConfig{}, ncfg);

  // CRC corruption inside an otherwise valid frame.
  {
    const int raw = RawConnect(server.port());
    std::string wire = EncodeFrame(MsgType::kFlush, EncodeFlush({""}));
    wire.back() = static_cast<char>(wire.back() ^ 0x01);
    SendAll(raw, wire);
    EXPECT_TRUE(WaitForClose(raw));
    ::close(raw);
  }
  // Header announcing a payload over the server's cap.
  {
    const int raw = RawConnect(server.port());
    ByteWriter w;
    w.U32(kFrameMagic);
    w.U8(kWireVersion);
    w.U8(static_cast<std::uint8_t>(MsgType::kIngest));
    w.U16(0);
    w.U32(1u << 20);
    w.U32(0);
    SendAll(raw, w.bytes());
    EXPECT_TRUE(WaitForClose(raw));
    ::close(raw);
  }
  // Truncated frame then EOF: no crash, connection just goes away.
  {
    const int raw = RawConnect(server.port());
    const std::string wire = EncodeFrame(MsgType::kFlush, EncodeFlush({""}));
    SendAll(raw, wire.substr(0, wire.size() - 2));
    ::close(raw);
  }

  server.StopAndJoin();
  EXPECT_EQ(server.Counter("connections_closed{cause=\"corrupt_frame\"}"), 2u);
  EXPECT_EQ(server.CounterFamily("connections_closed"),
            server.Counter("connections_accepted"));
}

TEST(NetRobustnessTest, IngestToUnknownSessionReportsErrorAndCloses) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // The send always succeeds, but Ingest also drains replies already in
  // flight, so the server's refusal surfaces either there or at the Flush
  // barrier — whichever reads it first.
  if (client.Ingest("ghost", TenantPoints(0, 4))) {
    std::vector<SpotResult> verdicts;
    EXPECT_FALSE(client.Flush("ghost", &verdicts));
  }
  EXPECT_EQ(client.last_code(), ErrorCode::kNotAttached)
      << client.last_error();
  EXPECT_NE(client.last_error().find("ghost"), std::string::npos)
      << client.last_error();
}

// A refused chunk ends the session's stream on that connection: points
// queued behind it in the same read are discarded, never processed past
// the hole. One write carries a chunk of wrong-width points and a run of
// good ones; the early batch cut (256) mixes them, the service refuses the
// mix, and the 54 good points left over must not reach the detector.
TEST(NetRobustnessTest, RefusedIngestProcessesNothingAfterIt) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  {
    SpotClient setup;
    ASSERT_TRUE(setup.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(
        setup.CreateSession("hole", SessionConfig(), TenantTraining(0)));
  }

  IngestReq bad;
  bad.session_id = "hole";
  for (std::uint64_t i = 0; i < 10; ++i) {
    bad.points.push_back(DataPoint{900000 + i, {0.1, 0.2, 0.3}});
  }
  IngestReq good;
  good.session_id = "hole";
  good.points = TenantPoints(0, 300);
  const int raw = RawConnect(server.port());
  SendAll(raw, EncodeFrame(MsgType::kResumeSession,
                           EncodeResumeSession({"hole"})) +
                   EncodeFrame(MsgType::kIngest, EncodeIngest(bad)) +
                   EncodeFrame(MsgType::kIngest, EncodeIngest(good)));
  std::vector<Frame> frames;
  EXPECT_TRUE(WaitForClose(raw, &frames));
  ::close(raw);
  EXPECT_EQ(FirstErrorCode(frames), ErrorCode::kIngestFailed);
  for (const Frame& frame : frames) {
    EXPECT_NE(frame.type, MsgType::kVerdicts);
  }
  SessionMetrics m;
  ASSERT_TRUE(server.service().GetMetrics("hole", &m));
  EXPECT_EQ(m.stats.points_processed, 0u);

  // A new connection resumes the session with no hole in its stream: its
  // verdicts match a detector that never saw any of the refused write.
  SpotService reference{SpotServiceConfig{}};
  ASSERT_TRUE(
      reference.CreateSession("hole", SessionConfig(), TenantTraining(0)));
  const std::vector<DataPoint> next = TenantPoints(1, 32);
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.ResumeSession("hole")) << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("hole", next));
  ASSERT_TRUE(client.Flush("hole", &verdicts)) << client.last_error();
  const IngestResult ref = reference.Ingest("hole", next);
  ASSERT_TRUE(ref.ok);
  EXPECT_EQ(VerdictBytes(verdicts), VerdictBytes(ref.verdicts));
}

// A NaN or infinite coordinate is refused at each of the three doors that
// already check widths: the service's Ingest, a feedback example and a
// create's training rows (and a create's config: every double of a
// SpotConfig must be finite). Each refusal carries its named code and is
// counted. The bystander is a well-formed session on its own connection,
// created before the refusals and streamed after them; its verdicts must
// equal an in-process reference's.
class Bystander {
 public:
  explicit Bystander(std::uint16_t port) {
    EXPECT_TRUE(client_.Connect("127.0.0.1", port));
    EXPECT_TRUE(client_.CreateSession("bystander", SessionConfig(),
                                      TenantTraining(0)))
        << client_.last_error();
    EXPECT_TRUE(reference_.CreateSession("bystander", SessionConfig(),
                                         TenantTraining(0)));
  }

  void ExpectVerdictsKept() {
    const std::vector<DataPoint> points = TenantPoints(0, 200);
    std::vector<SpotResult> got;
    ASSERT_TRUE(client_.Ingest("bystander", points));
    ASSERT_TRUE(client_.Flush("bystander", &got)) << client_.last_error();
    const IngestResult want = reference_.Ingest("bystander", points);
    ASSERT_TRUE(want.ok);
    EXPECT_EQ(VerdictBytes(got), VerdictBytes(want.verdicts));
  }

 private:
  SpotClient client_;
  SpotService reference_{SpotServiceConfig{}};
};

constexpr double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};

TEST(NetRobustnessTest, NonFiniteIngestRefusedAndCloses) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  Bystander bystander(server.port());
  int n = 0;
  for (const double bad : kNonFinite) {
    const std::string id = "bad-" + std::to_string(n++);
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.CreateSession(id, SessionConfig(), TenantTraining(1)))
        << client.last_error();
    std::vector<DataPoint> points = TenantPoints(1, 40);
    points[9].values[2] = bad;
    // The refusal surfaces at Ingest (draining replies in flight) or at
    // the Flush barrier, whichever reads it first.
    if (client.Ingest(id, points)) {
      std::vector<SpotResult> verdicts;
      EXPECT_FALSE(client.Flush(id, &verdicts)) << bad;
    }
    EXPECT_EQ(client.last_code(), ErrorCode::kIngestFailed)
        << bad << ": " << client.last_error();
    SessionMetrics m;
    ASSERT_TRUE(server.service().GetMetrics(id, &m));
    EXPECT_EQ(m.stats.points_processed, 0u) << bad;
  }
  bystander.ExpectVerdictsKept();
  server.StopAndJoin();
  EXPECT_EQ(server.Counter("refusals{code=\"ingest_failed\"}"), 3u);
  EXPECT_EQ(server.Counter("connections_closed{cause=\"refused\"}"), 3u);
}

TEST(NetRobustnessTest, NonFiniteFeedbackExampleRefused) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  Bystander bystander(server.port());
  SpotService reference{SpotServiceConfig{}};
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("fb", SessionConfig(), TenantTraining(1)))
      << client.last_error();
  ASSERT_TRUE(reference.CreateSession("fb", SessionConfig(),
                                      TenantTraining(1)));
  const std::vector<DataPoint> points = TenantPoints(1, 400);
  std::vector<SpotResult> got;
  ASSERT_TRUE(client.Ingest(
      "fb", std::vector<DataPoint>(points.begin(), points.begin() + 200)));
  ASSERT_TRUE(client.Flush("fb", &got)) << client.last_error();
  for (const double bad : kNonFinite) {
    std::vector<double> example = points[3].values;
    example[1] = bad;
    EXPECT_FALSE(client.Feedback("fb", {}, {example})) << bad;
    EXPECT_EQ(client.last_code(), ErrorCode::kFeedbackFailed)
        << bad << ": " << client.last_error();
  }
  // The refused rounds changed no state and drew no random number: the
  // stream goes on as a reference's that never saw them.
  ASSERT_TRUE(client.Ingest(
      "fb", std::vector<DataPoint>(points.begin() + 200, points.end())));
  ASSERT_TRUE(client.Flush("fb", &got)) << client.last_error();
  const IngestResult want = reference.Ingest("fb", points);
  ASSERT_TRUE(want.ok);
  EXPECT_EQ(VerdictBytes(got), VerdictBytes(want.verdicts));
  bystander.ExpectVerdictsKept();
  server.StopAndJoin();
  EXPECT_EQ(server.Counter("refusals{code=\"feedback_failed\"}"), 3u);
}

TEST(NetRobustnessTest, NonFiniteTrainingOrConfigRefusedAtCreate) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  Bystander bystander(server.port());
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (const double bad : kNonFinite) {
    std::vector<std::vector<double>> training = TenantTraining(1);
    training[7][4] = bad;
    EXPECT_FALSE(client.CreateSession("rows", SessionConfig(), training))
        << bad;
    EXPECT_EQ(client.last_code(), ErrorCode::kLearnFailed)
        << bad << ": " << client.last_error();
  }
  SpotConfig nan_epsilon = SessionConfig();
  nan_epsilon.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(client.CreateSession("eps", nan_epsilon, TenantTraining(1)));
  EXPECT_EQ(client.last_code(), ErrorCode::kLearnFailed)
      << client.last_error();
  EXPECT_FALSE(server.service().HasSession("rows"));
  EXPECT_FALSE(server.service().HasSession("eps"));
  // A refused create keeps the connection.
  ASSERT_TRUE(client.CreateSession("rows", SessionConfig(), TenantTraining(1)))
      << client.last_error();
  bystander.ExpectVerdictsKept();
  server.StopAndJoin();
  EXPECT_EQ(server.Counter("refusals{code=\"learn_failed\"}"), 4u);
}

TEST(NetRobustnessTest, InvalidClientInputFailsFastWithoutTouchingWire) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // A ragged training matrix cannot be encoded as the wire's rows*dims
  // block; the client must reject it naming the offending row, before
  // any bytes hit the socket (the server could only close the connection
  // on a generically malformed payload).
  std::vector<std::vector<double>> ragged = TenantTraining(0);
  ragged[3].pop_back();
  EXPECT_FALSE(client.CreateSession("rag", SessionConfig(), ragged));
  EXPECT_NE(client.last_error().find("ragged"), std::string::npos)
      << client.last_error();
  EXPECT_NE(client.last_error().find("row 3"), std::string::npos)
      << client.last_error();
  EXPECT_EQ(client.bytes_sent(), 0u);

  // Same for an ingest batch mixing point dimensions.
  std::vector<DataPoint> mixed = TenantPoints(0, 4);
  mixed[2].values.push_back(1.0);
  EXPECT_FALSE(client.Ingest("rag", mixed));
  EXPECT_NE(client.last_error().find("point 2"), std::string::npos)
      << client.last_error();
  EXPECT_EQ(client.bytes_sent(), 0u);

  // A batch whose payload would exceed the 16 MiB wire cap is equally
  // connection-fatal server-side (the decoder latches corrupt); the
  // client refuses to send it and names the cause.
  std::vector<DataPoint> huge(260000);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i].id = i;
    huge[i].values.assign(8, 0.5);  // 260k * 72 B ~ 18 MB > 16 MiB cap
  }
  EXPECT_FALSE(client.Ingest("rag", huge));
  EXPECT_NE(client.last_error().find("wire cap"), std::string::npos)
      << client.last_error();
  EXPECT_EQ(client.bytes_sent(), 0u);

  // The connection was never touched: the same client still works.
  ASSERT_TRUE(
      client.CreateSession("rag", SessionConfig(), TenantTraining(0)));
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("rag", TenantPoints(0, 4)));
  EXPECT_TRUE(client.Flush("rag", &verdicts));
  EXPECT_EQ(verdicts.size(), 4u);
}

TEST(NetRobustnessTest, SessionExclusiveToOneConnection) {
  const std::string dir = MakeCheckpointDir("excl");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  TestServer server(scfg, SpotServerConfig{});

  SpotClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(first.CreateSession("solo", SessionConfig(),
                                  TenantTraining(0)));
  SpotClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(second.ResumeSession("solo"));
  EXPECT_EQ(second.last_code(), ErrorCode::kAttachedElsewhere);
  EXPECT_NE(second.last_error().find("another connection"),
            std::string::npos);

  // Once the owner disconnects, the session can be re-attached.
  first.Disconnect();
  SpotClient third;
  ASSERT_TRUE(third.Connect("127.0.0.1", server.port()));
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (third.ResumeSession("solo")) break;
    // The server may not have reaped the first connection yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(third.Ingest("solo", TenantPoints(0, 8)));
  EXPECT_TRUE(third.Flush("solo", &verdicts));
  EXPECT_EQ(verdicts.size(), 8u);
}

// kCheckpoint acts only on the requesting connection's sessions: naming a
// session another connection holds is refused with kNotAttached, an empty
// id covers only this connection's own (here: no) sessions, and neither
// writes the other's checkpoint. The owner's own request writes it.
TEST(NetRobustnessTest, CheckpointActsOnlyOnOwnSessions) {
  const std::string dir = MakeCheckpointDir("ckpt_owner");
  const std::string path = dir + "/owned.ckpt";
  std::remove(path.c_str());
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  TestServer server(scfg, SpotServerConfig{});

  SpotClient owner;
  ASSERT_TRUE(owner.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(
      owner.CreateSession("owned", SessionConfig(), TenantTraining(0)))
      << owner.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(owner.Ingest("owned", TenantPoints(0, 32)));
  ASSERT_TRUE(owner.Flush("owned", &verdicts));

  SpotClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()));
  const RpcStatus refused = other.Checkpoint("owned");
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kNotAttached);
  EXPECT_TRUE(other.Checkpoint("")) << other.last_error();
  struct stat st;
  EXPECT_NE(::stat(path.c_str(), &st), 0)
      << "another connection's checkpoint request wrote " << path;

  EXPECT_TRUE(owner.Checkpoint("owned")) << owner.last_error();
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
}

// ---------------------------------------------------------- multi-reactor --

// Connections are placed deterministically: reactor 0 accepts and deals
// round-robin, so the k-th connection lands on reactor k % num_reactors.
// The cross-reactor tests rely on this.

// A second connection — on a different reactor — claiming a session that
// is live on the first gets a protocol kError naming the cause, and the
// first connection's stream is unaffected.
TEST(NetMultiReactorTest, CrossReactorClaimRefusedNamesOwner) {
  const std::string dir = MakeCheckpointDir("xclaim");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;
  TestServer server(scfg, ncfg);

  SpotClient first;  // -> reactor 0
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(first.CreateSession("pin", SessionConfig(), TenantTraining(0)))
      << first.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(first.Ingest("pin", TenantPoints(0, 16)));
  ASSERT_TRUE(first.Flush("pin", &verdicts));
  ASSERT_EQ(verdicts.size(), 16u);

  SpotClient second;  // -> reactor 1
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(second.ResumeSession("pin"));
  EXPECT_EQ(second.last_code(), ErrorCode::kAttachedElsewhere);
  EXPECT_NE(second.last_error().find("another connection"),
            std::string::npos)
      << second.last_error();
  EXPECT_NE(second.last_error().find("reactor 0"), std::string::npos)
      << second.last_error();
  // A create under the same id is refused too.
  EXPECT_FALSE(
      second.CreateSession("pin", SessionConfig(), TenantTraining(0)));
  EXPECT_EQ(second.last_code(), ErrorCode::kSessionExists);
  EXPECT_NE(second.last_error().find("already exists"), std::string::npos)
      << second.last_error();

  // The first connection's stream is untouched by the refused claims.
  ASSERT_TRUE(first.Ingest("pin", TenantPoints(0, 16)));
  EXPECT_TRUE(first.Flush("pin", &verdicts));
  EXPECT_EQ(verdicts.size(), 32u);
}

// After the owning connection goes away, a resume landing on a different
// reactor attaches there: every reactor shares the server's one service,
// so nothing moves — no checkpoint directory is needed, none is written —
// and the spliced verdict stream is byte-identical to an uninterrupted
// in-process run.
TEST(NetMultiReactorTest, CrossReactorHandOffBitIdentical) {
  const std::vector<DataPoint> points = TenantPoints(0, 600);
  const std::size_t kCut = 300;

  SpotService reference{SpotServiceConfig{}};
  ASSERT_TRUE(
      reference.CreateSession("s", SessionConfig(), TenantTraining(0)));
  const IngestResult ref = reference.Ingest("s", points);
  ASSERT_TRUE(ref.ok);

  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;
  TestServer server(SpotServiceConfig{}, ncfg);  // no checkpoint dir

  std::vector<SpotResult> wire_verdicts;
  {
    SpotClient client;  // -> reactor 0
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(
        client.CreateSession("s", SessionConfig(), TenantTraining(0)));
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin(),
                                    points.begin() + kCut)));
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
    client.Disconnect();
  }
  {
    SpotClient client;  // -> reactor 1
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    RpcStatus resumed;
    for (int attempt = 0; attempt < 100; ++attempt) {
      resumed = client.ResumeSession("s");
      if (resumed.ok) break;
      // Reactor 0 may not have reaped the first connection yet.
      ASSERT_EQ(resumed.code, ErrorCode::kAttachedElsewhere)
          << resumed.cause;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(resumed.ok) << resumed.cause;
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin() + kCut, points.end())));
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
  }
  ASSERT_EQ(wire_verdicts.size(), points.size());
  EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref.verdicts));
  EXPECT_EQ(server.service().TotalMetrics().checkpoints_written, 0u);
  server.StopAndJoin();
  EXPECT_GT(server.Counter("batches_run", 0), 0u);
  EXPECT_GT(server.Counter("batches_run", 1), 0u);
}

// fd exhaustion pauses only the affected reactor's listener: established
// traffic on every reactor keeps flowing, the pause is accounted to that
// reactor alone, and accepts recover once descriptors free up.
TEST(NetMultiReactorTest, FdExhaustionOnOneReactorDoesNotStallOthers) {
  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;
  TestServer server(SpotServiceConfig{}, ncfg);

  SpotClient c0;  // -> reactor 0
  ASSERT_TRUE(c0.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c0.CreateSession("fd-0", SessionConfig(), TenantTraining(0)));
  SpotClient c1;  // -> reactor 1
  ASSERT_TRUE(c1.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c1.CreateSession("fd-1", SessionConfig(), TenantTraining(1)));

  // The late client's socket exists before exhaustion (this process hosts
  // both sides); its connect() lands in the accept queue while the server
  // cannot accept.
  const int late = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(late, 0);

  // Exhaust: clamp RLIMIT_NOFILE to the current ceiling and fill every
  // free slot below it, so the next allocation — the server's accept —
  // fails with EMFILE.
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  long max_fd = 0;
  {
    DIR* dir = ::opendir("/proc/self/fd");
    ASSERT_NE(dir, nullptr);
    while (dirent* entry = ::readdir(dir)) {
      max_fd = std::max(max_fd, ::atol(entry->d_name));
    }
    ::closedir(dir);
  }
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(max_fd + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (int fd = ::open("/dev/null", O_RDONLY); fd >= 0;
       fd = ::open("/dev/null", O_RDONLY)) {
    fillers.push_back(fd);
  }

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(late, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Give reactor 0 a few turns to hit EMFILE and pause its listener.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // Established traffic is unaffected on both reactors — including the
  // one whose listener is paused.
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(c0.Ingest("fd-0", TenantPoints(0, 32)));
  ASSERT_TRUE(c0.Flush("fd-0", &verdicts)) << c0.last_error();
  ASSERT_TRUE(c1.Ingest("fd-1", TenantPoints(1, 32)));
  ASSERT_TRUE(c1.Flush("fd-1", &verdicts)) << c1.last_error();
  EXPECT_EQ(verdicts.size(), 64u);

  // Recover: free the descriptors; the re-armed (level-triggered)
  // listener picks the queued connection up and it gets full service.
  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  SendAll(late, EncodeFrame(MsgType::kFlush, EncodeFlush({""})));
  {
    FrameDecoder decoder;
    Frame frame;
    bool got_ok = false;
    char buf[4096];
    while (!got_ok) {
      const ssize_t n = ::recv(late, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "late connection was never served";
      decoder.Append(buf, static_cast<std::size_t>(n));
      while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
        ASSERT_EQ(frame.type, MsgType::kOk);
        got_ok = true;
      }
    }
  }
  ::close(late);

  server.StopAndJoin();
  EXPECT_GE(server.Counter("listener_pauses", 0), 1u);
  EXPECT_EQ(server.Counter("listener_pauses", 1), 0u);
}

// A kCreateSession whose config carries a shard count above
// SpotConfig::kMaxShards is refused with kLearnFailed instead of being
// served at the service's count; the connection stays usable.
TEST(NetRobustnessTest, CreateSessionRefusesShardCountAboveTheBound) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  SpotConfig cfg = SessionConfig();
  cfg.num_shards = SpotConfig::kMaxShards + 1;
  const RpcStatus refused =
      client.CreateSession("wide", cfg, TenantTraining(0));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kLearnFailed);
  EXPECT_TRUE(client.CreateSession("wide", SessionConfig(), TenantTraining(0)))
      << client.last_error();
}

// Config values that size allocations are bounded (SpotConfig::
// kMaxRetainedPoints, kMaxSubspaces), and a kCreateSession carrying one past
// its bound is refused with kLearnFailed before anything is sized from it.
// So are the MOGA budgets that set how long Learn holds the reactor's loop
// thread (kMaxMogaPopulation, kMaxMogaGenerations, kMaxOutlyingRuns): a
// create asking for 2^31 - 1 generations is refused, not run. An unlimited
// FS (fs_cap 0) is bounded by kMaxSubspaces, but its lattice follows the
// training width, so Learn refuses it. The connection stays usable
// throughout.
TEST(NetRobustnessTest, CreateSessionRefusesHostileCapacities) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  const std::size_t huge = std::size_t{1} << 40;
  std::vector<std::pair<std::string, SpotConfig>> hostile;
  const auto add = [&](const char* what, const auto& edit) {
    SpotConfig cfg = SessionConfig();
    edit(&cfg);
    hostile.emplace_back(what, cfg);
  };
  add("reservoir_capacity",
      [&](SpotConfig* c) { c->reservoir_capacity = huge; });
  add("topk_capacity", [&](SpotConfig* c) { c->topk_capacity = huge; });
  add("fs_cap", [&](SpotConfig* c) { c->fs_cap = huge; });
  add("evolution.offspring",
      [&](SpotConfig* c) { c->evolution.offspring = huge; });
  add("unsupervised population_size", [](SpotConfig* c) {
    c->unsupervised.moga.population_size =
        static_cast<int>(SpotConfig::kMaxSubspaces) + 1;
  });
  add("supervised population_size",
      [](SpotConfig* c) { c->supervised.moga.population_size = -1; });
  add("unsupervised generations", [](SpotConfig* c) {
    c->unsupervised.moga.generations = std::numeric_limits<int>::max();
  });
  add("supervised generations", [](SpotConfig* c) {
    c->supervised.moga.generations = std::numeric_limits<int>::max();
  });
  add("supervised population_size for time", [](SpotConfig* c) {
    c->supervised.moga.population_size = SpotConfig::kMaxMogaPopulation + 1;
  });
  add("outlying_degree num_runs", [](SpotConfig* c) {
    c->unsupervised.outlying_degree.num_runs = std::numeric_limits<int>::max();
  });
  for (const auto& [what, cfg] : hostile) {
    const RpcStatus refused =
        client.CreateSession("hostile", cfg, TenantTraining(0));
    EXPECT_FALSE(refused.ok) << what;
    EXPECT_EQ(refused.code, ErrorCode::kLearnFailed) << what;
  }

  // 24 attributes to depth 24: a lattice of 2^24 - 1 subspaces.
  SpotConfig unlimited = SessionConfig();
  unlimited.fs_cap = 0;
  unlimited.fs_max_dimension = 24;
  std::vector<std::vector<double>> wide(20, std::vector<double>(24));
  for (std::size_t r = 0; r < wide.size(); ++r) {
    for (std::size_t d = 0; d < 24; ++d) {
      wide[r][d] = static_cast<double>((r * 7 + d * 3) % 11) / 11.0;
    }
  }
  const RpcStatus refused = client.CreateSession("hostile", unlimited, wide);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kLearnFailed);

  EXPECT_TRUE(
      client.CreateSession("hostile", SessionConfig(), TenantTraining(0)))
      << client.last_error();
}

/// Threads of this process: the entries of /proc/self/task.
std::size_t ThreadCount() {
  std::size_t threads = 0;
  DIR* dir = ::opendir("/proc/self/task");
  EXPECT_NE(dir, nullptr);
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++threads;
  }
  ::closedir(dir);
  return threads;
}

// Every reactor's sharded batches run on the process's one compute pool:
// a 2-reactor x 8-shard server adds its reactor threads plus at most
// CPUs - 1 pool workers, not a pool of K - 1 workers per reactor.
TEST(NetMultiReactorTest, ReactorsShareOneComputePool) {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(cpus), &cpus), 0);
  const std::size_t num_cpus = static_cast<std::size_t>(CPU_COUNT(&cpus));
  const std::size_t before = ThreadCount();

  SpotServiceConfig scfg;
  scfg.num_shards = 8;
  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;  // dealt round-robin: one client per reactor
  TestServer server(scfg, ncfg);
  std::vector<std::unique_ptr<SpotClient>> clients;
  for (int t = 0; t < 2; ++t) {
    const std::string id = "budget-" + std::to_string(t);
    clients.push_back(std::make_unique<SpotClient>());
    SpotClient& client = *clients.back();
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.CreateSession(id, SessionConfig(), TenantTraining(t)))
        << client.last_error();
    std::vector<SpotResult> verdicts;
    ASSERT_TRUE(client.Ingest(id, TenantPoints(t, 200)));
    ASSERT_TRUE(client.Flush(id, &verdicts)) << client.last_error();
    EXPECT_EQ(verdicts.size(), 200u);
  }
  const std::size_t serving = ThreadCount();
  EXPECT_LE(serving, before + ncfg.num_reactors + num_cpus - 1)
      << "threads before " << before << ", while serving " << serving
      << ", CPUs " << num_cpus;

  for (auto& client : clients) client->Disconnect();
  server.StopAndJoin();
  EXPECT_GT(server.Counter("batches_run", 0), 0u);
  EXPECT_GT(server.Counter("batches_run", 1), 0u);
}

// A coalesced run whose verdicts would encode past the wire payload cap
// must be split across multiple kVerdicts frames: the client sizes its
// receive decoder to the agreed cap, so an unsplit over-cap frame is
// latched as corrupt and fails the Flush. Cap and batch_points are chosen
// so every full coalesced run (96 verdicts >= 1265 encoded bytes) exceeds
// the 1200-byte cap, and the split stream must still be byte-identical to
// the in-process reference.
TEST(NetRobustnessTest, VerdictRunsSplitUnderSmallPayloadCap) {
  const SpotConfig cfg = SessionConfig();
  const auto training = TenantTraining(0);
  const std::vector<DataPoint> points = TenantPoints(0, 1500);

  SpotService reference{SpotServiceConfig{}};
  ASSERT_TRUE(reference.CreateSession("v", cfg, training));
  const IngestResult ref = reference.Ingest("v", points);
  ASSERT_TRUE(ref.ok);

  SpotServerConfig ncfg;
  ncfg.max_payload_bytes = 1200;
  ncfg.batch_points = 96;
  TestServer server(SpotServiceConfig{}, ncfg);
  // The CreateSession payload (config + training) cannot fit the tiny
  // cap; create the session directly in the service and attach to it.
  ASSERT_TRUE(server.service().CreateSession("v", cfg, training));

  SpotClient client;
  client.set_max_payload(1200);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.ResumeSession("v")) << client.last_error();
  std::vector<SpotResult> verdicts;
  for (std::size_t i = 0; i < points.size(); i += 21) {
    const std::size_t n = std::min<std::size_t>(21, points.size() - i);
    ASSERT_TRUE(client.Ingest(
        "v", std::vector<DataPoint>(points.begin() + static_cast<long>(i),
                                    points.begin() +
                                        static_cast<long>(i + n))))
        << client.last_error();
  }
  ASSERT_TRUE(client.Flush("v", &verdicts)) << client.last_error();
  ASSERT_EQ(verdicts.size(), points.size());
  EXPECT_EQ(VerdictBytes(verdicts), VerdictBytes(ref.verdicts));
}

// A slow consumer must stall only itself: with a tiny outbound cap the
// server pauses reading the connection until the client drains, and every
// verdict still arrives exactly once.
TEST(NetRobustnessTest, BackpressurePausesReadsAndRecovers) {
  SpotServiceConfig scfg;
  SpotServerConfig ncfg;
  // Absurdly small caps so the stall happens with kilobytes of traffic:
  // without them the kernel's multi-megabyte loopback buffers would
  // swallow every verdict before the userspace queue ever backed up.
  ncfg.max_output_bytes = 2048;
  ncfg.sndbuf_bytes = 2048;
  ncfg.batch_points = 32;
  TestServer server(scfg, ncfg);

  SpotClient setup;
  ASSERT_TRUE(setup.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(
      setup.CreateSession("slow", SessionConfig(), TenantTraining(0)));
  setup.Disconnect();

  // Raw socket with a tiny receive window: attach, blast ingest frames +
  // flush, and only then start reading — the worst-behaved legitimate
  // client possible.
  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 2048;  // must precede connect to shrink the window
  ::setsockopt(raw, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(raw, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  SendAll(raw, EncodeFrame(MsgType::kResumeSession,
                           EncodeResumeSession({"slow"})));
  const std::vector<DataPoint> points = TenantPoints(0, 3000);
  for (std::size_t i = 0; i < points.size(); i += 100) {
    IngestReq req;
    req.session_id = "slow";
    req.points.assign(points.begin() + static_cast<long>(i),
                      points.begin() + static_cast<long>(i + 100));
    SendAll(raw, EncodeFrame(MsgType::kIngest, EncodeIngest(req)));
  }
  SendAll(raw, EncodeFrame(MsgType::kFlush, EncodeFlush({"slow"})));

  // Stay silent long enough for the server to process every batch and
  // wedge on the ~2 KiB kernel path: the stall must happen while we are
  // not reading (draining immediately would race the event loop and
  // sometimes never back it up).
  std::this_thread::sleep_for(std::chrono::milliseconds(800));

  // Now drain: resume-Ok, verdict frames, then the flush barrier Ok.
  FrameDecoder decoder;
  std::size_t verdicts_seen = 0;
  int oks_seen = 0;
  char buf[4096];
  while (oks_seen < 2) {
    const ssize_t n = ::recv(raw, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection died before the barrier";
    decoder.Append(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (decoder.Next(&frame) == FrameDecoder::Status::kFrame) {
      if (frame.type == MsgType::kVerdicts) {
        VerdictsResp resp;
        ASSERT_TRUE(DecodeVerdicts(frame.payload, &resp));
        verdicts_seen += resp.verdicts.size();
      } else if (frame.type == MsgType::kOk) {
        ++oks_seen;
      } else {
        FAIL() << "unexpected frame type";
      }
    }
  }
  ::close(raw);
  EXPECT_EQ(verdicts_seen, points.size());

  server.StopAndJoin();
  EXPECT_GE(server.Counter("backpressure_stalls"), 1u);
  EXPECT_GT(server.Counter("frames_received"), 0u);
  EXPECT_GT(server.Counter("bytes_in"), 0u);
  EXPECT_GT(server.Counter("bytes_out"), 0u);
}

// Graceful shutdown: Stop() drains pending batches and checkpoints every
// session, so a new server over the same directory resumes bit-identically
// — the in-process proof of the SIGTERM kill/restart path the CI smoke job
// exercises end-to-end (signal handlers route SIGTERM to exactly this
// Stop()).
TEST(NetShutdownTest, StopCheckpointsAndResumesBitIdentically) {
  const std::string dir = MakeCheckpointDir("resume");
  const std::vector<DataPoint> points = TenantPoints(0, 600);
  const std::size_t kCut = 300;

  // Uninterrupted reference.
  SpotServiceConfig ref_cfg;
  SpotService reference(ref_cfg);
  ASSERT_TRUE(
      reference.CreateSession("s", SessionConfig(), TenantTraining(0)));
  const IngestResult ref = reference.Ingest("s", points);
  ASSERT_TRUE(ref.ok);

  std::vector<SpotResult> wire_verdicts;
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    TestServer server(scfg, SpotServerConfig{});
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(
        client.CreateSession("s", SessionConfig(), TenantTraining(0)));
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin(),
                                    points.begin() + kCut)));
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
    client.Disconnect();
    server.StopAndJoin();  // graceful: drains + CheckpointAll
  }
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    scfg.num_shards = 4;  // the restart may even change the shard count
    TestServer server(scfg, SpotServerConfig{});
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.ResumeSession("s")) << client.last_error();
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin() + kCut, points.end())));
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
    server.StopAndJoin();
  }
  ASSERT_EQ(wire_verdicts.size(), points.size());
  EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref.verdicts));
}

// --------------------------------------------------------- observability --

/// Scrapes until the merged server-side ingest count reaches `points`
/// (reactors publish once per loop turn, so a just-finished flush may be
/// one turn from visibility on reactors other than the one answering).
bool ScrapeUntilCount(SpotClient& client, std::uint64_t points,
                      StatsResp* out) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (!client.Stats(out)) return false;
    const obs::MetricsSnapshot merged = out->Merged();
    const auto it = merged.counters.find("points_ingested");
    if (it != merged.counters.end() && it->second >= points) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// The observability differential: a scraper hammering kStats on its own
// connection while two tenants stream — the verdicts must stay
// byte-identical to the scrape-free in-process reference (metrics are
// always on; a scrape only reads published snapshot copies), and the
// final scraped counts must match the traffic exactly.
TEST(NetObservabilityTest, MidStreamScrapesPerturbNoVerdicts) {
  SpotServiceConfig scfg;
  SpotServerConfig ncfg;
  ncfg.batch_points = 48;
  ncfg.num_reactors = 2;
  TestServer server(scfg, ncfg);

  SpotService reference{SpotServiceConfig{}};

  std::vector<std::unique_ptr<SpotClient>> clients;
  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    clients.push_back(std::make_unique<SpotClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(clients.back()->CreateSession(id, SessionConfig(),
                                              TenantTraining(t)))
        << clients.back()->last_error();
    ASSERT_TRUE(
        reference.CreateSession(id, SessionConfig(), TenantTraining(t)));
  }

  std::atomic<bool> stop_scraper{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&server, &stop_scraper, &scrapes] {
    SpotClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
    StatsResp resp;
    while (!stop_scraper.load()) {
      ASSERT_TRUE(probe.Stats(&resp)) << probe.last_error();
      ++scrapes;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    const std::vector<DataPoint> points = TenantPoints(t, 700);
    const std::vector<SpotResult> wire_verdicts = StreamOverWire(
        *clients[static_cast<std::size_t>(t)], id, points,
        1000 + static_cast<std::uint64_t>(t));
    const IngestResult ref = reference.Ingest(id, points);
    ASSERT_TRUE(ref.ok);
    ASSERT_EQ(wire_verdicts.size(), points.size());
    EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref.verdicts))
        << "session " << id << " diverged under concurrent scraping";
  }
  stop_scraper.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Final scrape: counts must match the traffic exactly.
  SpotClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
  StatsResp stats;
  ASSERT_TRUE(ScrapeUntilCount(probe, 1400, &stats)) << probe.last_error();
  ASSERT_EQ(stats.reactors.size(), 2u);
  EXPECT_EQ(stats.service.gauges.at("sessions"), 2.0);
  const obs::MetricsSnapshot merged = stats.Merged();
  EXPECT_EQ(merged.counters.at("points_ingested"), 1400u);
  EXPECT_GT(merged.counters.at("batches_run"), 0u);
  EXPECT_GE(merged.counters.at("stats_scrapes"),
            static_cast<std::uint64_t>(scrapes.load()));
  // Every pipeline stage histogram saw the traffic: one process
  // observation per engine batch, decode observations per frame.
  EXPECT_EQ(merged.histograms.at("pipeline_process_us").count(),
            merged.counters.at("batches_run"));
  EXPECT_GT(merged.histograms.at("pipeline_decode_us").count(), 0u);
  EXPECT_GT(merged.histograms.at("pipeline_encode_us").count(), 0u);
  EXPECT_GT(merged.histograms.at("pipeline_write_us").count(), 0u);
  EXPECT_EQ(merged.gauges.at("sessions"), 2.0);

  server.StopAndJoin();
}

// One record per counter on both layers: clients on two reactors stream,
// close their sessions, and the server stops. The service's lifetime
// points_processed and the reactors' summed points_ingested both count
// every streamed point, though no session is left open.
TEST(NetObservabilityTest, ServiceTotalsMatchReactorCounters) {
  SpotServerConfig ncfg;
  ncfg.batch_points = 48;
  ncfg.num_reactors = 2;
  TestServer server(SpotServiceConfig{}, ncfg);

  std::uint64_t streamed = 0;
  for (int t = 0; t < 2; ++t) {  // connection t lands on reactor t
    const std::string id = "tenant-" + std::to_string(t);
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.CreateSession(id, SessionConfig(), TenantTraining(t)))
        << client.last_error();
    const std::vector<DataPoint> points = TenantPoints(t, 300 + 100 * t);
    EXPECT_EQ(StreamOverWire(client, id, points,
                             500 + static_cast<std::uint64_t>(t))
                  .size(),
              points.size());
    ASSERT_TRUE(client.CloseSession(id, /*persist=*/false))
        << client.last_error();
    streamed += points.size();
  }
  server.StopAndJoin();

  EXPECT_EQ(server.service().TotalMetrics().sessions, 0u);
  EXPECT_GT(server.Counter("points_ingested", 0), 0u);
  EXPECT_GT(server.Counter("points_ingested", 1), 0u);
  EXPECT_EQ(server.Counter("points_ingested"), streamed);
  EXPECT_EQ(server.Counter("points_processed"), streamed);
}

TEST(NetObservabilityTest, MalformedStatsClosesOnlyThatConnection) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});

  // A healthy session on its own connection, opened first.
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("ok", SessionConfig(), TenantTraining(0)))
      << client.last_error();

  // kStats carries no payload by contract; a non-empty one is a protocol
  // error and costs the offender its connection.
  const int raw = RawConnect(server.port());
  SendAll(raw, EncodeFrame(MsgType::kStats, "unexpected"));
  EXPECT_TRUE(WaitForClose(raw));
  ::close(raw);

  // The well-behaved connection keeps full service.
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("ok", TenantPoints(0, 32)));
  ASSERT_TRUE(client.Flush("ok", &verdicts));
  EXPECT_EQ(verdicts.size(), 32u);

  server.StopAndJoin();
  EXPECT_GE(server.Counter("refusals{code=\"malformed_payload\"}"), 1u);
}

/// Sums every series of `family` (any label set) in Prometheus text.
std::uint64_t SumSeries(const std::string& text, const std::string& family) {
  std::uint64_t total = 0;
  std::size_t pos = 0;
  const std::string needle = family + "{";
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    // Skip longer names sharing the prefix (e.g. _bucket variants) and
    // mid-line matches.
    if (pos != 0 && text[pos - 1] != '\n') {
      pos += needle.size();
      continue;
    }
    const std::size_t sp = text.find(' ', pos);
    const std::size_t nl = text.find('\n', sp);
    total += std::strtoull(text.substr(sp + 1, nl - sp - 1).c_str(),
                           nullptr, 10);
    pos = nl;
  }
  return total;
}

std::string FetchMetrics(int port) {
  const int fd = RawConnect(static_cast<std::uint16_t>(port));
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  SendAll(fd, req);
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(NetObservabilityTest, HttpEndpointServesLivePerReactorSeries) {
  SpotServiceConfig scfg;
  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;
  ncfg.metrics_port = 0;  // ephemeral
  TestServer server(scfg, ncfg);
  ASSERT_GT(server.server().metrics_port(), 0);

  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("web", SessionConfig(),
                                   TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("web", TenantPoints(0, 96)));
  ASSERT_TRUE(client.Flush("web", &verdicts));
  ASSERT_EQ(verdicts.size(), 96u);

  // The scrape runs WHILE the server serves; retry until both reactors
  // have published (each does so once per loop turn — the idle one may
  // not have had a turn yet on a loaded machine) and the ingest count
  // has caught up.
  std::string text;
  std::uint64_t seen = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    text = FetchMetrics(server.server().metrics_port());
    seen = SumSeries(text, "spot_points_ingested");
    if (seen >= 96 &&
        text.find("spot_points_ingested{reactor=\"0\"}") !=
            std::string::npos &&
        text.find("spot_points_ingested{reactor=\"1\"}") !=
            std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(seen, 96u);
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("spot_points_ingested{reactor=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("spot_points_ingested{reactor=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("spot_pipeline_process_us_count"), std::string::npos);
  // The service's one section renders unlabeled.
  EXPECT_NE(text.find("\nspot_sessions 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nspot_checkpoints_written "), std::string::npos);

  server.StopAndJoin();
}

// ----------------------------------------------------- engine observability --

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One wire run of `points` through a fresh server at the given scale,
/// checkpointing at the end. Returns the verdicts; `ckpt_bytes` receives
/// the session's checkpoint file and `stats` its final detector stats.
/// Streams through StreamDeterministic, whose batch cuts never vary run
/// to run (RunDifferential covers randomized framing).
std::vector<SpotResult> ObservedRun(SpotServiceConfig scfg,
                                    SpotServerConfig ncfg, const char* tag,
                                    const std::vector<DataPoint>& points,
                                    std::string* ckpt_bytes,
                                    SpotStats* stats) {
  scfg.checkpoint_dir = MakeCheckpointDir(tag);
  TestServer server(scfg, ncfg);
  SpotClient client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()));
  EXPECT_TRUE(client.CreateSession("diff", SessionConfig(),
                                   TenantTraining(0)))
      << client.last_error();
  const std::vector<SpotResult> verdicts =
      StreamDeterministic(client, "diff", points, /*chunk=*/100);
  EXPECT_TRUE(client.Checkpoint("diff")) << client.last_error();
  SessionMetrics m;
  EXPECT_TRUE(server.service().GetMetrics("diff", &m));
  *stats = m.stats;
  *ckpt_bytes = ReadFileBytes(scfg.checkpoint_dir + "/diff.ckpt");
  server.StopAndJoin();
  return verdicts;
}

// The engine-observability differential (DESIGN.md Section 10): the same
// stream through a server with its flight recorder on and through one with
// tracing off; the journal and the quality sections are always on, and
// JournalTest.SinkChangesNeitherVerdictsNorCheckpointBytes and the
// SpotServiceTest differentials against bare detectors prove those perturb
// nothing. Verdict bytes, detector stats and the checkpoint file must
// match bit for bit at reactors {1,2} x shards {1,4}.
TEST(NetObservabilityTest, JournalAndTracePerturbNothing) {
  const std::vector<DataPoint> points = TenantPoints(0, 500);
  int combo = 0;
  for (const std::size_t reactors : {1, 2}) {
    for (const std::size_t shards : {1, 4}) {
      SpotServiceConfig on_scfg;  // journal + quality default on
      on_scfg.num_shards = shards;
      SpotServerConfig on_ncfg;
      on_ncfg.num_reactors = reactors;
      on_ncfg.batch_points = 48;
      on_ncfg.trace_capacity = 512;

      SpotServiceConfig off_scfg;
      off_scfg.num_shards = shards;
      SpotServerConfig off_ncfg;
      off_ncfg.num_reactors = reactors;
      off_ncfg.batch_points = 48;
      off_ncfg.trace_capacity = 0;

      const std::string tag_on = "obs_on_" + std::to_string(combo);
      const std::string tag_off = "obs_off_" + std::to_string(combo);
      ++combo;
      std::string ckpt_on, ckpt_off;
      SpotStats stats_on, stats_off;
      const std::vector<SpotResult> v_on =
          ObservedRun(on_scfg, on_ncfg, tag_on.c_str(), points, &ckpt_on,
                      &stats_on);
      const std::vector<SpotResult> v_off =
          ObservedRun(off_scfg, off_ncfg, tag_off.c_str(), points,
                      &ckpt_off, &stats_off);

      const std::string label = "reactors=" + std::to_string(reactors) +
                                " shards=" + std::to_string(shards);
      ASSERT_EQ(v_on.size(), points.size()) << label;
      EXPECT_EQ(VerdictBytes(v_on), VerdictBytes(v_off)) << label;
      EXPECT_FALSE(ckpt_on.empty()) << label;
      EXPECT_EQ(ckpt_on, ckpt_off) << label << ": checkpoint bytes diverge";
      EXPECT_EQ(stats_on.points_processed, stats_off.points_processed)
          << label;
      EXPECT_EQ(stats_on.outliers_detected, stats_off.outliers_detected)
          << label;
      EXPECT_EQ(stats_on.evolution_rounds, stats_off.evolution_rounds)
          << label;
      EXPECT_EQ(stats_on.os_growth_runs, stats_off.os_growth_runs) << label;
      EXPECT_EQ(stats_on.drifts_detected, stats_off.drifts_detected)
          << label;
    }
  }
}

TEST(NetObservabilityTest, TraceDumpOverTheWire) {
  SpotServiceConfig scfg;
  scfg.num_shards = 2;
  SpotServerConfig ncfg;
  ncfg.batch_points = 48;
  ncfg.trace_capacity = 1024;
  TestServer server(scfg, ncfg);

  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("tr", SessionConfig(), TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("tr", TenantPoints(0, 200)));
  ASSERT_TRUE(client.Flush("tr", &verdicts));
  ASSERT_EQ(verdicts.size(), 200u);

  std::string json;
  ASSERT_TRUE(client.TraceDump(&json)) << client.last_error();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard_probe\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"encode\""), std::string::npos);
  EXPECT_NE(json.find("\"session\":\"tr\""), std::string::npos);

  // Batch-id correlation: the process span of some chunk must share its
  // args.batch value with at least one other stage's span (shard probes
  // and the encode of the same chunk carry the same id).
  const std::size_t process = json.find("\"name\":\"process\"");
  ASSERT_NE(process, std::string::npos);
  const std::size_t batch_key = json.find("\"batch\":", process);
  ASSERT_NE(batch_key, std::string::npos);
  const std::size_t batch_end = json.find_first_of(",}", batch_key);
  const std::string batch_value =
      json.substr(batch_key, batch_end - batch_key);
  EXPECT_NE(batch_value, "\"batch\":0");
  std::size_t shared = 0;
  for (std::size_t pos = json.find(batch_value); pos != std::string::npos;
       pos = json.find(batch_value, pos + 1)) {
    ++shared;
  }
  EXPECT_GE(shared, 2u) << batch_value << " appears only once";
  server.StopAndJoin();
}

// One clock read per stage boundary (DESIGN.md Section 12.3): with tracing
// on and a ring that never wraps, every reactor stage feeds
// the same windows to all three planes — as many `pipeline_<stage>_us`
// samples as `perf_samples{stage=...}` as trace spans, and a histogram sum
// that is the perf clock.
TEST(NetObservabilityTest, StageHistogramSpansAndPerfClockAgree) {
  for (const std::size_t reactors : {1, 2}) {
    SpotServiceConfig scfg;
    scfg.num_shards = 2;
    SpotServerConfig ncfg;
    ncfg.num_reactors = reactors;
    ncfg.batch_points = 48;
    ncfg.trace_capacity = 1 << 16;
    TestServer server(scfg, ncfg);

    std::vector<std::unique_ptr<SpotClient>> clients;
    for (int t = 0; t < 2; ++t) {
      const std::string id = "tenant-" + std::to_string(t);
      clients.push_back(std::make_unique<SpotClient>());
      ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
      ASSERT_TRUE(clients.back()->CreateSession(id, SessionConfig(),
                                                TenantTraining(t)))
          << clients.back()->last_error();
      const std::vector<SpotResult> verdicts =
          StreamOverWire(*clients.back(), id, TenantPoints(t, 300),
                         3000 + static_cast<std::uint64_t>(t));
      ASSERT_EQ(verdicts.size(), 300u);
    }
    for (auto& client : clients) client->Disconnect();
    server.StopAndJoin();  // the final publish covers the shutdown drain

    const StatsResp stats = server.server().StatsSnapshot();
    ASSERT_EQ(stats.reactors.size(), reactors);
    std::map<obs::TraceStage, std::uint64_t> seen;
    for (std::size_t r = 0; r < reactors; ++r) {
      const obs::TraceRecorder* recorder = server.server().trace_recorder(r);
      ASSERT_NE(recorder, nullptr);
      ASSERT_EQ(recorder->dropped(), 0u);
      const std::vector<obs::TraceEvent> spans = recorder->Snapshot();
      const obs::MetricsSnapshot& snap = stats.reactors[r];
      for (const obs::TraceStage stage : obs::kReactorStages) {
        const std::string label = std::string(obs::TraceStageName(stage)) +
                                  " reactor " + std::to_string(r) + "/" +
                                  std::to_string(reactors);
        const std::string labels = "{" + obs::StagePerfLabels(stage) + "}";
        const obs::Histogram& hist =
            snap.histograms.at(obs::StageHistogramName(stage));
        const std::uint64_t perf_samples =
            snap.counters.at("perf_samples" + labels);
        const double perf_clock_us =
            static_cast<double>(snap.counters.at("perf_clock_ns" + labels)) /
            1e3;
        const auto span_count = static_cast<std::uint64_t>(std::count_if(
            spans.begin(), spans.end(),
            [stage](const obs::TraceEvent& e) { return e.stage == stage; }));
        EXPECT_EQ(hist.count(), perf_samples) << label;
        EXPECT_EQ(hist.count(), span_count) << label;
        EXPECT_NEAR(hist.sum(), perf_clock_us,
                    static_cast<double>(hist.count()))
            << label;
        seen[stage] += hist.count();
      }
    }
    for (const obs::TraceStage stage : obs::kReactorStages) {
      EXPECT_GT(seen[stage], 0u) << obs::TraceStageName(stage);
    }
  }
}

// Profiling has no switch (DESIGN.md Section 12.2): a server built from
// default configs at four shards feeds every stage's perf totals. One
// streamed session leaves CPU time on the reactor's process stage and on
// the last engine shard's probe loops, and the snapshot reads the process
// gauges into the service's section.
TEST(NetObservabilityTest, DefaultServerProfilesEveryStage) {
  SpotServiceConfig scfg;
  scfg.num_shards = 4;
  TestServer server(scfg, SpotServerConfig{});
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(
      client.CreateSession("profiled", SessionConfig(), TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("profiled", TenantPoints(0, 300)));
  ASSERT_TRUE(client.Flush("profiled", &verdicts)) << client.last_error();
  ASSERT_EQ(verdicts.size(), 300u);
  client.Disconnect();
  server.StopAndJoin();

  const StatsResp stats = server.server().StatsSnapshot();
  ASSERT_EQ(stats.reactors.size(), 1u);
  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_GT(counter(stats.reactors[0], "perf_cpu_ns{stage=\"process\"}"), 0u);
  EXPECT_GT(counter(stats.service,
                    "perf_cpu_ns{stage=\"probe\",engine_shard=\"3\"}"),
            0u);
  const auto rss = stats.service.gauges.find("process_rss_bytes");
  ASSERT_NE(rss, stats.service.gauges.end());
  EXPECT_GT(rss->second, 0.0);
}

TEST(NetObservabilityTest, TraceDumpRefusedWhenTracingOff) {
  SpotServerConfig ncfg;
  ncfg.trace_capacity = 0;
  TestServer server(SpotServiceConfig{}, ncfg);
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::string json;
  EXPECT_FALSE(client.TraceDump(&json));
  EXPECT_EQ(client.last_code(), ErrorCode::kTracingDisabled);
  EXPECT_NE(client.last_error().find("tracing"), std::string::npos)
      << client.last_error();
  // The refusal is a protocol kError, not a connection loss: the same
  // client still gets full service.
  ASSERT_TRUE(client.CreateSession("ok", SessionConfig(), TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("ok", TenantPoints(0, 16)));
  EXPECT_TRUE(client.Flush("ok", &verdicts));
  EXPECT_EQ(verdicts.size(), 16u);
}

std::string FetchPath(int port, const std::string& path) {
  const int fd = RawConnect(static_cast<std::uint16_t>(port));
  SendAll(fd, "GET " + path + " HTTP/1.0\r\n\r\n");
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// The TSan target of the observability tier: HTTP /metrics, /trace and
// /journal scrapers plus a kStats prober all hammering the server while
// two tenants stream — every surface reads live reactor / journal /
// recorder state, so this is where a locking mistake would surface. The
// verdicts must still be byte-identical to the quiet in-process
// reference.
TEST(NetObservabilityTest, ConcurrentScrapeSurfacesUnderLoad) {
  SpotServiceConfig scfg;
  scfg.num_shards = 2;
  SpotServerConfig ncfg;
  ncfg.num_reactors = 2;
  ncfg.batch_points = 48;
  ncfg.trace_capacity = 256;
  ncfg.metrics_port = 0;
  TestServer server(scfg, ncfg);
  ASSERT_GT(server.server().metrics_port(), 0);
  const int http_port = server.server().metrics_port();

  SpotService reference{SpotServiceConfig{}};
  std::vector<std::unique_ptr<SpotClient>> clients;
  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    clients.push_back(std::make_unique<SpotClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(clients.back()->CreateSession(id, SessionConfig(),
                                              TenantTraining(t)))
        << clients.back()->last_error();
    ASSERT_TRUE(
        reference.CreateSession(id, SessionConfig(), TenantTraining(t)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> http_hits{0};
  std::vector<std::thread> scrapers;
  for (const char* path : {"/metrics", "/trace", "/journal"}) {
    scrapers.emplace_back([http_port, path, &stop, &http_hits] {
      while (!stop.load()) {
        const std::string response = FetchPath(http_port, path);
        EXPECT_NE(response.find("200 OK"), std::string::npos) << path;
        ++http_hits;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  scrapers.emplace_back([&server, &stop] {
    SpotClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
    StatsResp resp;
    std::string trace_json;
    while (!stop.load()) {
      ASSERT_TRUE(probe.Stats(&resp)) << probe.last_error();
      ASSERT_TRUE(probe.TraceDump(&trace_json)) << probe.last_error();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < 2; ++t) {
    const std::string id = "tenant-" + std::to_string(t);
    const std::vector<DataPoint> points = TenantPoints(t, 500);
    const std::vector<SpotResult> wire_verdicts = StreamOverWire(
        *clients[static_cast<std::size_t>(t)], id, points,
        2000 + static_cast<std::uint64_t>(t));
    const IngestResult ref = reference.Ingest(id, points);
    ASSERT_TRUE(ref.ok);
    ASSERT_EQ(wire_verdicts.size(), points.size());
    EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref.verdicts))
        << "session " << id << " diverged under concurrent scraping";
  }
  stop.store(true);
  for (std::thread& t : scrapers) t.join();
  EXPECT_GT(http_hits.load(), 0);

  // The new HTTP surfaces deliver real content, not just 200s.
  const std::string trace = FetchPath(http_port, "/trace");
  EXPECT_NE(trace.find("application/json"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"process\""), std::string::npos);
  const std::string journal = FetchPath(http_port, "/journal");
  EXPECT_NE(journal.find("\"capacity\""), std::string::npos);
  EXPECT_NE(journal.find("\"events\""), std::string::npos);

  // The quality sections reached both wire surfaces: per-session labels
  // in the Prometheus text, labeled session sections in kStats.
  std::string metrics;
  StatsResp stats;
  SpotClient probe;
  ASSERT_TRUE(probe.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(ScrapeUntilCount(probe, 1000, &stats)) << probe.last_error();
  std::vector<std::string> session_labels;
  std::uint64_t session_points = 0;
  for (const auto& [label, section] : stats.sessions) {
    if (label.find(",subspace=") != std::string::npos) continue;
    session_labels.push_back(label);
    session_points += section.counters.at("session_points");
    EXPECT_GT(section.gauges.at("tracked_subspaces"), 0.0) << label;
  }
  EXPECT_EQ(session_labels,
            (std::vector<std::string>{"session=\"tenant-0\"",
                                      "session=\"tenant-1\""}));
  EXPECT_EQ(session_points, 1000u);
  for (int attempt = 0; attempt < 200; ++attempt) {
    metrics = FetchPath(http_port, "/metrics");
    if (metrics.find("spot_session_points{session=\"tenant-0\"}") !=
            std::string::npos &&
        metrics.find("spot_session_points{session=\"tenant-1\"}") !=
            std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(SumSeries(metrics, "spot_session_points"), 1000u);
  EXPECT_NE(metrics.find("spot_tracked_subspaces{session=\"tenant-0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("spot_subspace_alarms{session="), std::string::npos);
  EXPECT_NE(metrics.find("subspace=\"0x"), std::string::npos);
  EXPECT_NE(metrics.find("spot_rd_margin_x1000_bucket"), std::string::npos);

  server.StopAndJoin();
}

// ------------------------------------- feedback & query plane (wire v3) --

// The feedback-plane differential (DESIGN.md Section 11): a stream with
// interleaved supervised feedback rounds and top-k queries over the wire
// must stay byte-identical to an in-process service applying the same
// rounds at the same batch boundaries — every top-k answer matching
// TopKBytes for TopKBytes on the way. The wire side deliberately never
// flushes before a feedback round: the server's own batch-boundary
// barrier (ProcessPending before servicing kFeedback/kQueryTopK) is what
// must line the RNG position up with the reference.
TEST(NetFeedbackTest, FeedbackAndTopKOverWireBitIdentical) {
  for (const std::size_t reactors : {1, 2}) {
    SpotServiceConfig scfg;
    scfg.num_shards = 2;
    SpotServerConfig ncfg;
    ncfg.batch_points = 48;
    ncfg.num_reactors = reactors;
    TestServer server(scfg, ncfg);

    SpotService reference{SpotServiceConfig{}};
    ASSERT_TRUE(
        reference.CreateSession("fb", SessionConfig(), TenantTraining(0)));

    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(
        client.CreateSession("fb", SessionConfig(), TenantTraining(0)))
        << client.last_error();

    const std::vector<DataPoint> points = TenantPoints(0, 600);
    const std::size_t kBatch = 100;
    std::vector<SpotResult> wire_verdicts;
    std::vector<SpotResult> ref_verdicts;
    std::size_t applied = 0;
    for (std::size_t i = 0; i < points.size(); i += kBatch) {
      const std::vector<DataPoint> batch(
          points.begin() + static_cast<long>(i),
          points.begin() + static_cast<long>(i + kBatch));
      ASSERT_TRUE(client.Ingest("fb", batch)) << client.last_error();
      const IngestResult ref = reference.Ingest("fb", batch);
      ASSERT_TRUE(ref.ok);
      ref_verdicts.insert(ref_verdicts.end(), ref.verdicts.begin(),
                          ref.verdicts.end());

      // Top-k answers must agree even though the wire side has pending
      // unflushed points — the query's barrier forces them through.
      std::vector<TopKEntry> got;
      ASSERT_TRUE(client.TopK("fb", 6, &got)) << client.last_error();
      std::vector<TopKEntry> want;
      ASSERT_TRUE(reference.QueryTopK("fb", 6, &want));
      EXPECT_EQ(TopKBytes(got), TopKBytes(want)) << "batch at " << i;

      // Every other batch: a supervised round labeling the current worst
      // outliers by id plus one fresh example, mirrored on the reference.
      if ((i / kBatch) % 2 == 1) {
        std::vector<std::uint64_t> ids;
        for (const TopKEntry& e : got) ids.push_back(e.point_id);
        const RpcStatus fb =
            client.Feedback("fb", ids, {batch.front().values});
        std::string ref_error;
        const bool ref_ok = reference.ApplyFeedback(
            "fb", ids, {batch.front().values}, &ref_error);
        ASSERT_EQ(fb.ok, ref_ok)
            << "wire: " << fb.cause << " reference: " << ref_error;
        if (fb.ok) ++applied;
      }
    }
    ASSERT_TRUE(client.Flush("fb", &wire_verdicts)) << client.last_error();
    ASSERT_EQ(wire_verdicts.size(), points.size());
    EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref_verdicts))
        << "reactors=" << reactors;
    // The rounds must actually have taken: a differential between two
    // no-op paths would prove nothing about supervised SST growth.
    EXPECT_GT(applied, 0u);
    SessionMetrics m;
    ASSERT_TRUE(server.service().GetMetrics("fb", &m));
    EXPECT_EQ(m.stats.feedback_rounds, applied);
    server.StopAndJoin();
  }
}

// Feedback-driven SST growth must survive the checkpoint kill→restart
// path: rounds applied before the cut shape the verdicts after it, and
// the top-k retention window (the id source for feedback) must come back
// byte-identical too.
TEST(NetFeedbackTest, FeedbackSurvivesCheckpointRestart) {
  const std::string dir = MakeCheckpointDir("fbresume");
  const std::vector<DataPoint> points = TenantPoints(0, 600);
  const std::size_t kCut = 300;

  // Uninterrupted reference with one feedback round before the cut and
  // one after, each at a batch boundary.
  SpotService reference{SpotServiceConfig{}};
  ASSERT_TRUE(
      reference.CreateSession("s", SessionConfig(), TenantTraining(0)));
  std::vector<SpotResult> ref_verdicts;
  const auto ref_ingest = [&](std::size_t from, std::size_t to) {
    const IngestResult r = reference.Ingest(
        "s", std::vector<DataPoint>(points.begin() + static_cast<long>(from),
                                    points.begin() + static_cast<long>(to)));
    ASSERT_TRUE(r.ok);
    ref_verdicts.insert(ref_verdicts.end(), r.verdicts.begin(),
                        r.verdicts.end());
  };
  const auto ref_feedback = [&](const std::vector<double>& example) {
    std::vector<TopKEntry> top;
    ASSERT_TRUE(reference.QueryTopK("s", 4, &top));
    std::vector<std::uint64_t> ids;
    for (const TopKEntry& e : top) ids.push_back(e.point_id);
    ASSERT_TRUE(reference.ApplyFeedback("s", ids, {example}));
  };
  ref_ingest(0, kCut);
  ref_feedback(points[0].values);
  ref_ingest(kCut, 450);
  ref_feedback(points[kCut].values);
  ref_ingest(450, points.size());

  std::vector<SpotResult> wire_verdicts;
  std::string topk_before_kill;
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    TestServer server(scfg, SpotServerConfig{});
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(
        client.CreateSession("s", SessionConfig(), TenantTraining(0)));
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin(),
                                    points.begin() + kCut)));
    std::vector<TopKEntry> top;
    ASSERT_TRUE(client.TopK("s", 4, &top)) << client.last_error();
    std::vector<std::uint64_t> ids;
    for (const TopKEntry& e : top) ids.push_back(e.point_id);
    ASSERT_TRUE(client.Feedback("s", ids, {points[0].values}))
        << client.last_error();
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
    topk_before_kill = TopKBytes(top);
    client.Disconnect();
    server.StopAndJoin();  // graceful SIGTERM path: drain + CheckpointAll
  }
  {
    SpotServiceConfig scfg;
    scfg.checkpoint_dir = dir;
    scfg.num_shards = 4;  // the restart may even change the shard count
    TestServer server(scfg, SpotServerConfig{});
    SpotClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.ResumeSession("s")) << client.last_error();
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin() + kCut,
                                    points.begin() + 450)));
    std::vector<TopKEntry> top;
    ASSERT_TRUE(client.TopK("s", 4, &top)) << client.last_error();
    std::vector<std::uint64_t> ids;
    for (const TopKEntry& e : top) ids.push_back(e.point_id);
    ASSERT_TRUE(client.Feedback("s", ids, {points[kCut].values}))
        << client.last_error();
    ASSERT_TRUE(client.Ingest(
        "s", std::vector<DataPoint>(points.begin() + 450, points.end())));
    ASSERT_TRUE(client.Flush("s", &wire_verdicts));
    server.StopAndJoin();
  }
  ASSERT_EQ(wire_verdicts.size(), points.size());
  EXPECT_EQ(VerdictBytes(wire_verdicts), VerdictBytes(ref_verdicts));
  EXPECT_FALSE(topk_before_kill.empty());
}

// A session another connection owns refuses feedback and queries with
// kNotAttached — by code, not by message prose.
TEST(NetFeedbackTest, FeedbackAndTopKRequireAttachment) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});
  SpotClient owner;
  ASSERT_TRUE(owner.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(
      owner.CreateSession("own", SessionConfig(), TenantTraining(0)));

  SpotClient intruder;
  ASSERT_TRUE(intruder.Connect("127.0.0.1", server.port()));
  std::vector<TopKEntry> top;
  const RpcStatus q = intruder.TopK("own", 4, &top);
  EXPECT_FALSE(q.ok);
  EXPECT_EQ(q.code, ErrorCode::kNotAttached);
  const RpcStatus fb = intruder.Feedback("own", {}, {TenantTraining(0)[0]});
  EXPECT_FALSE(fb.ok);
  EXPECT_EQ(fb.code, ErrorCode::kNotAttached);

  // A refused round on the detector side carries kFeedbackFailed: labels
  // naming an id the top-k window does not retain.
  const RpcStatus bad =
      owner.Feedback("own", {std::uint64_t{999999}}, {});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kFeedbackFailed);
  EXPECT_NE(bad.cause.find("not retained"), std::string::npos) << bad.cause;

  // Client-side validation fails fast without touching the wire.
  const std::uint64_t sent = owner.bytes_sent();
  const RpcStatus empty = owner.Feedback("own", {}, {});
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(owner.bytes_sent(), sent);

  // None of the refusals cost anyone the connection.
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(owner.Ingest("own", TenantPoints(0, 16)));
  EXPECT_TRUE(owner.Flush("own", &verdicts));
  EXPECT_EQ(verdicts.size(), 16u);
}

// ------------------------------------------------------- one dialect --

// The request filter has two tiers: a known request type is served, any
// other type is refused with kUnsupportedRequest and the connection
// closes — including the unassigned values of the request range.
TEST(NetVersioningTest, UnknownRequestTypeRefusedAndCloses) {
  TestServer server(SpotServiceConfig{}, SpotServerConfig{});

  const int raw = RawConnect(server.port());
  SendAll(raw, EncodeFrame(static_cast<MsgType>(11), ""));
  std::vector<Frame> frames;
  EXPECT_TRUE(WaitForClose(raw, &frames));
  ::close(raw);
  EXPECT_EQ(FirstErrorCode(frames), ErrorCode::kUnsupportedRequest);

  // A well-behaved client on a fresh connection still gets full service.
  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.CreateSession("ok", SessionConfig(), TenantTraining(0)))
      << client.last_error();
  std::vector<SpotResult> verdicts;
  ASSERT_TRUE(client.Ingest("ok", TenantPoints(0, 32)));
  ASSERT_TRUE(client.Flush("ok", &verdicts)) << client.last_error();
  EXPECT_EQ(verdicts.size(), 32u);

  server.StopAndJoin();
  EXPECT_EQ(server.Counter("refusals{code=\"unsupported_request\"}"), 1u);
}

// Every server refusal carries its machine-readable code (the Section 11
// error-code table) — the client branches on codes, never on prose.
TEST(NetVersioningTest, RefusalsCarryMachineReadableCodes) {
  const std::string dir = MakeCheckpointDir("codes");
  SpotServiceConfig scfg;
  scfg.checkpoint_dir = dir;
  TestServer server(scfg, SpotServerConfig{});

  SpotClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(client.ResumeSession("nope"));
  EXPECT_EQ(client.last_code(), ErrorCode::kSessionUnknown);

  ASSERT_TRUE(
      client.CreateSession("dup", SessionConfig(), TenantTraining(0)));
  const RpcStatus dup =
      client.CreateSession("dup", SessionConfig(), TenantTraining(0));
  EXPECT_FALSE(dup.ok);
  EXPECT_EQ(dup.code, ErrorCode::kSessionExists);

  SpotClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()));
  EXPECT_FALSE(second.ResumeSession("dup"));
  EXPECT_EQ(second.last_code(), ErrorCode::kAttachedElsewhere);

  // Every refusal is counted by its code: one each for the three above,
  // and no other refusals family member.
  StatsResp stats;
  ASSERT_TRUE(client.Stats(&stats)) << client.last_error();
  std::map<std::string, std::uint64_t> refusals;
  for (const auto& [name, value] : stats.Merged().counters) {
    if (name.rfind("refusals{", 0) == 0) refusals[name] = value;
  }
  const std::map<std::string, std::uint64_t> expected = {
      {"refusals{code=\"attached_elsewhere\"}", 1},
      {"refusals{code=\"session_exists\"}", 1},
      {"refusals{code=\"session_unknown\"}", 1},
  };
  EXPECT_EQ(refusals, expected);
}

// ------------------------------------------------------ live mutator --

/// A raw client connection that reads reply frames under a deadline.
class RawClient {
 public:
  enum class End { kReply, kClosed, kTimeout };

  explicit RawClient(std::uint16_t port) : fd_(RawConnect(port)) {
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // No Nagle: a split frame's second write must not wait for the ack of
    // its first.
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void Send(const std::string& bytes) { SendAll(fd_, bytes); }

  /// Appends reply frames to `frames` up to and including the first of
  /// type `until` (kReply), or until the server closes (kClosed); kTimeout
  /// when neither happens within 5 s or the reply bytes are not frames.
  End ReadUntil(MsgType until, std::vector<Frame>* frames) {
    char buf[65536];
    while (true) {
      Frame frame;
      FrameDecoder::Status status;
      while ((status = decoder_.Next(&frame)) ==
             FrameDecoder::Status::kFrame) {
        frames->push_back(frame);
        if (frame.type == until) return End::kReply;
      }
      if (status == FrameDecoder::Status::kCorrupt) return End::kTimeout;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return End::kClosed;
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == ECONNRESET ? End::kClosed : End::kTimeout;
      }
      decoder_.Append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  FrameDecoder decoder_;
};

/// About `keep` of `p`'s fixed-seed mutations (tests/mutations.h), evenly
/// spaced over the mutator's order so every kind of mutation is sampled.
std::vector<std::string> SampledMutations(const std::string& p,
                                          const std::string& other,
                                          std::uint64_t seed,
                                          std::size_t keep) {
  Rng rng(seed);
  std::vector<std::string> all;
  ForEachMutation(
      p, other, &rng, [&all](const std::string& m) { all.push_back(m); },
      /*stride=*/1, /*rounds=*/50);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < keep && i < all.size(); ++i) {
    out.push_back(all[i * all.size() / keep]);
  }
  return out;
}

/// Pads `bytes` with zeros until a FrameDecoder reading them ends on a
/// frame boundary or on corruption, so the server can decide the bytes
/// without waiting for more. True when the decoder finds corruption — the
/// server must then close the connection and count a corrupt frame.
bool PadToDecision(std::string* bytes, std::size_t max_payload) {
  while (true) {
    FrameDecoder decoder(max_payload);
    decoder.Append(bytes->data(), bytes->size());
    Frame frame;
    FrameDecoder::Status status;
    std::size_t consumed = 0;
    while ((status = decoder.Next(&frame)) == FrameDecoder::Status::kFrame) {
      consumed += kFrameHeaderBytes + frame.payload.size();
    }
    if (status == FrameDecoder::Status::kCorrupt) return true;
    const std::size_t rest = bytes->size() - consumed;
    if (rest == 0) return false;
    std::size_t need = kFrameHeaderBytes - std::min(rest, kFrameHeaderBytes);
    if (need == 0) {
      std::uint32_t len = 0;
      std::memcpy(&len, bytes->data() + consumed + 8, 4);  // payload length
      need = kFrameHeaderBytes + len - rest;
    }
    bytes->append(need, '\0');
  }
}

// A live server under the mutator: one reactor serves a well-behaved
// connection A streaming its session while a victim connection B sends
// (1) one small kIngest + kFlush pair split in two writes at every byte
// boundary, (2) fixed-seed payload mutations of
// kIngest, kFlush and kFeedback resealed into valid frames, so the
// decoders and the service see them, and (3) mutations of whole raw
// frames. After every mutation B sends a kFlush and a kStats sentinel:
// every outcome must be served, refused with a named kError that
// `refusals{code=...}` counts, or a close that `connections_closed{cause=...}`
// counts under `corrupt_frame` whenever the bytes no longer frame, and
// under `refused` after a kError otherwise.
// The reactor's counters are checked against the tallies at every
// sentinel. A's verdicts must equal an in-process reference, B's session
// must end unattached and resumable, and the server must stay up.
TEST(NetRobustnessTest, LiveServerUnderTheMutator) {
  SpotServerConfig ncfg;
  ncfg.num_reactors = 1;
  ncfg.max_payload_bytes = 1 << 14;  // bounds PadToDecision's zeros
  TestServer server(SpotServiceConfig{}, ncfg);
  SpotService reference{SpotServiceConfig{}};
  const std::string kVictim = "victim";

  // B creates its session over a raw connection.
  auto b = std::make_unique<RawClient>(server.port());
  {
    CreateSessionReq create{kVictim, SessionConfig(), TenantTraining(1)};
    b->Send(EncodeFrame(MsgType::kCreateSession, EncodeCreateSession(create)));
    std::vector<Frame> frames;
    ASSERT_EQ(b->ReadUntil(MsgType::kOk, &frames), RawClient::End::kReply);
    ASSERT_EQ(frames.size(), 1u);
    ASSERT_TRUE(reference.CreateSession(kVictim, SessionConfig(),
                                        TenantTraining(1)));
  }

  // A streams its own session through the same reactor until B is done.
  SpotClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(a.CreateSession("steady", SessionConfig(), TenantTraining(0)))
      << a.last_error();
  const std::vector<DataPoint> a_points = TenantPoints(0, 6000);
  std::atomic<bool> b_done{false};
  std::size_t a_sent = 0;
  std::vector<SpotResult> a_verdicts;
  std::thread a_thread([&] {
    do {
      const std::size_t n = std::min<std::size_t>(200, a_points.size() - a_sent);
      const std::vector<DataPoint> part(
          a_points.begin() + static_cast<long>(a_sent),
          a_points.begin() + static_cast<long>(a_sent + n));
      for (SpotResult& v : StreamDeterministic(a, "steady", part, 50)) {
        a_verdicts.push_back(std::move(v));
      }
      a_sent += n;
    } while (a_sent < a_points.size() && !b_done.load());
  });
  // Stops and joins A on every exit, a failed ASSERT's early return too.
  struct JoinA {
    std::atomic<bool>* done;
    std::thread* thread;
    ~JoinA() {
      done->store(true);
      if (thread->joinable()) thread->join();
    }
  } join_a{&b_done, &a_thread};

  const std::string sentinel =
      EncodeFrame(MsgType::kFlush, EncodeFlush({kVictim})) +
      EncodeFrame(MsgType::kStats, "");
  std::map<std::string, std::uint64_t> base;  // reactor counters before B
  std::map<std::string, std::uint64_t> want;  // B's tallies since then
  const auto check_counters = [&](const Frame& stats_frame,
                                  const std::string& what) {
    StatsResp stats;
    ASSERT_TRUE(DecodeStats(stats_frame.payload, &stats)) << what;
    std::map<std::string, std::uint64_t> delta;
    for (const auto& [name, value] : stats.reactors.at(0).counters) {
      if (name.rfind("connections_closed{", 0) == 0 ||
          name.rfind("refusals{", 0) == 0) {
        if (value != base[name]) delta[name] = value - base[name];
      }
    }
    std::map<std::string, std::uint64_t> nonzero;
    for (const auto& [name, value] : want) {
      if (value != 0) nonzero[name] = value;
    }
    EXPECT_EQ(delta, nonzero) << what;
  };
  {
    b->Send(EncodeFrame(MsgType::kStats, ""));
    std::vector<Frame> frames;
    ASSERT_EQ(b->ReadUntil(MsgType::kStatsResp, &frames),
              RawClient::End::kReply);
    StatsResp stats;
    ASSERT_TRUE(DecodeStats(frames.back().payload, &stats));
    for (const auto& [name, value] : stats.reactors.at(0).counters) {
      base[name] = value;
    }
  }
  const auto reconnect_b = [&](const std::string& what) {
    b = std::make_unique<RawClient>(server.port());
    b->Send(EncodeFrame(MsgType::kResumeSession,
                        EncodeResumeSession({kVictim})));
    std::vector<Frame> frames;
    ASSERT_EQ(b->ReadUntil(MsgType::kOk, &frames), RawClient::End::kReply)
        << what;
    // A close must detach: a refused resume means the session stayed
    // attached to a dead connection.
    ASSERT_EQ(frames.size(), 1u) << what;
  };
  // Sends `bytes` (ending in the sentinel unless corrupt) and tallies the
  // outcome.
  const auto run_one = [&](const std::string& bytes, bool corrupt,
                           const std::string& what) {
    b->Send(bytes);
    std::vector<Frame> frames;
    const RawClient::End end = b->ReadUntil(MsgType::kStatsResp, &frames);
    ASSERT_NE(end, RawClient::End::kTimeout) << what;
    for (const Frame& frame : frames) {
      if (frame.type != MsgType::kError) continue;
      ErrorResp err;
      ASSERT_TRUE(DecodeError(frame.payload, &err)) << what;
      const std::string code = ErrorCodeName(err.code);
      EXPECT_NE(code, "unknown") << what;
      ++want["refusals{code=\"" + code + "\"}"];
    }
    if (corrupt) {
      EXPECT_EQ(end, RawClient::End::kClosed) << what;
    }
    if (end == RawClient::End::kClosed) {
      ++want[corrupt ? "connections_closed{cause=\"corrupt_frame\"}"
                     : "connections_closed{cause=\"refused\"}"];
      reconnect_b(what);
    } else {
      check_counters(frames.back(), what);
    }
  };

  // (1) Split frames: each flush answers what the unsplit pair would.
  IngestReq small{kVictim, TenantPoints(1, 2)};
  const std::string pair =
      EncodeFrame(MsgType::kIngest, EncodeIngest(small)) +
      EncodeFrame(MsgType::kFlush, EncodeFlush({kVictim}));
  ASSERT_LE(pair.size(), 512u);
  for (std::size_t cut = 1; cut < pair.size(); ++cut) {
    b->Send(pair.substr(0, cut));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    b->Send(pair.substr(cut));
    std::vector<Frame> frames;
    ASSERT_EQ(b->ReadUntil(MsgType::kOk, &frames), RawClient::End::kReply)
        << "cut " << cut;
    std::vector<SpotResult> got;
    for (const Frame& frame : frames) {
      VerdictsResp resp;
      if (frame.type != MsgType::kVerdicts) continue;
      ASSERT_TRUE(DecodeVerdicts(frame.payload, &resp));
      got.insert(got.end(), resp.verdicts.begin(), resp.verdicts.end());
    }
    const IngestResult expected = reference.Ingest(kVictim, small.points);
    ASSERT_TRUE(expected.ok);
    EXPECT_EQ(VerdictBytes(got), VerdictBytes(expected.verdicts))
        << "cut " << cut;
  }

  // (2) Resealed payload mutations.
  IngestReq ingest{kVictim, TenantPoints(1, 3)};
  IngestReq other_ingest{kVictim, TenantPoints(2, 2)};
  FeedbackReq feedback{kVictim, {}, {TenantPoints(1, 1)[0].values}};
  FeedbackReq other_feedback{kVictim, {3, 7}, {}};
  for (const DataPoint& p : TenantPoints(3, 2)) {
    other_feedback.examples.push_back(p.values);
  }
  struct Plan {
    MsgType type;
    std::string payload;
    std::string other;
    std::size_t keep;
  };
  const Plan plans[] = {
      {MsgType::kIngest, EncodeIngest(ingest), EncodeIngest(other_ingest),
       120},
      {MsgType::kFlush, EncodeFlush({kVictim}), EncodeFlush({""}), 60},
      {MsgType::kFeedback, EncodeFeedback(feedback),
       EncodeFeedback(other_feedback), 40},
  };
  std::uint64_t seed = 11;
  for (const Plan& plan : plans) {
    std::size_t i = 0;
    for (const std::string& m :
         SampledMutations(plan.payload, plan.other, seed++, plan.keep)) {
      run_one(EncodeFrame(plan.type, m) + sentinel, /*corrupt=*/false,
              "resealed type " +
                  std::to_string(static_cast<int>(plan.type)) +
                  " mutation " + std::to_string(i++));
    }
  }

  // (3) Raw frame mutations: whatever no longer frames closes and counts.
  std::size_t raw_corrupt = 0;
  std::size_t i = 0;
  for (std::string m : SampledMutations(
           EncodeFrame(MsgType::kIngest, EncodeIngest(ingest)),
           EncodeFrame(MsgType::kFeedback, EncodeFeedback(feedback)), seed,
           120)) {
    m += sentinel;
    const bool corrupt = PadToDecision(&m, ncfg.max_payload_bytes);
    raw_corrupt += corrupt ? 1 : 0;
    run_one(m, corrupt, "raw mutation " + std::to_string(i++));
  }
  EXPECT_GT(raw_corrupt, 60u);

  // B's last connection goes down on garbage; its session resumes and
  // serves on a fresh one.
  run_one(std::string(64, 'Z'), /*corrupt=*/true, "garbage");
  {
    b->Send(EncodeFrame(MsgType::kIngest, EncodeIngest(small)) + sentinel);
    std::vector<Frame> frames;
    ASSERT_EQ(b->ReadUntil(MsgType::kStatsResp, &frames),
              RawClient::End::kReply);
    EXPECT_EQ(std::count_if(frames.begin(), frames.end(),
                            [](const Frame& f) {
                              return f.type == MsgType::kVerdicts;
                            }),
              1);
    check_counters(frames.back(), "after resume");
  }

  b_done.store(true);
  a_thread.join();
  ASSERT_TRUE(reference.CreateSession("steady", SessionConfig(),
                                      TenantTraining(0)));
  const IngestResult a_reference = reference.Ingest(
      "steady", std::vector<DataPoint>(
                    a_points.begin(),
                    a_points.begin() + static_cast<long>(a_sent)));
  ASSERT_TRUE(a_reference.ok);
  ASSERT_EQ(a_verdicts.size(), a_sent);
  EXPECT_EQ(VerdictBytes(a_verdicts), VerdictBytes(a_reference.verdicts));

  // The server is still up: a new client gets full service.
  SpotClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()));
  ASSERT_TRUE(fresh.CreateSession("late", SessionConfig(), TenantTraining(2)))
      << fresh.last_error();
  std::vector<SpotResult> late;
  ASSERT_TRUE(fresh.Ingest("late", TenantPoints(2, 16)));
  ASSERT_TRUE(fresh.Flush("late", &late));
  EXPECT_EQ(late.size(), 16u);
}

}  // namespace
}  // namespace net
}  // namespace spot
