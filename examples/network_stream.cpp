// Serving SPOT over the network (DESIGN.md Section 7): hosts a
// SpotService behind the binary wire protocol on an ephemeral loopback
// port, then streams a synthetic sensor feed through the client library —
// pipelined ingest frames, server-side coalescing into engine-sized
// batches, verdict frames back — and proves the round trip changed
// nothing: every verdict (including the outlying-subspace findings) is
// compared against an in-process detector fed the same points.
//
//   ./build/examples/network_stream [--threads N] [--points N] [--batch N]
//
// The final line "NETWORK VERDICTS MATCH: OK" is the assertion; the exit
// code is non-zero on any mismatch.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "examples/example_flags.h"
#include "net/protocol.h"
#include "net/spot_client.h"
#include "net/spot_server.h"
#include "service/spot_service.h"
#include "stream/data_point.h"
#include "stream/synthetic.h"

namespace {

spot::SpotConfig SensorConfig() {
  spot::SpotConfig config;
  config.partition_margin = 1.0;
  config.fs_max_dimension = 2;
  config.unsupervised.moga.max_dimension = 2;
  config.supervised.moga.max_dimension = 2;
  config.evolution.max_dimension = 2;
  config.seed = 1;
  return config;
}

std::vector<spot::DataPoint> SensorStream(std::size_t n) {
  spot::stream::SyntheticConfig scfg;
  scfg.dimension = 8;
  scfg.outlier_probability = 0.02;
  scfg.concept_seed = 11;
  scfg.seed = 12;
  spot::stream::GaussianStream gen(scfg);
  std::vector<spot::DataPoint> out;
  for (const spot::LabeledPoint& p : spot::Take(gen, n)) {
    out.push_back(p.point);
  }
  return out;
}

std::vector<std::vector<double>> SensorTraining() {
  spot::stream::SyntheticConfig scfg;
  scfg.dimension = 8;
  scfg.outlier_probability = 0.0;
  scfg.concept_seed = 11;
  scfg.seed = 13;
  spot::stream::GaussianStream gen(scfg);
  return spot::ValuesOf(spot::Take(gen, 500));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  const std::size_t num_threads =
      spot::examples::ThreadsFlag(argc, argv, &positional);
  const std::size_t num_points =
      spot::examples::TakeSizeFlag(&positional, "points", 2000);
  const std::size_t batch =
      spot::examples::TakeSizeFlag(&positional, "batch", 64);

  // The serving side: a single-reactor server owning its one service.
  spot::SpotServiceConfig scfg;
  scfg.num_shards = num_threads;
  spot::net::SpotServerConfig ncfg;
  ncfg.port = 0;  // ephemeral
  spot::net::SpotServer server(scfg, ncfg);
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start server\n");
    return 1;
  }
  // Stop + join on every exit path: returning with the loop thread still
  // joinable would std::terminate and bury the error message.
  struct LoopGuard {
    spot::net::SpotServer& server;
    std::thread thread;
    ~LoopGuard() {
      server.Stop();
      if (thread.joinable()) thread.join();
    }
  } loop{server, std::thread([&server] { server.Run(); })};
  std::printf("server on 127.0.0.1:%u (shards=%zu)\n", server.port(),
              num_threads);

  // The client side: create a session, pipeline the stream, flush.
  spot::net::SpotClient client;
  if (!client.Connect("127.0.0.1", server.port())) {
    std::fprintf(stderr, "connect: %s\n", client.last_error().c_str());
    return 1;
  }
  const auto training = SensorTraining();
  const auto stream = SensorStream(num_points);
  if (!client.CreateSession("sensors", SensorConfig(), training)) {
    std::fprintf(stderr, "create: %s\n", client.last_error().c_str());
    return 1;
  }

  // In-process reference detector: same config, same training.
  spot::SpotDetector reference(SensorConfig());
  if (!reference.Learn(training)) {
    std::fprintf(stderr, "reference learning failed\n");
    return 1;
  }

  std::vector<spot::SpotResult> wire_verdicts;
  std::vector<spot::SpotResult> local_verdicts;
  std::size_t alarms = 0;
  bool fed = false;
  for (std::size_t i = 0; i < stream.size(); i += batch) {
    const std::size_t n = std::min(batch, stream.size() - i);
    const std::vector<spot::DataPoint> chunk(
        stream.begin() + static_cast<long>(i),
        stream.begin() + static_cast<long>(i + n));
    if (!client.Ingest("sensors", chunk)) {
      std::fprintf(stderr, "ingest: %s\n", client.last_error().c_str());
      return 1;
    }
    const auto expected = reference.ProcessBatch(chunk);
    local_verdicts.insert(local_verdicts.end(), expected.begin(),
                          expected.end());

    // Halfway through: the wire-v3 query/feedback plane (DESIGN.md
    // Section 11). Ask the server for the worst outliers of the stream so
    // far — the query's batch-boundary barrier flushes the pipelined
    // ingest first — and label them back as a supervised feedback round.
    // Both calls return the uniform RpcStatus shape: branch on the
    // machine-readable code, never on message text. The round is mirrored
    // on the reference detector so the final comparison still holds.
    if (!fed && i + n >= stream.size() / 2) {
      fed = true;
      std::vector<spot::TopKEntry> top;
      const spot::net::RpcStatus query = client.TopK("sensors", 5, &top);
      if (!query.ok) {
        std::fprintf(stderr, "top-k [%s]: %s\n",
                     spot::net::ErrorCodeName(query.code),
                     query.cause.c_str());
        return 1;
      }
      std::printf("top-%zu outliers after %zu points:\n", top.size(), i + n);
      for (const spot::TopKEntry& e : top) {
        std::printf("  point %llu: decayed score %.4f, %zu outlying "
                    "subspace(s)\n",
                    static_cast<unsigned long long>(e.point_id),
                    e.decayed_score, e.findings.size());
      }
      std::vector<std::uint64_t> ids;
      for (const spot::TopKEntry& e : top) ids.push_back(e.point_id);
      if (!ids.empty()) {
        const spot::net::RpcStatus fb = client.Feedback("sensors", ids, {});
        std::string ref_error;
        const bool ref_ok = reference.ApplyFeedback(ids, {}, &ref_error);
        if (fb.ok != ref_ok) {
          std::fprintf(stderr, "feedback diverged: wire %s, local %s\n",
                       fb.ok ? "ok" : fb.cause.c_str(),
                       ref_ok ? "ok" : ref_error.c_str());
          return 1;
        }
        std::printf("feedback round: %s\n",
                    fb.ok ? "applied (supervised SST growth)"
                          : fb.cause.c_str());
      }
    }
  }
  if (!client.Flush("sensors", &wire_verdicts)) {
    std::fprintf(stderr, "flush: %s\n", client.last_error().c_str());
    return 1;
  }
  for (const spot::SpotResult& v : wire_verdicts) {
    if (v.is_outlier) ++alarms;
  }

  // Transport counters from a kStats scrape of the server's reactors.
  spot::net::StatsResp snap;
  if (!client.Stats(&snap)) {
    std::fprintf(stderr, "stats: %s\n", client.last_error().c_str());
    return 1;
  }
  const spot::obs::MetricsSnapshot merged = snap.Merged();
  const auto counter = [&merged](const char* name) {
    const auto it = merged.counters.find(name);
    return static_cast<unsigned long long>(
        it == merged.counters.end() ? 0 : it->second);
  };
  std::printf("server: %llu points, %zu alarms | %llu frames, %llu/%llu "
              "bytes in/out, %llu stalls\n",
              counter("points_ingested"), alarms, counter("frames_received"),
              counter("bytes_in"), counter("bytes_out"),
              counter("backpressure_stalls"));

  client.CloseSession("sensors", /*persist=*/false);
  client.Disconnect();

  const bool match =
      wire_verdicts.size() == local_verdicts.size() &&
      spot::net::VerdictBytes(wire_verdicts) ==
          spot::net::VerdictBytes(local_verdicts);
  std::printf("\nNETWORK VERDICTS MATCH: %s\n", match ? "OK" : "FAIL");
  return match ? 0 : 1;
}
