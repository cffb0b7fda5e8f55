// Multi-connection load generator for the SPOT network ingest layer
// (DESIGN.md Section 7). Replays synthetic or CSV streams over the wire
// protocol at a target rate and reports end-to-end points/sec plus flush
// round-trip latency percentiles — the serving-boundary counterpart of
// the in-process experiment binaries, emitting the same spot-bench-v1
// JSON (`--json out.json`) so tools/bench_regression.py can track an
// end-to-end trajectory across PRs.
//
//   spot_loadgen --port 7077 [--host H] [--connections C] [--points N]
//                [--batch B] [--flush-every F] [--rate R] [--dims D]
//                [--training T] [--shards S] [--reactors R]
//                [--mix alarm-heavy|feedback-heavy|query-heavy]
//                [--session-prefix lg] [--csv FILE] [--skip K] [--resume]
//                [--keep-open] [--verify] [--spawn-server]
//                [--checkpoint-dir DIR] [--json OUT] [--trace-out FILE]
//
// The post-run scrape also renders the server's per-stage CPU profiling
// plane (DESIGN.md Section 12, always on) as a stage x counter
// attribution table (units, wall ns/unit, CPU ns/unit, CPU/wall). The
// process stage's CPU ns per point also lands in the JSON document's
// `counters` block as `cpu_ns/pt` for the bench-regression trajectory.
//
// --mix selects the request blend on top of the ingest stream (wire v3,
// DESIGN.md Section 11):
//   alarm-heavy    pure ingest + flush (the default; the pre-v3 workload)
//   feedback-heavy a supervised kFeedback round every 4th batch (labeling
//                  the current top-k outliers by id plus one fresh
//                  example), plus an occasional kQueryTopK
//   query-heavy    a kQueryTopK every 2nd batch, with an occasional
//                  feedback round
// The feedback/query schedule is a pure function of the absolute batch
// index, so a --skip/--resume replay re-applies exactly the rounds the
// killed run already ran (keep --skip a multiple of --batch). Under
// --verify every top-k answer is compared byte-for-byte (TopKBytes)
// against the in-process reference and every feedback round must agree
// with the reference's ApplyFeedback outcome — on top of the usual
// bit-identical verdict-stream check.
//
// --trace-out FILE pulls the server's flight recorder after the run (a
// kTraceDump round trip on a dedicated connection) and writes the
// Chrome-trace JSON to FILE — load it in Perfetto or chrome://tracing.
// Skipped gracefully against servers without tracing.
//
// Each of the C connections owns one session ("<prefix>-<c>") and streams
// N points in ingest batches of B, flushing every F batches (the flush is
// the latency probe: one round trip covering F*B points). --rate R caps
// each connection at R points/sec (0 = as fast as possible). After the
// run a kStats scrape on a dedicated connection prints the server's own
// pipeline-stage latency table (skipped gracefully against servers that
// predate the stats protocol).
//
// --verify runs an in-process reference detector per session on the same
// stream and requires the canonical verdict encodings to match byte for
// byte ("BIT-IDENTICAL VERDICTS: OK", exit 0). With --skip K the stream's
// first K points are assumed already served in an earlier run (the
// SIGTERM kill/restart flow): the wire sends points [K, K+N) against a
// session resumed with --resume, while the reference replays [0, K) to
// warm up and then compares [K, K+N). Flags defining the stream and the
// config (--dims, --training, --shards, --csv) must match the earlier run.
//
// --spawn-server hosts the multi-reactor server in-process on an
// ephemeral loopback port (real sockets, zero orchestration) with
// --reactors event loops — how the bench regression job measures
// end-to-end throughput. Against an external server, pass the server's
// --reactors value so the report records it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/log.h"
#include "common/timer.h"
#include "core/detector.h"
#include "eval/presets.h"
#include "examples/example_flags.h"
#include "net/protocol.h"
#include "net/spot_client.h"
#include "net/spot_server.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "service/spot_service.h"
#include "stream/csv.h"
#include "stream/synthetic.h"

namespace {

struct Flags {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7077;
  std::size_t connections = 2;
  std::size_t points = 2000;
  std::size_t batch = 100;
  std::size_t flush_every = 1;
  std::size_t rate = 0;  // points/sec per connection; 0 = unthrottled
  int dims = 8;
  std::size_t training = 400;
  std::size_t shards = 1;
  std::size_t reactors = 1;
  std::string session_prefix = "lg";
  std::string csv;
  std::size_t skip = 0;
  bool resume = false;
  bool keep_open = false;
  bool verify = false;
  bool spawn_server = false;
  std::string checkpoint_dir;
  std::string trace_out;
  std::string mix = "alarm-heavy";
};

/// Cadences of the scheduled v3 requests, per workload class. A cadence
/// of 0 disables the request; otherwise the request runs after every
/// batch whose absolute index b satisfies (b + 1) % cadence == 0 — a
/// pure function of b, so resumed runs replay the identical schedule.
struct MixPlan {
  std::size_t feedback_every = 0;
  std::size_t query_every = 0;
  std::uint32_t feedback_k = 4;  // label the current k worst outliers
  std::uint32_t query_k = 8;
};

bool PlanFor(const std::string& mix, MixPlan* plan) {
  if (mix == "alarm-heavy") {
    *plan = MixPlan{};  // pure ingest
    return true;
  }
  if (mix == "feedback-heavy") {
    plan->feedback_every = 4;
    plan->query_every = 16;
    return true;
  }
  if (mix == "query-heavy") {
    plan->feedback_every = 32;
    plan->query_every = 2;
    return true;
  }
  return false;
}

bool FeedbackDue(const MixPlan& plan, std::uint64_t batch_index) {
  return plan.feedback_every != 0 &&
         (batch_index + 1) % plan.feedback_every == 0;
}

bool QueryDue(const MixPlan& plan, std::uint64_t batch_index) {
  return plan.query_every != 0 && (batch_index + 1) % plan.query_every == 0;
}

/// The feedback round due after batch b: label whatever the session's
/// top-k window currently retains (ids from `top`) plus one fresh labeled
/// example — the first point of the batch, known to the wire worker and
/// the in-process reference alike.
std::vector<std::uint64_t> FeedbackIds(
    const std::vector<spot::TopKEntry>& top) {
  std::vector<std::uint64_t> ids;
  ids.reserve(top.size());
  for (const spot::TopKEntry& e : top) ids.push_back(e.point_id);
  return ids;
}

/// Replays the scheduled state-mutating rounds on the in-process
/// reference for one batch (the query itself is read-only; it matters
/// only as the id source of a due feedback round). Shared between the
/// skipped-prefix warm-up and the served portion so both walk the same
/// schedule.
void ReplayScheduledOps(spot::SpotDetector* reference, const MixPlan& plan,
                        std::uint64_t batch_index,
                        const std::vector<double>& fresh_example) {
  if (!FeedbackDue(plan, batch_index)) return;
  const std::vector<spot::TopKEntry> top =
      reference->QueryTopK(plan.feedback_k);
  std::string error;
  // Failure (e.g. a still-filling reservoir) is as deterministic as
  // success; the served portion asserts the wire outcome matches.
  reference->ApplyFeedback(FeedbackIds(top), {fresh_example}, &error);
}

/// The session config: derived only from the flags, so a --resume run
/// reconstructs the identical reference the original run used.
spot::SpotConfig SessionConfig(const Flags& flags) {
  spot::SpotConfig cfg = spot::eval::FastTestConfig();
  cfg.os_update_every = 8;
  cfg.evolution_period = 300;
  cfg.num_shards = flags.shards;
  return cfg;
}

/// Connection c's training batch (deterministic per connection).
std::vector<std::vector<double>> Training(const Flags& flags, std::size_t c,
                                          const spot::stream::CsvParseResult*
                                              csv) {
  if (csv != nullptr) {
    const std::size_t n = std::min(flags.training, csv->rows.size());
    return std::vector<std::vector<double>>(csv->rows.begin(),
                                            csv->rows.begin() +
                                                static_cast<long>(n));
  }
  return spot::bench::MakeTraining(flags.dims,
                                   static_cast<int>(flags.training),
                                   /*concept_seed=*/500 + c,
                                   /*seed=*/9100 + c);
}

/// Connection c's full evaluation stream: `skip + points` points with
/// stable ids, so a resumed run regenerates exactly the tail it needs.
std::vector<spot::DataPoint> Stream(const Flags& flags, std::size_t c,
                                    const spot::stream::CsvParseResult* csv) {
  std::vector<spot::DataPoint> out;
  const std::size_t need = flags.skip + flags.points;
  if (csv != nullptr) {
    for (std::size_t i = 0; i < need; ++i) {
      // Replay CSV rows after the training prefix, wrapping around so any
      // --points works with any file size.
      const std::size_t base = flags.training;
      const std::size_t span =
          csv->rows.size() > base ? csv->rows.size() - base : 1;
      spot::DataPoint p;
      p.id = i;
      p.values = csv->rows[base + (i % span)];
      out.push_back(std::move(p));
    }
    return out;
  }
  const std::vector<spot::LabeledPoint> labeled = spot::bench::MakeEvalStream(
      flags.dims, static_cast<int>(need), /*outlier_prob=*/0.02,
      /*concept_seed=*/500 + c, /*seed=*/9200 + c);
  out.reserve(labeled.size());
  for (const spot::LabeledPoint& p : labeled) out.push_back(p.point);
  return out;
}

struct WorkerResult {
  bool ok = false;
  bool verified = true;
  std::string error;
  double span_seconds = 0.0;  // detection span: first ingest -> last flush
  std::size_t points_sent = 0;
  std::size_t feedback_rounds = 0;   // wire kFeedback rounds attempted
  std::size_t feedback_applied = 0;  // ... that the server accepted
  std::size_t topk_queries = 0;      // wire kQueryTopK round trips
  /// Flush round-trip latencies in microseconds. A log2 histogram instead
  /// of a per-flush vector: O(1) memory however long the run, mergeable
  /// across workers, and still good for the p50/p95/p99 columns (within
  /// one power-of-two bucket of the exact order statistic).
  spot::obs::Histogram latency_us;
};

void RunWorker(const Flags& flags, std::size_t c, std::uint16_t port,
               const spot::stream::CsvParseResult* csv,
               WorkerResult* result) {
  const std::string id =
      flags.session_prefix + "-" + std::to_string(c);
  MixPlan plan;
  if (!PlanFor(flags.mix, &plan)) {
    result->error = "unknown --mix '" + flags.mix + "'";
    return;
  }
  spot::net::SpotClient client;
  bool connected = false;
  for (int attempt = 0; attempt < 50 && !connected; ++attempt) {
    connected = client.Connect(flags.host, port).ok;
    if (!connected) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  if (!connected) {
    result->error = "cannot connect: " + client.last_error();
    return;
  }

  const std::vector<std::vector<double>> training = Training(flags, c, csv);
  const std::vector<spot::DataPoint> stream = Stream(flags, c, csv);

  if (flags.resume ? !client.ResumeSession(id).ok
                   : !client.CreateSession(id, SessionConfig(flags),
                                           training)
                          .ok) {
    result->error = (flags.resume ? "resume: " : "create: ") +
                    client.last_error();
    return;
  }

  // In-process reference: same config, same training, same stream —
  // including a silent replay of the [0, skip) prefix an earlier run
  // already served (with its scheduled feedback rounds, which mutate the
  // detector), so the comparison picks up exactly where it left off.
  std::unique_ptr<spot::SpotDetector> reference;
  std::vector<spot::SpotResult> expected;
  std::uint64_t batch_index = 0;
  if (flags.verify) {
    reference =
        std::make_unique<spot::SpotDetector>(SessionConfig(flags));
    if (!reference->Learn(training)) {
      result->error = "reference learning failed";
      return;
    }
    for (std::size_t i = 0; i < flags.skip; i += flags.batch) {
      const std::size_t n = std::min(flags.batch, flags.skip - i);
      reference->ProcessBatch(std::vector<spot::DataPoint>(
          stream.begin() + static_cast<long>(i),
          stream.begin() + static_cast<long>(i + n)));
      ReplayScheduledOps(reference.get(), plan, batch_index,
                         stream[i].values);
      ++batch_index;
    }
  } else {
    batch_index = (flags.skip + flags.batch - 1) / flags.batch;
  }

  std::vector<spot::SpotResult> verdicts;
  verdicts.reserve(flags.points);
  const double batch_interval =
      flags.rate > 0 ? static_cast<double>(flags.batch) /
                           static_cast<double>(flags.rate)
                     : 0.0;
  spot::Timer span;
  spot::Timer group;  // covers the batches since the last flush
  double next_send = 0.0;
  std::size_t batches_since_flush = 0;
  for (std::size_t i = flags.skip; i < stream.size(); i += flags.batch) {
    if (batch_interval > 0.0) {
      while (span.ElapsedSeconds() < next_send) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      next_send += batch_interval;
    }
    const std::size_t n = std::min(flags.batch, stream.size() - i);
    const std::vector<spot::DataPoint> batch(
        stream.begin() + static_cast<long>(i),
        stream.begin() + static_cast<long>(i + n));
    if (batches_since_flush == 0) group.Reset();
    if (!client.Ingest(id, batch)) {
      result->error = "ingest: " + client.last_error();
      return;
    }
    if (flags.verify) {
      const std::vector<spot::SpotResult> ref =
          reference->ProcessBatch(batch);
      expected.insert(expected.end(), ref.begin(), ref.end());
    }
    result->points_sent += n;

    // Scheduled v3 requests (--mix): query first, then the feedback
    // round, in a fixed order so the wire and the reference walk the
    // same sequence. Both requests force a server-side batch boundary,
    // which is exactly where the reference sits after ProcessBatch.
    if (QueryDue(plan, batch_index)) {
      std::vector<spot::TopKEntry> got;
      if (!client.TopK(id, plan.query_k, &got)) {
        result->error = "top-k query: " + client.last_error();
        return;
      }
      ++result->topk_queries;
      if (flags.verify &&
          spot::net::TopKBytes(got) !=
              spot::net::TopKBytes(reference->QueryTopK(plan.query_k))) {
        result->verified = false;
        result->error = "top-k bytes diverge from in-process reference "
                        "at batch " + std::to_string(batch_index);
        return;
      }
    }
    if (FeedbackDue(plan, batch_index)) {
      std::vector<spot::TopKEntry> top;
      if (!client.TopK(id, plan.feedback_k, &top)) {
        result->error = "top-k (feedback ids): " + client.last_error();
        return;
      }
      ++result->topk_queries;
      const std::vector<std::uint64_t> ids = FeedbackIds(top);
      const spot::net::RpcStatus fb =
          client.Feedback(id, ids, {batch.front().values});
      // kFeedbackFailed is a legitimate deterministic outcome (e.g. a
      // reservoir still filling early in the stream); anything else —
      // transport, unsupported, not attached — fails the run.
      if (!fb && fb.code != spot::net::ErrorCode::kFeedbackFailed) {
        result->error = "feedback: " + client.last_error();
        return;
      }
      ++result->feedback_rounds;
      if (fb.ok) ++result->feedback_applied;
      if (flags.verify) {
        if (spot::net::TopKBytes(top) !=
            spot::net::TopKBytes(reference->QueryTopK(plan.feedback_k))) {
          result->verified = false;
          result->error = "feedback-id top-k bytes diverge at batch " +
                          std::to_string(batch_index);
          return;
        }
        std::string ref_error;
        const bool ref_ok = reference->ApplyFeedback(
            ids, {batch.front().values}, &ref_error);
        if (ref_ok != fb.ok) {
          result->verified = false;
          result->error = "feedback outcome diverges at batch " +
                          std::to_string(batch_index) + ": wire " +
                          (fb.ok ? "ok" : "failed") + ", reference " +
                          (ref_ok ? "ok" : "failed");
          return;
        }
      }
    }
    ++batch_index;

    if (++batches_since_flush >= flags.flush_every) {
      if (!client.Flush(id, &verdicts)) {
        result->error = "flush: " + client.last_error();
        return;
      }
      result->latency_us.Record(group.ElapsedMillis() * 1000.0);
      batches_since_flush = 0;
    }
  }
  if (batches_since_flush > 0) {
    if (!client.Flush(id, &verdicts)) {
      result->error = "flush: " + client.last_error();
      return;
    }
    result->latency_us.Record(group.ElapsedMillis() * 1000.0);
  }
  result->span_seconds = span.ElapsedSeconds();

  // persist=true is a no-op on a server without a checkpoint dir, so a
  // failure here is a real checkpoint error — surface it rather than
  // retrying with persist=false, which would silently discard the
  // session state and report a green run.
  if (!flags.keep_open &&
      !client.CloseSession(id, /*persist=*/true, &verdicts)) {
    result->error = "close: " + client.last_error();
    return;
  }

  if (flags.verify) {
    if (verdicts.size() != flags.points) {
      result->error = "verdict count mismatch: got " +
                      std::to_string(verdicts.size()) + ", want " +
                      std::to_string(flags.points);
      result->verified = false;
      return;
    }
    result->verified = spot::net::VerdictBytes(verdicts) ==
                       spot::net::VerdictBytes(expected);
    if (!result->verified) {
      result->error = "verdict bytes diverge from in-process reference";
      return;
    }
  }
  result->ok = true;
}

/// Post-run server-side observability scrape (DESIGN.md Section 9): a
/// kStats round trip on a dedicated connection, rendered as a
/// pipeline-stage latency table beside the client-side numbers. Reactors
/// publish their snapshots once per loop turn, so the scrape retries
/// briefly until the server-side ingest count has caught up with what
/// this run sent (an external server may carry counts from earlier runs,
/// hence >=). Pre-stats servers close the connection on the unknown
/// request type; that skips the table gracefully without failing the run.
void ScrapeServerStats(const Flags& flags, std::uint16_t port,
                       std::size_t expected_points,
                       spot::bench::JsonReporter* json) {
  spot::net::SpotClient client;
  if (!client.Connect(flags.host, port)) {
    std::printf("server scrape: skipped (%s)\n", client.last_error().c_str());
    return;
  }
  spot::net::StatsResp stats;
  for (int attempt = 0; attempt < 40; ++attempt) {
    if (!client.Stats(&stats)) {
      std::printf("server scrape: unsupported by this server (%s)\n",
                  client.last_error().c_str());
      return;
    }
    const spot::obs::MetricsSnapshot merged = stats.Merged();
    const auto it = merged.counters.find("points_ingested");
    if (it != merged.counters.end() && it->second >= expected_points) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const spot::obs::MetricsSnapshot merged = stats.Merged();
  const auto counter = [&merged](const char* name) -> std::uint64_t {
    const auto it = merged.counters.find(name);
    return it == merged.counters.end() ? 0 : it->second;
  };
  std::printf("server scrape: %llu points in %llu batches across %zu "
              "reactor(s), %llu checkpoints\n",
              static_cast<unsigned long long>(counter("points_ingested")),
              static_cast<unsigned long long>(counter("batches_run")),
              stats.reactors.size(),
              static_cast<unsigned long long>(counter("checkpoints_written")));

  // Fixed stage list (absent stages show count 0) so every run emits the
  // same table shape — bench_regression merges runs by table index.
  spot::eval::Table table(
      {"stage", "reactors", "count", "p50 us", "p95 us", "p99 us"});
  for (const spot::obs::TraceStage stage : spot::obs::kReactorStages) {
    const auto it =
        merged.histograms.find(spot::obs::StageHistogramName(stage));
    const spot::obs::Histogram hist =
        it == merged.histograms.end() ? spot::obs::Histogram() : it->second;
    table.AddRow({spot::obs::TraceStageName(stage),
                  spot::eval::Table::Int(stats.reactors.size()),
                  spot::eval::Table::Int(hist.count()),
                  spot::eval::Table::Num(hist.Quantile(0.50), 1),
                  spot::eval::Table::Num(hist.Quantile(0.95), 1),
                  spot::eval::Table::Num(hist.Quantile(0.99), 1)});
  }
  json->Print(table, "SERVER: pipeline stage latency (scraped)");

  // Stage x counter attribution (DESIGN.md Section 12). The perf series
  // ride the same kStats snapshot as the latency table, keyed by their
  // embedded labels.
  const std::vector<spot::obs::PerfStageRow> perf_rows =
      spot::obs::PerfStageRows(merged);
  spot::eval::Table perf_table(
      {"stage", "units", "wall ns/u", "cpu ns/u", "cpu/wall"});
  for (const spot::obs::PerfStageRow& row : perf_rows) {
    perf_table.AddRow({row.stage, spot::eval::Table::Int(row.units),
                       spot::eval::Table::Num(row.wall_ns_per_unit, 1),
                       spot::eval::Table::Num(row.cpu_ns_per_unit, 1),
                       spot::eval::Table::Num(row.cpu_per_wall, 3)});
    if (row.labels ==
        spot::obs::StagePerfLabels(spot::obs::TraceStage::kProcess)) {
      // The whole-batch service call, per point: the trajectory scalar
      // tools/bench_regression.py records (trend data, DESIGN.md Section
      // 12.5).
      json->SetCounter("cpu_ns/pt", row.cpu_ns_per_unit);
    }
  }
  if (!perf_rows.empty()) {
    json->Print(perf_table, "SERVER: stage x counter attribution (scraped)");
  }
}

/// --trace-out: pulls the server's flight recorder over the wire (a
/// kTraceDump round trip on its own connection, like the stats scrape)
/// and writes the Chrome-trace JSON to `path`. A server with tracing
/// disabled answers kError; a pre-trace server closes the connection —
/// both skip with a message instead of failing the run.
void DumpServerTrace(const Flags& flags, std::uint16_t port,
                     const std::string& path) {
  spot::net::SpotClient client;
  if (!client.Connect(flags.host, port)) {
    std::printf("trace dump: skipped (%s)\n", client.last_error().c_str());
    return;
  }
  std::string trace_json;
  if (!client.TraceDump(&trace_json)) {
    std::printf("trace dump: unsupported by this server (%s)\n",
                client.last_error().c_str());
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(trace_json.data(),
                         static_cast<std::streamsize>(trace_json.size()))) {
    SPOT_LOG(Error) << "cannot write trace to " << path;
    return;
  }
  std::printf("trace dumped to %s (%zu bytes)\n", path.c_str(),
              trace_json.size());
}

}  // namespace

int main(int argc, char** argv) {
  spot::bench::JsonReporter json(argc, argv, "spot_loadgen");
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  namespace ex = spot::examples;
  Flags flags;
  flags.host = ex::TakeStringFlag(&args, "host", flags.host);
  flags.port = static_cast<std::uint16_t>(
      ex::TakeSizeFlag(&args, "port", flags.port));
  flags.connections =
      std::max<std::size_t>(1, ex::TakeSizeFlag(&args, "connections", 2));
  flags.points = ex::TakeSizeFlag(&args, "points", 2000);
  flags.batch =
      std::max<std::size_t>(1, ex::TakeSizeFlag(&args, "batch", 100));
  flags.flush_every =
      std::max<std::size_t>(1, ex::TakeSizeFlag(&args, "flush-every", 1));
  flags.rate = ex::TakeSizeFlag(&args, "rate", 0);
  flags.dims = static_cast<int>(ex::TakeSizeFlag(&args, "dims", 8));
  flags.training = ex::TakeSizeFlag(&args, "training", 400);
  flags.shards = std::max<std::size_t>(1, ex::TakeSizeFlag(&args, "shards", 1));
  flags.reactors =
      std::max<std::size_t>(1, ex::TakeSizeFlag(&args, "reactors", 1));
  flags.session_prefix =
      ex::TakeStringFlag(&args, "session-prefix", flags.session_prefix);
  flags.csv = ex::TakeStringFlag(&args, "csv", "");
  flags.skip = ex::TakeSizeFlag(&args, "skip", 0);
  flags.resume = ex::TakeBoolFlag(&args, "resume");
  flags.keep_open = ex::TakeBoolFlag(&args, "keep-open");
  flags.verify = ex::TakeBoolFlag(&args, "verify");
  flags.spawn_server = ex::TakeBoolFlag(&args, "spawn-server");
  flags.checkpoint_dir = ex::TakeStringFlag(&args, "checkpoint-dir", "");
  flags.trace_out = ex::TakeStringFlag(&args, "trace-out", "");
  flags.mix = ex::TakeStringFlag(&args, "mix", flags.mix);
  // Swallow the reporter's flag, already parsed from argv.
  ex::TakeStringFlag(&args, "json", "");
  if (!args.empty()) {
    SPOT_LOG(Error) << "unknown argument '" << args.front() << "'";
    return 2;
  }
  MixPlan plan;
  if (!PlanFor(flags.mix, &plan)) {
    SPOT_LOG(Error) << "unknown --mix '" << flags.mix
                    << "' (alarm-heavy | feedback-heavy | query-heavy)";
    return 2;
  }
  if ((plan.feedback_every != 0 || plan.query_every != 0) &&
      flags.skip % flags.batch != 0) {
    SPOT_LOG(Error) << "--mix " << flags.mix << " needs --skip to be a "
                    << "multiple of --batch (the request schedule is keyed "
                    << "to batch boundaries)";
    return 2;
  }

  spot::stream::CsvParseResult csv;
  const bool use_csv = !flags.csv.empty();
  if (use_csv) {
    csv = spot::stream::LoadCsvFile(flags.csv);
    if (csv.rows.size() <= flags.training) {
      SPOT_LOG(Error) << flags.csv << ": need more than " << flags.training
                      << " rows";
      return 2;
    }
  }

  // Optional in-process server: real sockets on an ephemeral port.
  std::unique_ptr<spot::net::SpotServer> server;
  std::thread server_thread;
  std::uint16_t port = flags.port;
  if (flags.spawn_server) {
    spot::SpotServiceConfig scfg;
    scfg.num_shards = flags.shards;
    scfg.max_resident = std::max<std::size_t>(8, flags.connections);
    scfg.checkpoint_dir = flags.checkpoint_dir;
    if (!scfg.checkpoint_dir.empty()) {
      ::mkdir(scfg.checkpoint_dir.c_str(), 0755);
    }
    spot::net::SpotServerConfig ncfg;
    ncfg.port = 0;
    ncfg.num_reactors = flags.reactors;
    server = std::make_unique<spot::net::SpotServer>(scfg, ncfg);
    if (!server->Start()) {
      SPOT_LOG(Error) << "cannot start in-process server";
      return 1;
    }
    port = server->port();
    server_thread = std::thread([&server] { server->Run(); });
    std::printf("spawned in-process server on 127.0.0.1:%u (%zu reactors)\n",
                port, server->num_reactors());
  }

  std::printf("loadgen: %zu connection(s) x %zu points (batch %zu, flush "
              "every %zu, rate %zu pts/s/conn, skip %zu, mix %s)%s\n",
              flags.connections, flags.points, flags.batch,
              flags.flush_every, flags.rate, flags.skip, flags.mix.c_str(),
              flags.verify ? " with --verify" : "");

  std::vector<WorkerResult> results(flags.connections);
  {
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < flags.connections; ++c) {
      workers.emplace_back(RunWorker, std::cref(flags), c, port,
                           use_csv ? &csv : nullptr, &results[c]);
    }
    for (std::thread& t : workers) t.join();
  }

  // Scrape the server's own pipeline view while it is still up (the
  // spawned server dies with Stop() below).
  std::size_t sent_total = 0;
  for (const WorkerResult& r : results) sent_total += r.points_sent;
  ScrapeServerStats(flags, port, sent_total, &json);
  if (!flags.trace_out.empty()) {
    DumpServerTrace(flags, port, flags.trace_out);
  }

  if (server != nullptr) {
    server->Stop();
    server_thread.join();
  }

  bool all_ok = true;
  bool all_verified = true;
  double max_span = 0.0;
  std::size_t total_points = 0;
  std::size_t feedback_rounds = 0;
  std::size_t feedback_applied = 0;
  std::size_t topk_queries = 0;
  // Per-connection throughput spread: with multiple reactors, skew
  // between the fastest and slowest connection is the first sign of an
  // unbalanced accept spread or a stalled reactor.
  double conn_min = 0.0;
  double conn_max = 0.0;
  spot::obs::Histogram latency_us;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const WorkerResult& r = results[c];
    if (!r.ok) {
      SPOT_LOG(Error) << "connection " << c << " failed: " << r.error;
      all_ok = false;
    }
    all_verified &= r.verified;
    max_span = std::max(max_span, r.span_seconds);
    total_points += r.points_sent;
    feedback_rounds += r.feedback_rounds;
    feedback_applied += r.feedback_applied;
    topk_queries += r.topk_queries;
    const double conn_rate =
        r.span_seconds > 0.0
            ? static_cast<double>(r.points_sent) / r.span_seconds
            : 0.0;
    conn_min = c == 0 ? conn_rate : std::min(conn_min, conn_rate);
    conn_max = std::max(conn_max, conn_rate);
    latency_us.Merge(r.latency_us);
  }

  const double pts_per_sec =
      max_span > 0.0 ? static_cast<double>(total_points) / max_span : 0.0;
  spot::eval::Table table({"mix", "connections", "points", "batch", "shards",
                           "reactors", "pts/s", "conn min", "conn max",
                           "p50 ms", "p95 ms", "p99 ms"});
  table.AddRow({flags.mix,
                spot::eval::Table::Int(flags.connections),
                spot::eval::Table::Int(total_points),
                spot::eval::Table::Int(flags.batch),
                spot::eval::Table::Int(flags.shards),
                spot::eval::Table::Int(server != nullptr
                                           ? server->num_reactors()
                                           : flags.reactors),
                spot::eval::Table::Int(
                    static_cast<std::uint64_t>(pts_per_sec)),
                spot::eval::Table::Int(static_cast<std::uint64_t>(conn_min)),
                spot::eval::Table::Int(static_cast<std::uint64_t>(conn_max)),
                spot::eval::Table::Num(latency_us.Quantile(0.50) / 1000.0, 2),
                spot::eval::Table::Num(latency_us.Quantile(0.95) / 1000.0, 2),
                spot::eval::Table::Num(latency_us.Quantile(0.99) / 1000.0, 2)});
  json.Print(table, "LOADGEN: end-to-end server throughput");

  if (plan.feedback_every != 0 || plan.query_every != 0) {
    std::printf("mix %s: %zu top-k queries, %zu feedback rounds "
                "(%zu applied)\n",
                flags.mix.c_str(), topk_queries, feedback_rounds,
                feedback_applied);
  }

  if (flags.verify) {
    std::printf("\nBIT-IDENTICAL VERDICTS: %s\n",
                all_ok && all_verified ? "OK" : "FAIL");
  }
  return all_ok && all_verified ? 0 : 1;
}
