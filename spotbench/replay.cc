#include "replay.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>

#include "core/checkpoint.h"
#include "core/detector.h"
#include "learning/self_evolution.h"
#include "learning/supervised.h"
#include "net/protocol.h"
#include "service/spot_service.h"

namespace spotbench {
namespace {

namespace net = spot::net;
using Clock = std::chrono::steady_clock;

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// CPU of every thread of this process (the shard workers included).
double ProcessCpuUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

std::uint32_t Digest(const std::string& bytes) {
  return net::Crc32(bytes.data(), bytes.size());
}

std::vector<std::uint64_t> IdsOf(const std::vector<spot::TopKEntry>& top) {
  std::vector<std::uint64_t> ids;
  for (const spot::TopKEntry& e : top) ids.push_back(e.point_id);
  return ids;
}

enum Stage {
  kClientEncode,
  kWireDecode,
  kServiceIngest,
  kVerdictEncode,
  kClientDecode,
  kNumStages
};
const char* const kStageNames[kNumStages] = {
    "client encode (EncodeIngest+EncodeFrame)",
    "wire decode (FrameDecoder+DecodeIngest)",
    "service ingest (SpotService::Ingest)",
    "verdict encode (EncodeVerdicts+EncodeFrame)",
    "client decode (DecodeVerdicts)"};

/// What the traced replay counted and timed, summed over reactors.
struct Totals {
  std::uint64_t points = 0;
  std::uint64_t batches = 0;
  double stage_us[kNumStages] = {};
  std::vector<double> batch_sums_us;
  double core_us = 0.0;
  double core_cpu_us = 0.0;
  double k1_us = 0.0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double probes = 0.0;
  double tracked_sum = 0.0;
  double feedback_us = 0.0;
  std::uint64_t feedback_rounds = 0;
  double topk_us = 0.0;
  std::uint64_t topk_queries = 0;
  double learn_ms = 0.0;
  double ckpt_save_ms = 0.0;
  double ckpt_load_ms = 0.0;
  double ckpt_kb = 0.0;
  double supervised_ms = 0.0;
  double evolution_ms = 0.0;
  std::uint64_t sessions = 0;
  std::uint64_t outliers = 0;
  std::uint64_t os_growth = 0;
  std::uint64_t evolutions = 0;
  std::uint64_t populated_cells = 0;
  std::uint64_t evictions = 0;
  std::uint64_t reloads = 0;
};

/// The replay's passes over one reactor's sessions. Each pass regenerates
/// the same seeded batches and walks the same interleaving and rounds, so
/// the timed calls of one layer never share caches with another layer's.
enum class Pass {
  kService,      // SpotService (and, traced, the net codec): the reference
  kCore,         // a bare SpotDetector at the workload's shard count
  kSingleShard,  // the same at one shard (traced runs with K > 1 only)
};

struct SessionState {
  SessionState(const Workload& w, std::uint64_t seed, std::size_t s)
      : index(s), id(SessionId(s)), stream(w, seed, s) {}

  std::size_t index;
  std::string id;
  SessionStream stream;
  std::size_t next_batch = 0;
  std::size_t next_op = 0;
  std::unique_ptr<spot::SpotDetector> detector;  // the detector passes
  std::vector<double> last_example;
};

class ReactorReplay {
 public:
  ReactorReplay(const Workload& w, std::uint64_t seed,
                const std::vector<SessionLog>& logs, bool trace,
                const std::string& work_dir, std::size_t reactor)
      : w_(w),
        seed_(seed),
        logs_(logs),
        trace_(trace),
        work_dir_(work_dir),
        reactor_(reactor) {}

  void Run(ReplayResult* r, Totals* t) {
    r_ = r;
    t_ = t;
    RunPass(Pass::kService);
    if (!trace_) return;
    RunPass(Pass::kCore);
    if (w_.shards > 1) RunPass(Pass::kSingleShard);
  }

 private:
  void RunPass(Pass pass) {
    pass_ = pass;
    service_.reset();
    if (pass == Pass::kService) {
      // Mirrors the daemon's per-reactor service: same residency, shard
      // count and (default) journal and quality collection.
      spot::SpotServiceConfig scfg;
      scfg.max_resident = w_.max_resident;
      scfg.num_shards = w_.shards;
      if (w_.checkpoint_dir) {
        scfg.checkpoint_dir =
            work_dir_ + "/replay-r" + std::to_string(reactor_);
        std::filesystem::create_directories(scfg.checkpoint_dir);
      }
      service_ = std::make_unique<spot::SpotService>(scfg);
    }

    // Connections of this reactor, each with its sessions in send order.
    std::vector<std::vector<SessionState*>> conns;
    std::vector<std::size_t> conn_index(w_.connections, SIZE_MAX);
    for (std::size_t c = 0; c < w_.connections; ++c) {
      if (w_.ReactorOfConnection(c) != reactor_) continue;
      conn_index[c] = conns.size();
      conns.emplace_back();
    }
    std::vector<std::unique_ptr<SessionState>> sessions;
    for (std::size_t s = 0; s < w_.sessions; ++s) {
      const std::size_t ci = conn_index[w_.ConnectionOfSession(s)];
      if (ci == SIZE_MAX) continue;
      sessions.push_back(std::make_unique<SessionState>(w_, seed_, s));
      conns[ci].push_back(sessions.back().get());
      if (!Create(sessions.back().get())) return;
    }

    // Batch j of a connection went to its session j % n; connections are
    // interleaved, as their clients ran side by side.
    std::vector<std::size_t> conn_total(conns.size(), 0);
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      for (const SessionState* st : conns[ci]) {
        conn_total[ci] += logs_[st->index].batch_crcs.size();
      }
    }
    for (std::size_t j = 0;; ++j) {
      bool any = false;
      for (std::size_t ci = 0; ci < conns.size(); ++ci) {
        if (j >= conn_total[ci]) continue;
        any = true;
        SessionState* st = conns[ci][j % conns[ci].size()];
        if (st->next_batch < logs_[st->index].batch_crcs.size()) Batch(st);
      }
      if (!any) break;
    }

    if (!trace_) return;
    if (pass == Pass::kService) {
      // Workloads without scheduled rounds still get one timed round, on
      // the final state, for service.topk_us and service.feedback_ms; the
      // wire made no such round, so there is nothing to compare it with.
      if (w_.feedback_every == 0 && w_.query_every == 0) {
        for (const auto& st : sessions) Feedback(st.get(), /*check=*/false);
      }
      const spot::ServiceMetrics m = service_->TotalMetrics();
      t_->evictions += m.evictions;
      t_->reloads += m.reloads;
    } else if (pass == Pass::kCore) {
      for (const auto& st : sessions) Finish(st.get());
    }
  }

  bool Create(SessionState* st) {
    const std::vector<std::vector<double>> training =
        TrainingData(w_, st->index);
    if (pass_ == Pass::kService) {
      if (!service_->CreateSession(st->id, w_.config, training)) {
        r_->Mismatch(false, "replay could not create session " + st->id);
        return false;
      }
      return true;
    }
    spot::SpotConfig cfg = w_.config;
    cfg.num_shards = pass_ == Pass::kCore ? w_.shards : 1;
    st->detector = std::make_unique<spot::SpotDetector>(cfg);
    const Clock::time_point t0 = Clock::now();
    st->detector->Learn(training);
    if (pass_ == Pass::kCore) t_->learn_ms += Us(t0, Clock::now()) / 1000.0;
    return true;
  }

  /// Compares one scheduled round with the wire's log of the session. A
  /// round the wire did not log is left to the caller's count check.
  void CheckOp(SessionState* st, std::uint32_t got, const char* what) {
    const std::vector<std::uint32_t>& want = logs_[st->index].op_digests;
    const std::size_t round = st->next_op++;
    ++r_->ops_checked;
    if (round < want.size() && want[round] != got) {
      r_->Mismatch(false, std::string(what) + " of session " + st->id +
                              " differs from the wire (round " +
                              std::to_string(round) + ")");
    }
  }

  std::vector<spot::TopKEntry> TopK(SessionState* st, std::uint32_t k,
                                    bool check) {
    if (pass_ != Pass::kService) return st->detector->QueryTopK(k);
    std::vector<spot::TopKEntry> top;
    const Clock::time_point t0 = Clock::now();
    service_->QueryTopK(st->id, k, &top);
    t_->topk_us += Us(t0, Clock::now());
    ++t_->topk_queries;
    if (check) CheckOp(st, Digest(net::TopKBytes(top)), "top-k answer");
    return top;
  }

  /// A feedback round labeling the current top-k plus the first point of
  /// the session's latest batch, as the wire client sends it.
  void Feedback(SessionState* st, bool check) {
    const std::vector<std::vector<double>> example = {st->last_example};
    const std::vector<std::uint64_t> ids =
        IdsOf(TopK(st, w_.feedback_k, check));
    if (pass_ != Pass::kService) {
      st->detector->ApplyFeedback(ids, example);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    const bool ok = service_->ApplyFeedback(st->id, ids, example);
    t_->feedback_us += Us(t0, Clock::now());
    ++t_->feedback_rounds;
    if (check) CheckOp(st, ok ? 1 : 0, "feedback outcome");
  }

  void Batch(SessionState* st) {
    const std::vector<spot::DataPoint> points = st->stream.NextBatch();
    const std::uint64_t b = st->next_batch++;
    st->last_example = points.front().values;
    switch (pass_) {
      case Pass::kService: {
        const std::vector<spot::SpotResult> verdicts =
            trace_ ? TracedIngest(st, points)
                   : service_->Ingest(st->id, points).verdicts;
        ++r_->batches_checked;
        if (Digest(net::VerdictBytes(verdicts)) !=
            logs_[st->index].batch_crcs[b]) {
          r_->Mismatch(true, "verdicts of session " + st->id + " batch " +
                                 std::to_string(b) + " differ from the wire");
        }
        break;
      }
      case Pass::kCore: {
        spot::SpotDetector& det = *st->detector;
        const std::uint64_t probes0 = det.synapses().hash_probes();
        const double cpu0 = ProcessCpuUs();
        const Clock::time_point t0 = Clock::now();
        det.ProcessBatch(points);
        t_->core_us += Us(t0, Clock::now());
        t_->core_cpu_us += ProcessCpuUs() - cpu0;
        const std::uint64_t probes1 = det.synapses().hash_probes();
        // Untracking a grid takes its probe count with it; never go
        // negative.
        if (probes1 > probes0) {
          t_->probes += static_cast<double>(probes1 - probes0);
        }
        t_->tracked_sum += static_cast<double>(det.TrackedSubspaces());
        break;
      }
      case Pass::kSingleShard: {
        const Clock::time_point t0 = Clock::now();
        st->detector->ProcessBatch(points);
        t_->k1_us += Us(t0, Clock::now());
        break;
      }
    }
    if (w_.QueryDue(b)) TopK(st, w_.query_k, /*check=*/true);
    if (w_.FeedbackDue(b)) Feedback(st, /*check=*/true);
  }

  /// One batch through every service-side layer in pipeline order, each
  /// call timed.
  std::vector<spot::SpotResult> TracedIngest(
      SessionState* st, const std::vector<spot::DataPoint>& points) {
    net::IngestReq req;
    req.session_id = st->id;
    req.points = points;

    const Clock::time_point t0 = Clock::now();
    const std::string in_frame =
        net::EncodeFrame(net::MsgType::kIngest, net::EncodeIngest(req));
    const Clock::time_point t1 = Clock::now();
    net::FrameDecoder decoder;
    decoder.Append(in_frame.data(), in_frame.size());
    net::Frame frame;
    net::IngestReq decoded;
    if (decoder.Next(&frame) != net::FrameDecoder::Status::kFrame ||
        !net::DecodeIngest(frame.payload, &decoded)) {
      r_->Mismatch(true, "ingest frame did not round-trip");
      return {};
    }
    const Clock::time_point t2 = Clock::now();
    spot::IngestResult ingest = service_->Ingest(st->id, decoded.points);
    const Clock::time_point t3 = Clock::now();
    net::VerdictsResp resp;
    resp.session_id = st->id;
    resp.first_point_id = points.front().id;
    resp.verdicts = std::move(ingest.verdicts);
    const std::string out_payload = net::EncodeVerdicts(resp);
    const std::string out_frame =
        net::EncodeFrame(net::MsgType::kVerdicts, out_payload);
    const Clock::time_point t4 = Clock::now();
    net::VerdictsResp received;
    net::DecodeVerdicts(out_payload, &received);
    const Clock::time_point t5 = Clock::now();

    const double stage[kNumStages] = {Us(t0, t1), Us(t1, t2), Us(t2, t3),
                                      Us(t3, t4), Us(t4, t5)};
    double sum = 0.0;
    for (int i = 0; i < kNumStages; ++i) {
      t_->stage_us[i] += stage[i];
      sum += stage[i];
    }
    t_->batch_sums_us.push_back(sum);
    ++t_->batches;
    t_->points += points.size();
    // Exact bytes on the wire, with the batch's kFlush and the kOk that
    // answers it.
    net::FlushReq flush;
    flush.session_id = st->id;
    net::OkResp ok;
    ok.request_type = static_cast<std::uint8_t>(net::MsgType::kFlush);
    t_->bytes_in += static_cast<double>(
        in_frame.size() +
        net::EncodeFrame(net::MsgType::kFlush, net::EncodeFlush(flush))
            .size());
    t_->bytes_out += static_cast<double>(
        out_frame.size() +
        net::EncodeFrame(net::MsgType::kOk, net::EncodeOk(ok)).size());
    return std::move(received.verdicts);
  }

  /// End-of-run probes of the session's final state.
  void Finish(SessionState* st) {
    spot::SpotDetector& det = *st->detector;
    const std::string dir = work_dir_ + "/trace-ckpt";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + st->id + ".ckpt";
    Clock::time_point t0 = Clock::now();
    spot::SaveCheckpointFile(det, path);
    t_->ckpt_save_ms += Us(t0, Clock::now()) / 1000.0;
    std::error_code ec;
    t_->ckpt_kb +=
        static_cast<double>(std::filesystem::file_size(path, ec)) / 1024.0;
    spot::SpotDetector restored(w_.config);
    t0 = Clock::now();
    spot::LoadCheckpointFile(&restored, path);
    t_->ckpt_load_ms += Us(t0, Clock::now()) / 1000.0;

    const spot::Partition& partition = det.synapses().partition();
    const int dims = partition.num_dims();
    spot::DomainKnowledge knowledge;
    knowledge.outlier_examples = {st->last_example};
    spot::SupervisedConfig scfg = w_.config.supervised;
    scfg.moga.num_dims = dims;
    scfg.moga.max_dimension = std::min(scfg.moga.max_dimension, dims);
    t0 = Clock::now();
    spot::LearnOutlierDrivenSubspaces(det.reservoir().Items(), partition,
                                      knowledge, scfg, /*seed=*/1);
    t_->supervised_ms += Us(t0, Clock::now()) / 1000.0;

    spot::Sst sst = det.sst();
    sst.set_event_sink(nullptr);
    spot::SelfEvolutionConfig ecfg = w_.config.evolution;
    ecfg.max_dimension = std::min(ecfg.max_dimension, dims);
    spot::Rng rng(1);
    t0 = Clock::now();
    spot::EvolveClusteringSubspaces(&sst, partition, det.reservoir().Items(),
                                    ecfg, rng);
    t_->evolution_ms += Us(t0, Clock::now()) / 1000.0;

    const spot::SpotStats& stats = det.stats();
    t_->outliers += stats.outliers_detected;
    t_->os_growth += stats.os_growth_runs;
    t_->evolutions += stats.evolution_rounds;
    t_->populated_cells += det.synapses().TotalPopulatedCells();
    ++t_->sessions;
  }

  const Workload& w_;
  std::uint64_t seed_;
  const std::vector<SessionLog>& logs_;
  bool trace_;
  std::string work_dir_;
  std::size_t reactor_;
  ReplayResult* r_ = nullptr;
  Totals* t_ = nullptr;
  Pass pass_ = Pass::kService;
  std::unique_ptr<spot::SpotService> service_;  // the service pass only
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  return v[mid];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ReplayResult Replay(const Workload& w, std::uint64_t seed,
                    const std::vector<SessionLog>& logs, bool trace,
                    const std::string& work_dir) {
  ReplayResult r;
  Totals t;
  for (std::size_t reactor = 0; reactor < w.reactors; ++reactor) {
    ReactorReplay(w, seed, logs, trace, work_dir, reactor).Run(&r, &t);
  }
  if (!trace) return r;

  r.points = t.points;
  r.batches = t.batches;
  for (int i = 0; i < kNumStages; ++i) {
    r.layers.push_back(LayerTime{kStageNames[i], t.stage_us[i]});
  }
  r.core_us_total = t.core_us;
  r.batch_sums_us = std::move(t.batch_sums_us);

  const double pts = static_cast<double>(t.points);
  const double kpts = pts / 1000.0;
  const double sessions = static_cast<double>(t.sessions);
  const double core_us_pt = Ratio(t.core_us, pts);
  const double k1_us_pt = w.shards > 1 ? Ratio(t.k1_us, pts) : core_us_pt;
  std::map<std::string, double>& m = r.metrics;
  m["net.encode_ingest_ns_per_pt"] = Ratio(t.stage_us[kClientEncode], pts) * 1e3;
  m["net.decode_ingest_ns_per_pt"] = Ratio(t.stage_us[kWireDecode], pts) * 1e3;
  m["net.encode_verdicts_ns_per_pt"] =
      Ratio(t.stage_us[kVerdictEncode], pts) * 1e3;
  m["net.decode_verdicts_ns_per_pt"] =
      Ratio(t.stage_us[kClientDecode], pts) * 1e3;
  m["net.bytes_in_per_pt"] = Ratio(t.bytes_in, pts);
  m["net.bytes_out_per_pt"] = Ratio(t.bytes_out, pts);
  m["service.ingest_us_per_pt"] = Ratio(t.stage_us[kServiceIngest], pts);
  m["service.overhead_us_per_pt"] =
      Ratio(t.stage_us[kServiceIngest] - t.core_us, pts);
  m["service.evictions_per_kpt"] =
      Ratio(static_cast<double>(t.evictions), kpts);
  m["service.reloads_per_kpt"] = Ratio(static_cast<double>(t.reloads), kpts);
  m["service.feedback_ms"] =
      Ratio(t.feedback_us, static_cast<double>(t.feedback_rounds)) / 1000.0;
  m["service.topk_us"] =
      Ratio(t.topk_us, static_cast<double>(t.topk_queries));
  m["core.learn_ms"] = Ratio(t.learn_ms, sessions);
  m["core.process_us_per_pt"] = core_us_pt;
  m["core.outliers_per_kpt"] = Ratio(static_cast<double>(t.outliers), kpts);
  m["core.checkpoint_save_ms"] = Ratio(t.ckpt_save_ms, sessions);
  m["core.checkpoint_load_ms"] = Ratio(t.ckpt_load_ms, sessions);
  m["core.checkpoint_kb"] = Ratio(t.ckpt_kb, sessions);
  m["engine.k1_us_per_pt"] = k1_us_pt;
  m["engine.speedup"] = w.shards > 1 ? Ratio(k1_us_pt, core_us_pt) : 1.0;
  m["engine.cpu_us_per_pt"] = Ratio(t.core_cpu_us, pts);
  m["grid.tracked_subspaces"] =
      Ratio(t.tracked_sum, static_cast<double>(t.batches));
  m["grid.hash_probes_per_pt"] = Ratio(t.probes, pts);
  m["grid.populated_cells"] = static_cast<double>(t.populated_cells);
  m["learning.os_growth_per_kpt"] =
      Ratio(static_cast<double>(t.os_growth), kpts);
  m["learning.evolution_per_kpt"] =
      Ratio(static_cast<double>(t.evolutions), kpts);
  m["learning.supervised_round_ms"] = Ratio(t.supervised_ms, sessions);
  m["learning.evolution_round_ms"] = Ratio(t.evolution_ms, sessions);
  m["pipeline.layer_sum_us_per_batch"] = Median(r.batch_sums_us);
  return r;
}

}  // namespace spotbench
