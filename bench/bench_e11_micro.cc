// E11 — Microbenchmarks of the hot-path primitives (google-benchmark).
//
// Paper claim (Section II-C2): "BCS and PCS can be updated incrementally
// and thus will be very quickly. Also, the outlier-ness check of each data
// in the stream is also very efficient." These benches measure the
// individual operations: projected-grid update, PCS query, the column
// kernel, decay solve, and the full per-point detection step. Base Cell
// Summaries are not materialized (DESIGN.md Section 3.2), so there is no
// BCS update to measure.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "grid/projected_grid.h"
#include "grid/synapse_manager.h"
#include "grid/synapse_shard.h"

namespace spot {
namespace {

std::vector<double> RandomPoint(Rng& rng, int dims) {
  std::vector<double> p(static_cast<std::size_t>(dims));
  for (double& v : p) v = rng.NextDouble();
  return p;
}

void BM_ProjectedGridAddAndQuery(benchmark::State& state) {
  const int subspace_dim = static_cast<int>(state.range(0));
  const int dims = 20;
  const Partition part(dims, 5, 0.0, 1.0);
  std::vector<int> idx;
  for (int i = 0; i < subspace_dim; ++i) idx.push_back(i * 2);
  ProjectedGrid grid(Subspace::FromIndices(idx), &part,
                     DecayModel(2000, 0.01));
  Rng rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 512; ++i) points.push_back(RandomPoint(rng, dims));
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const auto& p = points[tick % points.size()];
    grid.Add(p, tick);
    benchmark::DoNotOptimize(grid.Query(p, 100.0));
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes/pt"] =
      static_cast<double>(grid.hash_probes()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ProjectedGridAddAndQuery)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// The fused single-probe variant of the same workload: update and PCS
// retrieval served from one slot lookup (compare probes/pt and time/op with
// BM_ProjectedGridAddAndQuery above).
void BM_ProjectedGridFusedAddQuery(benchmark::State& state) {
  const int subspace_dim = static_cast<int>(state.range(0));
  const int dims = 20;
  const Partition part(dims, 5, 0.0, 1.0);
  std::vector<int> idx;
  for (int i = 0; i < subspace_dim; ++i) idx.push_back(i * 2);
  ProjectedGrid grid(Subspace::FromIndices(idx), &part,
                     DecayModel(2000, 0.01));
  Rng rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 512; ++i) points.push_back(RandomPoint(rng, dims));
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const auto& p = points[tick % points.size()];
    benchmark::DoNotOptimize(grid.AddAndQuery(p, tick, 100.0));
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes/pt"] =
      static_cast<double>(grid.hash_probes()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ProjectedGridFusedAddQuery)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

// Whole-synapse update + per-subspace query, the un-fused way the detector
// used to drive it: Add() into every grid, then Query() per subspace — two
// cell probes per subspace plus a grid-table probe.
void BM_SynapseUnfusedAddThenQuery(benchmark::State& state) {
  const int dims = 20;
  const int tracked = static_cast<int>(state.range(0));
  SynapseManager mgr(Partition(dims, 5, 0.0, 1.0), DecayModel(2000, 0.01));
  int added = 0;
  for (int a = 0; a < dims && added < tracked; ++a) {
    for (int b = a + 1; b < dims && added < tracked; ++b) {
      mgr.Track(Subspace::FromIndices({a, b}));
      ++added;
    }
  }
  const std::vector<Subspace> subspaces = mgr.TrackedSubspaces();
  Rng rng(5);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 512; ++i) points.push_back(RandomPoint(rng, dims));
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const auto& p = points[tick % points.size()];
    mgr.Add(p, tick);
    for (const Subspace& s : subspaces) {
      benchmark::DoNotOptimize(mgr.Query(p, s));
    }
    ++tick;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["probes/pt"] =
      static_cast<double>(mgr.hash_probes()) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SynapseUnfusedAddThenQuery)->Arg(8)->Arg(32)->Arg(128);

// The detection hot path: the column kernel the detector's batch loop runs
// at every shard count. Each iteration bins a 256-point batch once, into
// the rows of one flat frame, folds each arrival into the total-weight
// counter (a tile's phase 0), then runs
// SynapseShard::ProcessColumn over every tracked grid — one fused probe per
// (point, subspace), one point after another along the column.
void BM_SynapseShardProcessColumn(benchmark::State& state) {
  const int dims = 20;
  const int tracked = static_cast<int>(state.range(0));
  SynapseManager mgr(Partition(dims, 5, 0.0, 1.0), DecayModel(2000, 0.01));
  int added = 0;
  for (int a = 0; a < dims && added < tracked; ++a) {
    for (int b = a + 1; b < dims && added < tracked; ++b) {
      mgr.Track(Subspace::FromIndices({a, b}));
      ++added;
    }
  }
  const std::size_t kBatch = 256;
  Rng rng(5);
  std::vector<std::vector<DataPoint>> batches(2);
  for (auto& batch : batches) {
    batch.resize(kBatch);
    for (DataPoint& p : batch) p.values = RandomPoint(rng, dims);
  }
  BatchFrame frame;
  frame.width = static_cast<std::size_t>(dims);
  frame.base_cells.resize(kBatch * frame.width);
  frame.total_weights.resize(kBatch);
  std::vector<Pcs> pcs(mgr.NumTracked() * kBatch);
  std::vector<unsigned char> vetoed(pcs.size());
  const ShardRunParams params;  // fringe off: exactly one probe per lane
  CellCoords coords;
  std::uint64_t tick = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    const std::vector<DataPoint>& batch = batches[next++ % batches.size()];
    frame.points = batch.data();
    frame.first_tick = tick;
    for (std::size_t j = 0; j < kBatch; ++j) {
      mgr.partition().BaseCellInto(batch[j].values,
                                   frame.base_cells.data() + j * frame.width);
      frame.total_weights[j] = mgr.AddBase(tick++);
    }
    for (std::size_t i = 0; i < mgr.NumTracked(); ++i) {
      const ShardColumn column{mgr.SubspaceAt(i), mgr.GridAt(i),
                               mgr.SerialAt(i), pcs.data() + i * kBatch,
                               vetoed.data() + i * kBatch};
      SynapseShard::ProcessColumn(column, frame, 0, kBatch, params,
                                  &coords);
    }
    benchmark::DoNotOptimize(pcs.data());
  }
  const double points =
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(points));
  state.counters["probes/pt"] =
      static_cast<double>(mgr.hash_probes()) / points;
}
BENCHMARK(BM_SynapseShardProcessColumn)->Arg(8)->Arg(32)->Arg(128);

void BM_DecayModelSolve(benchmark::State& state) {
  std::uint64_t omega = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecayModel::SolveAlpha(omega, 0.01));
    omega = omega == 100 ? 10000 : 100;
  }
}
BENCHMARK(BM_DecayModelSolve);

void BM_SpotProcess(benchmark::State& state) {
  const int dims = 20;
  SpotConfig cfg = bench::ExperimentConfig(43);
  cfg.fs_cap = static_cast<std::size_t>(state.range(0));
  cfg.os_update_every = 0;
  SpotDetector det(cfg);
  det.Learn(bench::MakeTraining(dims, 500, /*concept=*/1100));
  Rng rng(4);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 1024; ++i) points.push_back(RandomPoint(rng, dims));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Process(points[i % points.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpotProcess)->Arg(32)->Arg(128)->Arg(512);

// The full per-point detection step through the batch API (chunks of
// state.range(1) points, SST frozen at state.range(0) subspaces). Compare
// items/s with BM_SpotProcess at the same SST size.
void BM_SpotProcessBatch(benchmark::State& state) {
  const int dims = 20;
  SpotConfig cfg = bench::ExperimentConfig(43);
  cfg.fs_cap = static_cast<std::size_t>(state.range(0));
  cfg.os_update_every = 0;
  SpotDetector det(cfg);
  det.Learn(bench::MakeTraining(dims, 500, /*concept=*/1100));
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  // Pre-built chunks: the benchmark measures detection, not batch assembly.
  Rng rng(4);
  std::vector<std::vector<DataPoint>> chunks(8);
  std::uint64_t id = 0;
  for (auto& chunk : chunks) {
    chunk.resize(batch);
    for (auto& p : chunk) {
      p.id = id++;
      p.values = RandomPoint(rng, dims);
    }
  }
  std::size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.ProcessBatch(chunks[pos % chunks.size()]));
    ++pos;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_SpotProcessBatch)
    ->Args({128, 64})
    ->Args({128, 256})
    ->Args({512, 64})
    ->Args({512, 256});

}  // namespace
}  // namespace spot

// Same `--json out.json` contract as the plain experiment binaries
// (bench_util.h JsonReporter), shimmed onto google-benchmark's native JSON
// reporter: the flag is rewritten to --benchmark_out before Initialize().
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--json" && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(sizeof("--json=") - 1);
    } else {
      args.push_back(arg);
      continue;
    }
    args.push_back("--benchmark_out=" + path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
