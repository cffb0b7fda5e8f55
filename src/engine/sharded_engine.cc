// SpotDetector's tiled batch loop (DESIGN.md Section 3.8): one tile's bin
// pass, shard fan-out and serial join, and the helpers they share.

#include <algorithm>
#include <unordered_map>

#include "common/math_util.h"
#include "core/detector.h"
#include "engine/thread_pool.h"
#include "grid/synapse_manager.h"
#include "grid/synapse_shard.h"
#include "obs/stage.h"

namespace spot {

namespace {

/// Runs job(0..jobs) on `pool`, or inline on the calling thread without one.
template <typename Job>
void ForkJoin(ThreadPool* pool, std::size_t jobs, const Job& job) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < jobs; ++i) job(i);
  } else {
    pool->Dispatch(jobs, job);
  }
}

/// One tile's output columns, in the manager's dense tracked order. Column
/// i's lanes are entries [i*n, (i+1)*n) of two flat arrays, so building the
/// columns costs three allocations however many grids are tracked. Moving
/// the struct keeps every lane pointer valid.
struct TileColumns {
  std::vector<ShardColumn> columns;
  std::vector<Pcs> pcs;
  std::vector<unsigned char> vetoed;

  TileColumns(SynapseManager& synapses, std::size_t n) {
    const std::size_t tracked = synapses.NumTracked();
    columns.resize(tracked);
    pcs.resize(tracked * n);
    vetoed.resize(tracked * n);
    for (std::size_t i = 0; i < tracked; ++i) {
      columns[i] = {synapses.SubspaceAt(i), synapses.GridAt(i),
                    synapses.SerialAt(i), pcs.data() + i * n,
                    vetoed.data() + i * n};
    }
  }
};

/// Rebuilds `cols` against the manager's tracked set after a mid-tile
/// Track/Untrack. A column whose grid survived — same serial, which also
/// tells a re-tracked (fresh, empty) grid apart from the one it replaced —
/// keeps its lanes. Every other grid was tracked at the event point: its
/// dense index is appended to `fresh` for the caller to replay.
void Resync(SynapseManager& synapses, std::size_t n, TileColumns* cols,
            std::vector<std::size_t>* fresh) {
  TileColumns rebuilt(synapses, n);
  std::unordered_map<std::uint64_t, const ShardColumn*> survivors;
  for (const ShardColumn& column : cols->columns) {
    survivors.emplace(column.serial, &column);
  }
  for (std::size_t i = 0; i < rebuilt.columns.size(); ++i) {
    const ShardColumn& column = rebuilt.columns[i];
    const auto it = survivors.find(column.serial);
    if (it == survivors.end()) {
      fresh->push_back(i);
      continue;
    }
    std::copy_n(it->second->pcs, n, column.pcs);
    std::copy_n(it->second->vetoed, n, column.vetoed);
  }
  *cols = std::move(rebuilt);
}

}  // namespace

void SpotDetector::ProcessTile(const DataPoint* points, std::size_t n,
                               std::size_t num_shards, ThreadPool* pool,
                               std::vector<SpotResult>* results) {
  SynapseManager& synapses = *synapses_;
  const Partition& partition = synapses.partition();
  const ShardRunParams params{config_.rd_threshold, config_.irsd_threshold,
                              config_.fringe_factor};
  const bool first_tile = results->empty();

  // Phase 0 — coordinator: bin each point once, into its row of the
  // frame, and fold its arrival into the single-owner total-weight
  // counter, snapshotting the per-point W. The counter never depends on
  // the tracked set, so it can run ahead of the join; every weight is
  // exactly the W a per-point fold would read.
  BatchFrame frame;
  {
    obs::Stage bin(nullptr, &stage_record_.bin.perf);
    bin.set_units(n);
    frame.points = points;
    frame.width = static_cast<std::size_t>(partition.num_dims());
    frame.first_tick = tick_;
    frame.base_cells.resize(n * frame.width);
    frame.total_weights.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      partition.BaseCellInto(points[j].values,
                             frame.base_cells.data() + j * frame.width);
      frame.total_weights[j] = synapses.AddBase(frame.first_tick + j);
    }
    bin.Commit();
    if (first_tile) stage_record_.bin.start_us = bin.start_us();
  }

  // Phase 1 — fan the per-subspace work out to the shards. Each worker
  // measures its window, and its own CPU time, into its own record
  // entry — no contention; the join happens before anyone reads them.
  // The tail replays below are deliberately unmeasured: they are rare
  // correction work, not the steady-state probe cost.
  TileColumns cols(synapses, n);
  ForkJoin(pool, num_shards, [&](std::size_t k) {
    StageEntry& entry = stage_record_.probes[k];
    obs::Stage probe(nullptr, &entry.perf);
    const std::size_t grids = SynapseShard::ProcessRun(
        cols.columns, k, num_shards, frame, 0, n, params);
    probe.set_units(n * grids);  // logical probes
    probe.Commit();
    if (first_tile) entry.start_us = probe.start_us();
  });

  // Phase 2 — serial join in arrival order, with the side-effect machinery
  // (reservoir, OS growth, self-evolution, drift) running at each point's
  // tick.
  std::uint64_t revision = synapses.revision();
  std::vector<std::size_t> fresh;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t tick = frame.first_tick + j;
    // The detector clock passes each point as its verdict joins, so the
    // events its side effects emit carry that point's tick.
    tick_ = tick + 1;
    AddToReservoir(points[j].values);
    SpotResult result;
    double min_rd = 1.0;
    for (const ShardColumn& column : cols.columns) {
      const Pcs& pcs = column.pcs[j];
      min_rd = std::min(min_rd, pcs.rd);
      if (pcs.IsSparse(config_.rd_threshold, config_.irsd_threshold) &&
          column.vetoed[j] == 0) {
        result.findings.push_back({column.subspace, pcs});
      }
    }
    result.is_outlier = !result.findings.empty();
    result.score = Clamp(1.0 - min_rd, 0.0, 1.0);

    ApplyPointSideEffects(points[j].id, tick, points[j].values, result);

    if (synapses.revision() != revision) {
      // The tracked set changed (OS growth, self-evolution or drift
      // relearning): rebuild the columns and replay the tile's tail into
      // the newly tracked grids — they start empty at this event point,
      // exactly as per-point processing would leave them.
      revision = synapses.revision();
      fresh.clear();
      Resync(synapses, n, &cols, &fresh);
      const std::size_t begin = j + 1;
      if (begin < n) {
        ForkJoin(pool, fresh.size(), [&](std::size_t f) {
          CellCoords coords;
          SynapseShard::ProcessColumn(cols.columns[fresh[f]], frame, begin,
                                      n, params, &coords);
        });
      }
    }
    results->push_back(std::move(result));
  }
}

}  // namespace spot
