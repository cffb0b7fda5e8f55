#include "grid/synapse_shard.h"

#include <utility>

namespace spot {

std::size_t SynapseShard::ProcessRun(const std::vector<ShardColumn>& columns,
                                     std::size_t k, std::size_t num_shards,
                                     const BatchFrame& frame,
                                     std::size_t begin, std::size_t end,
                                     const ShardRunParams& params) {
  ColumnScratch scratch;
  std::size_t grids = 0;
  for (std::size_t i = k; i < columns.size(); i += num_shards, ++grids) {
    ProcessColumn(columns[i], frame, begin, end, params, &scratch);
  }
  return grids;
}

void SynapseShard::ProcessColumn(const ShardColumn& column,
                                 const BatchFrame& frame,
                                 std::size_t begin, std::size_t end,
                                 const ShardRunParams& params,
                                 ColumnScratch* scratch) {
  if (begin >= end) return;
  ProjectedGrid& grid = *column.grid;

  // Software-pipelined batch probe: while point j's fused update+query
  // executes, point j+1's projected coordinates are already hashed and its
  // index bucket prefetched — consecutive probes against the same grid
  // overlap their cache misses instead of serializing (the prefetched
  // address can go stale across a rehash; that only costs the hint).
  // ProjectBaseInto sizes the buffers to the grid's own width.
  CellCoords& cur = scratch->cur;
  CellCoords& next = scratch->next;
  grid.ProjectBaseInto(frame.base_coords[begin], &cur);
  std::uint64_t cur_hash = grid.PrefetchCoords(cur);
  for (std::size_t j = begin; j < end; ++j) {
    std::uint64_t next_hash = 0;
    if (j + 1 < end) {
      grid.ProjectBaseInto(frame.base_coords[j + 1], &next);
      next_hash = grid.PrefetchCoords(next);
    }
    const std::vector<double>& values = frame.points[j].values;
    const Pcs pcs = grid.AddAndQueryCoords(cur, cur_hash, values,
                                           frame.ticks[j],
                                           frame.total_weights[j]);
    column.pcs[j] = pcs;
    // The fringe neighborhood is probed only for sparse cells, against the
    // grid state with points <= j folded in (the next point is not added
    // until this verdict is recorded).
    bool veto = false;
    if (params.fringe_factor > 0.0 &&
        pcs.IsSparse(params.rd_threshold, params.irsd_threshold)) {
      veto = grid.IsClusterFringe(cur, pcs.count, params.fringe_factor);
    }
    column.vetoed[j] = veto ? 1 : 0;
    std::swap(cur, next);
    cur_hash = next_hash;
  }
}

}  // namespace spot
