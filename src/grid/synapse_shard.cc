#include "grid/synapse_shard.h"

namespace spot {

std::size_t SynapseShard::ProcessRun(const std::vector<ShardColumn>& columns,
                                     std::size_t k, std::size_t num_shards,
                                     const BatchFrame& frame,
                                     std::size_t begin, std::size_t end,
                                     const ShardRunParams& params) {
  CellCoords coords;
  std::size_t grids = 0;
  for (std::size_t i = k; i < columns.size(); i += num_shards, ++grids) {
    ProcessColumn(columns[i], frame, begin, end, params, &coords);
  }
  return grids;
}

void SynapseShard::ProcessColumn(const ShardColumn& column,
                                 const BatchFrame& frame,
                                 std::size_t begin, std::size_t end,
                                 const ShardRunParams& params,
                                 CellCoords* coords) {
  ProjectedGrid& grid = *column.grid;
  for (std::size_t j = begin; j < end; ++j) {
    grid.ProjectBaseInto(frame.BaseRow(j), coords);
    const Pcs pcs = grid.AddAndQueryCoords(*coords, frame.points[j].values,
                                           frame.first_tick + j,
                                           frame.total_weights[j]);
    column.pcs[j] = pcs;
    // The fringe neighborhood is probed only for sparse cells, against the
    // grid state with points <= j folded in.
    const bool veto =
        params.fringe_factor > 0.0 &&
        pcs.IsSparse(params.rd_threshold, params.irsd_threshold) &&
        grid.IsClusterFringe(*coords, pcs.count, params.fringe_factor);
    column.vetoed[j] = veto ? 1 : 0;
  }
}

}  // namespace spot
