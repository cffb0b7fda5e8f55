#ifndef SPOT_GRID_SYNAPSE_SHARD_H_
#define SPOT_GRID_SYNAPSE_SHARD_H_

#include <cstdint>
#include <vector>

#include "grid/partition.h"
#include "grid/pcs.h"
#include "grid/projected_grid.h"
#include "stream/data_point.h"
#include "subspace/subspace.h"

namespace spot {

/// The per-tile inputs every shard shares read-only: the points, their
/// base cells (binned once by the coordinator), the tick of the first point,
/// and the decayed total stream weight right after each point's arrival is
/// folded in — the authoritative W that every subspace query for that point
/// uses. Point j arrives at tick first_tick + j; its base cell is row j of
/// the row-major n x width array `base_cells` (width = the partition's
/// attribute count), and total_weights[j] is its W.
struct BatchFrame {
  const DataPoint* points = nullptr;
  std::size_t width = 0;
  std::uint64_t first_tick = 0;
  std::vector<std::uint32_t> base_cells;
  std::vector<double> total_weights;

  /// Base cell of point j: `width` interval indices, one per attribute.
  const std::uint32_t* BaseRow(std::size_t j) const {
    return base_cells.data() + j * width;
  }
};

/// One subspace's output lane of a batch run: the PCS of every point's cell
/// in this subspace, plus the fringe-veto verdicts. The lanes point into
/// storage the caller owns (the engine's per-tile arrays). Exactly one
/// shard worker writes a column; the coordinating thread reads it only
/// after the workers have been joined.
struct ShardColumn {
  Subspace subspace;
  ProjectedGrid* grid = nullptr;  // borrowed from SynapseManager
  std::uint64_t serial = 0;       // SynapseManager::SerialAt of `grid`
  Pcs* pcs = nullptr;             // pcs[j] = PCS of point j in `subspace`
  unsigned char* vetoed = nullptr;  // fringe-vetoed sparse findings
};

/// Detection thresholds a shard run needs to decide, per (point, subspace),
/// whether the fringe neighborhood must be probed.
struct ShardRunParams {
  double rd_threshold = 0.0;
  double irsd_threshold = 0.0;
  double fringe_factor = 0.0;
};

/// The column kernel of the tiled batch loop. Shard k of K owns the batch
/// columns at dense indices k, k + K, k + 2K, ... — the manager's dense
/// grid order sliced round-robin — and folds the whole batch into each of
/// them on one worker thread.
///
/// A shard does not own grid storage: it borrows ProjectedGrid pointers
/// from the manager's dense list, and the detector re-slices its columns
/// whenever the tracked set changes — Track/Untrack from OS growth,
/// self-evolution, or drift relearning — which it detects via
/// SynapseManager::revision().
///
/// Determinism: a ProjectedGrid's state depends only on its own input
/// sequence (coordinates, ticks, per-point total weights), never on sibling
/// grids. Each grid is updated by exactly one shard, in arrival order, with
/// the ticks and weights of per-point SynapseManager::Add — so every cell
/// aggregate, compaction sweep, PCS and fringe verdict is bit-identical at
/// every shard count and batch size.
class SynapseShard {
 public:
  /// Shard `k` of `num_shards`: folds points [begin, end) of the frame into
  /// every column it owns in `columns`, in arrival order, recording
  /// per-(subspace, point) PCS and fringe verdicts. Returns the number of
  /// grids it folded.
  static std::size_t ProcessRun(const std::vector<ShardColumn>& columns,
                                std::size_t k, std::size_t num_shards,
                                const BatchFrame& frame, std::size_t begin,
                                std::size_t end,
                                const ShardRunParams& params);

  /// One column's share of a run — also used directly by the detector to
  /// replay the rest of a tile into grids tracked mid-tile. A plain loop
  /// over the points: project the point's base-cell row into `coords`,
  /// make one fused fold + query probe, and scan the fringe only when the
  /// cell is sparse. `coords` is the caller's buffer, reused across
  /// columns, so the kernel allocates nothing once it has grown to the
  /// widest subspace.
  static void ProcessColumn(const ShardColumn& column,
                            const BatchFrame& frame,
                            std::size_t begin, std::size_t end,
                            const ShardRunParams& params, CellCoords* coords);
};

}  // namespace spot

#endif  // SPOT_GRID_SYNAPSE_SHARD_H_
