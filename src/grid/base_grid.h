#ifndef SPOT_GRID_BASE_GRID_H_
#define SPOT_GRID_BASE_GRID_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "grid/bcs.h"
#include "grid/decay.h"
#include "grid/flat_index.h"
#include "grid/partition.h"

namespace spot {

class ByteReader;
class ByteWriter;

/// Sparse hypercube of Base Cell Summaries at the finest granularity.
///
/// Only populated cells are materialized: summaries live densely in a
/// recycled-slot vector, located through a flat open-addressing coordinate
/// index (FlatIndex — one contiguous probe per lookup, DESIGN.md Section
/// 3.9). With decay, cells whose weight falls below `prune_threshold` are
/// reclaimed during periodic compaction, which bounds memory by the
/// effective window content rather than the stream length.
class BaseGrid {
 public:
  /// `prune_threshold`: decayed count below which a cell is dropped during
  /// compaction. `compaction_period`: number of arrivals between sweeps
  /// (0 disables automatic compaction).
  BaseGrid(Partition partition, DecayModel model,
           double prune_threshold = 1e-3,
           std::uint64_t compaction_period = 4096);

  /// Folds a point in at tick `tick` (non-decreasing), updating its base
  /// cell's BCS, the decayed total weight, and (periodically) compacting.
  void Add(const std::vector<double>& point, std::uint64_t tick);

  /// Add() with precomputed base-cell coordinates (the batch path bins each
  /// point once and shares the coordinates across all grids).
  void AddAt(const CellCoords& coords, const std::vector<double>& point,
             std::uint64_t tick) {
    AddAt(coords, index_.Hash(coords), point, tick);
  }

  /// AddAt() with the coordinate hash staged by PrefetchCoords — the batch
  /// pipeline hashes each base cell exactly once.
  void AddAt(const CellCoords& coords, std::uint64_t hash,
             const std::vector<double>& point, std::uint64_t tick);

  /// Prefetches the index bucket of `coords` and returns its hash for the
  /// matching AddAt — the batch path hints the next point's base cell while
  /// folding the current one, so consecutive AddAt misses overlap.
  std::uint64_t PrefetchCoords(const CellCoords& coords) const {
    const std::uint64_t hash = index_.Hash(coords);
    index_.Prefetch(hash);
    return hash;
  }

  /// BCS of the base cell containing `point`, or nullptr if unpopulated.
  const Bcs* Find(const std::vector<double>& point) const;

  /// BCS by explicit coordinates, or nullptr.
  const Bcs* FindByCoords(const CellCoords& coords) const;

  /// Decayed total stream weight as of the last Add().
  double TotalWeight() const;

  /// Number of materialized cells (after lazy pruning at compaction time).
  std::size_t PopulatedCells() const { return index_.size(); }

  /// Removes every cell whose decayed count (as of `tick`) is below the
  /// prune threshold. Returns the number of removed cells.
  std::size_t Compact(std::uint64_t tick);

  /// Cell-store occupancy: total summary slots ever allocated (live +
  /// free) and the slots currently awaiting recycling.
  std::size_t SlabSlots() const { return cell_bcs_.size(); }
  std::size_t FreeSlots() const { return free_cells_.size(); }

  /// Compaction sweeps run, and cells they reclaimed, since construction.
  /// Observability counters only — never checkpointed.
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t cells_reclaimed() const { return cells_reclaimed_; }

  std::uint64_t last_tick() const { return last_tick_; }
  const Partition& partition() const { return partition_; }
  const DecayModel& decay_model() const { return model_; }

  /// Every populated cell (coordinates + summary) in ascending coordinate
  /// order — the index's iteration order, which does not depend on
  /// insertion/erase history. This is the ONLY iteration surface the grid
  /// exposes (checkpointing, tests, diagnostics). Pointers are valid until
  /// the next mutating call.
  std::vector<std::pair<const CellCoords*, const Bcs*>> OrderedCells() const;

  /// Checkpointing: the populated cells (serialized in ascending coordinate
  /// order so equal grids produce byte-identical sections), the decayed
  /// total-weight counter, the clock and the compaction cadence all
  /// round-trip. Partition and decay model come from the constructor.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  Partition partition_;
  DecayModel model_;
  double prune_threshold_;
  std::uint64_t compaction_period_;
  std::uint64_t arrivals_since_compaction_ = 0;
  std::uint64_t last_tick_ = 0;
  DecayedCounter total_;
  // Dense recycled-slot cell store: coordinates and summaries parallel by
  // slot, located via the flat coordinate index; freed slots are reused.
  FlatIndex index_;
  std::vector<CellCoords> cell_coords_;
  std::vector<Bcs> cell_bcs_;
  std::vector<std::uint32_t> free_cells_;
  std::uint64_t compactions_ = 0;  // not checkpointed (see accessor)
  std::uint64_t cells_reclaimed_ = 0;
};

}  // namespace spot

#endif  // SPOT_GRID_BASE_GRID_H_
