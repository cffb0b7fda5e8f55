#ifndef SPOT_GRID_SYNAPSE_MANAGER_H_
#define SPOT_GRID_SYNAPSE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "grid/base_grid.h"
#include "grid/decay.h"
#include "grid/flat_index.h"
#include "grid/partition.h"
#include "grid/pcs.h"
#include "grid/projected_grid.h"
#include "subspace/subspace.h"

namespace spot {

class CheckpointReader;
class CheckpointWriter;
class DetectorEventSink;

/// Owns the complete set of data synapses: the BaseGrid (BCS hypercube) plus
/// one ProjectedGrid per tracked SST subspace, all sharing one partition and
/// one (omega, epsilon) decay model.
///
/// This is the state the paper's detection stage updates per arrival
/// ("data synapses (BCS and PCS) are first updated dynamically") and then
/// queries ("retrieve PCS of the projected cell to which each data belongs
/// in subspace of SST").
///
/// Tracked grids live in a dense vector with a stable, deterministic order
/// (insertion order, perturbed only by Untrack's swap-remove);
/// TrackedSubspaces() and GridAt() report that order, so the sharded engine
/// iterates the grids without any per-subspace hash lookup.
class SynapseManager {
 public:
  SynapseManager(Partition partition, DecayModel model,
                 double prune_threshold = 1e-3,
                 std::uint64_t compaction_period = 4096);

  // Projected grids hold pointers into partition_, so the manager is pinned
  // in memory: neither copyable nor movable. Hold it via unique_ptr when a
  // movable handle is needed.
  SynapseManager(const SynapseManager&) = delete;
  SynapseManager& operator=(const SynapseManager&) = delete;
  SynapseManager(SynapseManager&&) = delete;
  SynapseManager& operator=(SynapseManager&&) = delete;

  /// Starts tracking a subspace (idempotent). New grids start empty; their
  /// summaries fill in as the stream flows.
  void Track(const Subspace& s);

  /// Stops tracking a subspace and frees its grid.
  void Untrack(const Subspace& s);

  bool IsTracked(const Subspace& s) const;

  /// Folds one point into the base grid and every tracked projected grid,
  /// advancing the clock to `tick` (non-decreasing). Learn() warm-starts
  /// the synapses with it, and Add + Query per point is the reference the
  /// engine's column kernel (SynapseShard::ProcessColumn) is tested
  /// against.
  void Add(const std::vector<double>& point, std::uint64_t tick);

  /// Bins `point` into base-cell coordinates (allocation-free once `out`
  /// has capacity). The sharded engine bins each point exactly once and
  /// shares the coordinates across every shard's grids.
  void BinBase(const std::vector<double>& point, CellCoords* out) const {
    partition_.BaseCellInto(point, out);
  }

  /// Folds one point into the base grid only — the sharded engine fans the
  /// projected-grid updates out to shard workers — and returns the decayed
  /// total stream weight right after the fold, which is the authoritative W
  /// that every subspace query for this point must use. `hash` is the value
  /// BaseGrid::PrefetchCoords staged one point ahead, so the batch path
  /// hashes each base cell exactly once.
  double AddBase(const CellCoords& coords, std::uint64_t hash,
                 const std::vector<double>& point, std::uint64_t tick);

  /// PCS of `point`'s cell in tracked subspace `s` (PCS{} if untracked).
  Pcs Query(const std::vector<double>& point, const Subspace& s) const;

  /// Decayed total stream weight at the current tick.
  double TotalWeight() const { return base_.TotalWeight(); }

  std::uint64_t last_tick() const { return base_.last_tick(); }
  const Partition& partition() const { return partition_; }
  const DecayModel& decay_model() const { return model_; }
  const BaseGrid& base_grid() const { return base_; }

  /// Tracked subspaces in dense (iteration) order — the order verdict
  /// findings are assembled in.
  std::vector<Subspace> TrackedSubspaces() const;

  std::size_t NumTracked() const { return grids_.size(); }

  /// Grid and subspace at dense index `i` (i < NumTracked()). The mutable
  /// grid pointer is what SynapseShard views borrow; it is invalidated by
  /// Untrack of that subspace (shard views resync via revision()).
  ProjectedGrid* GridAt(std::size_t i) { return grids_[i].grid.get(); }
  const Subspace& SubspaceAt(std::size_t i) const {
    return grids_[i].subspace;
  }

  /// Unique, monotonically increasing id of the grid at dense index `i`,
  /// assigned at Track time. Lets shard views tell a re-tracked (fresh,
  /// empty) grid apart from the grid they last saw for the same subspace
  /// even when the allocator reuses the old grid's address.
  std::uint64_t SerialAt(std::size_t i) const { return grids_[i].serial; }

  /// Bumped by every Track/Untrack that changes the tracked set. Shard
  /// views compare revisions to decide when to resync their grid slices.
  std::uint64_t revision() const { return revision_; }

  /// Total populated projected cells across all tracked grids (memory
  /// proxy reported by the scalability experiments).
  std::size_t TotalPopulatedCells() const;

  /// Slab occupancy across the base grid and every tracked grid: total
  /// allocated record slots and how many of them sit on free lists.
  /// Scrape-time gauges (DESIGN.md Section 10) — never on the hot path.
  std::size_t TotalSlabSlots() const;
  std::size_t TotalFreeSlots() const;

  /// Compaction sweeps run (and cells they reclaimed) across the base grid
  /// and every tracked grid since construction. Monotone except when
  /// Untrack frees a grid, taking its contribution with it — consumers
  /// sampling deltas (the service's journal) clamp at zero.
  std::uint64_t TotalCompactions() const;
  std::uint64_t TotalCellsReclaimed() const;

  /// Attaches an observability sink (borrowed; nullptr detaches):
  /// Track/Untrack emit kSubspaceTracked/kSubspaceUntracked with the grid
  /// serial / revision. LoadState rebuilds the tracked set without events.
  /// Pure reporting; grid state never depends on the sink.
  void set_event_sink(DetectorEventSink* sink) { sink_ = sink; }

  /// Compacts the base grid and every projected grid at `tick`.
  std::size_t CompactAll(std::uint64_t tick);

  /// Cell lookups (hashed or direct) performed by the tracked grids so far
  /// (see ProjectedGrid::hash_probes); the E11 micro-bench and the hot-path
  /// budget test read this to pin one probe per tracked subspace per point.
  std::uint64_t hash_probes() const;

  /// Checkpointing: the base grid, every tracked projected grid — in dense
  /// order, with per-grid serials — and the revision counter round-trip,
  /// so the restored manager reports the same tracked order (verdict
  /// `findings` are assembled in it) and shard views resync identically.
  /// Partition, decay model and maintenance knobs come from the
  /// constructor; LoadState validates the stored decay parameters against
  /// them and fails on mismatch.
  void SaveState(CheckpointWriter& w) const;
  bool LoadState(CheckpointReader& r);

 private:
  struct TrackedGrid {
    Subspace subspace;
    std::uint64_t serial = 0;
    std::unique_ptr<ProjectedGrid> grid;
  };

  /// Dense index of `s` in grids_, or FlatIndex::kNoValue when untracked.
  std::uint32_t IndexOf(const Subspace& s) const;

  Partition partition_;
  DecayModel model_;
  double prune_threshold_;
  std::uint64_t compaction_period_;
  BaseGrid base_;
  std::vector<TrackedGrid> grids_;  // dense, iterated on the hot path
  FlatIndex by_subspace_;    // subspace mask (2 words) -> dense grid index
  CellCoords base_scratch_;  // base-cell coords, binned once per point
  std::uint64_t revision_ = 0;
  DetectorEventSink* sink_ = nullptr;
};

}  // namespace spot

#endif  // SPOT_GRID_SYNAPSE_MANAGER_H_
