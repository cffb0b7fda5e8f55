#ifndef SPOT_GRID_SYNAPSE_MANAGER_H_
#define SPOT_GRID_SYNAPSE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "grid/decay.h"
#include "grid/flat_index.h"
#include "grid/partition.h"
#include "grid/pcs.h"
#include "grid/projected_grid.h"
#include "subspace/subspace.h"

namespace spot {

class ByteReader;
class ByteWriter;
class DetectorEventSink;

/// Owns the complete set of data synapses: the decayed total stream weight W
/// plus one ProjectedGrid per tracked SST subspace, all sharing one
/// partition and one (omega, epsilon) decay model.
///
/// This is the state the paper's detection stage updates per arrival
/// ("data synapses (BCS and PCS) are first updated dynamically") and then
/// queries ("retrieve PCS of the projected cell to which each data belongs
/// in subspace of SST"). The paper's Base Cell Summaries are not
/// materialized: detection reads only W from the base level, so the base
/// level is one DecayedCounter, whose own tick is the manager's clock, and
/// new grids start empty instead of being derived from base cells
/// (DESIGN.md Section 3.2).
///
/// Tracked grids live in a dense vector with a stable, deterministic order
/// (insertion order, perturbed only by Untrack's swap-remove);
/// TrackedSubspaces() and GridAt() report that order, so the batch loop
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

  /// Folds one point into the total weight and every tracked projected
  /// grid, advancing the clock to `tick` (non-decreasing). Learn()
  /// warm-starts the synapses with it, and Add + Query per point is the
  /// reference the engine's column kernel (SynapseShard::ProcessColumn) is
  /// tested against.
  void Add(const std::vector<double>& point, std::uint64_t tick);

  /// Folds the arrival at `tick` into the total weight only — the batch
  /// loop fans the projected-grid updates out to shard workers — and
  /// returns the decayed total stream weight right after the fold, which is
  /// the authoritative W that every subspace query for this point must use.
  double AddBase(std::uint64_t tick) {
    total_.Observe(tick);
    return TotalWeight();
  }

  /// PCS of `point`'s cell in tracked subspace `s` (PCS{} if untracked).
  Pcs Query(const std::vector<double>& point, const Subspace& s) const;

  /// Decayed total stream weight at the current tick.
  double TotalWeight() const { return total_.WeightAt(total_.last_tick()); }

  std::uint64_t last_tick() const { return total_.last_tick(); }
  const Partition& partition() const { return partition_; }
  const DecayModel& decay_model() const { return model_; }

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

  /// Slab occupancy across every tracked grid: total allocated record slots
  /// and how many of them sit on free lists.
  /// Scrape-time gauges (DESIGN.md Section 10) — never on the hot path.
  std::size_t TotalSlabSlots() const;
  std::size_t TotalFreeSlots() const;

  /// Compaction sweeps run (and cells they reclaimed) across every tracked
  /// grid since construction. Monotone except when Untrack frees a grid,
  /// taking its contribution with it — consumers sampling deltas (the
  /// service's journal) clamp at zero.
  std::uint64_t TotalCompactions() const;
  std::uint64_t TotalCellsReclaimed() const;

  /// Attaches an observability sink (borrowed; nullptr detaches):
  /// Track/Untrack emit kSubspaceTracked/kSubspaceUntracked with the grid
  /// serial / revision. LoadState rebuilds the tracked set without events.
  /// Pure reporting; grid state never depends on the sink.
  void set_event_sink(DetectorEventSink* sink) { sink_ = sink; }

  /// Compacts every tracked grid at `tick`.
  std::size_t CompactAll(std::uint64_t tick);

  /// Cell lookups (hashed or direct) performed by the tracked grids so far
  /// (see ProjectedGrid::hash_probes); the E11 micro-bench and the hot-path
  /// budget test read this to pin one probe per tracked subspace per point.
  std::uint64_t hash_probes() const;

  /// Checkpointing: the total-weight counter, every tracked projected grid —
  /// in dense order, with per-grid serials — and the revision counter
  /// round-trip, so the restored manager reports the same tracked order
  /// (verdict `findings` are assembled in it) and shard views resync
  /// identically. Partition, decay model and maintenance knobs come from
  /// the constructor; LoadState validates the stored decay parameters
  /// against them and fails on mismatch.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

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
  DecayedCounter total_;  // W; points at model_, declared before it
  std::vector<TrackedGrid> grids_;  // dense, iterated on the hot path
  FlatIndex by_subspace_;    // subspace mask (2 words) -> dense grid index
  CellCoords base_scratch_;  // Add's base-cell row, one entry per attribute
  std::uint64_t revision_ = 0;
  DetectorEventSink* sink_ = nullptr;
};

}  // namespace spot

#endif  // SPOT_GRID_SYNAPSE_MANAGER_H_
