#ifndef SPOT_GRID_PROJECTED_GRID_H_
#define SPOT_GRID_PROJECTED_GRID_H_

#include <cstdint>
#include <vector>

#include "grid/decay.h"
#include "grid/flat_index.h"
#include "grid/partition.h"
#include "grid/pcs.h"
#include "subspace/subspace.h"

namespace spot {

class CheckpointReader;
class CheckpointWriter;

/// Sparse grid of decayed cell aggregates for a single subspace of the SST.
///
/// Mirrors BaseGrid but keyed by projected-cell coordinates, and able to
/// answer PCS queries. One ProjectedGrid exists per SST subspace; the
/// per-arrival update cost is O(|s|) plus one hash probe, which is what lets
/// SPOT keep up with fast streams.
///
/// Storage is a slab: one contiguous arena of fixed-stride records
///
///     [count, ls[0..k), ss[0..k), last_tick]     (stride = 2k + 2)
///
/// indexed by a FlatIndex (CellCoords -> slot: a plain array when the
/// subspace has at most FlatIndex::kDirectMaxCells cells, else an
/// open-addressing table with inline keys, DESIGN.md Section 3.9), with a
/// free list recycling the slots of pruned cells. Cell updates and queries
/// therefore touch one contiguous record and never allocate per cell
/// (DESIGN.md Section 3.5).
/// Ticks are stored as doubles, exact for streams shorter than 2^53 points.
///
/// The batch probe pipeline: callers that update many grids per point (the
/// SynapseManager hot path) or many points per grid (the shard fold) split
/// each probe into PrefetchCoords — hash once, prefetch the home bucket —
/// and AddAndQueryCoords — execute the fused update+query with the staged
/// hash — so independent probes overlap their cache misses instead of
/// serializing them.
///
/// Threading: a grid instance is single-threaded. Update paths reuse a
/// coordinate scratch buffer, and every probe (including const queries)
/// bumps the hash_probes() counter, so concurrent access — even concurrent
/// const queries — is a data race. Shard whole grids across threads via the
/// sharded engine instead, which gives each grid exactly one owning worker
/// (DESIGN.md Section 3.8).
class ProjectedGrid {
 public:
  ProjectedGrid(Subspace subspace, const Partition* partition,
                DecayModel model, double prune_threshold = 1e-3,
                std::uint64_t compaction_period = 4096);

  /// Folds a full-dimensional point in at tick `tick` (non-decreasing).
  void Add(const std::vector<double>& point, std::uint64_t tick);

  /// Fused update + query: folds `point` in at `tick` and returns the PCS of
  /// its (just-updated) cell against `total_weight`, from the same slot
  /// lookup — one hash probe where Add() followed by Query() costs two.
  Pcs AddAndQuery(const std::vector<double>& point, std::uint64_t tick,
                  double total_weight);

  /// Fused update + query from precomputed *base-cell* coordinates: the
  /// projected coordinates are selected from `base` by dimension index
  /// instead of re-binning the raw values. `point` still supplies the raw
  /// values folded into the linear/squared sums. This is the batch hot path:
  /// the caller bins the full-dimensional point once and every subspace grid
  /// reuses it.
  Pcs AddAndQueryAt(const CellCoords& base, const std::vector<double>& point,
                    std::uint64_t tick, double total_weight);

  /// Update-only variant of AddAndQueryAt.
  void AddAt(const CellCoords& base, const std::vector<double>& point,
             std::uint64_t tick);

  // --- Batch probe pipeline (pass 1 / pass 2) ----------------------------

  /// Projects base-cell coordinates onto this grid's subspace into `out`
  /// (resized as needed) — the caller-owned staging buffer of the probe
  /// pipeline.
  void ProjectBaseInto(const CellCoords& base, CellCoords* out) const {
    out->resize(dims_.size());
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      (*out)[i] = base[static_cast<std::size_t>(dims_[i])];
    }
  }

  /// Pass 1: hashes caller-projected coordinates once (FlatIndex::Hash —
  /// the cell id when the index is direct-addressed) and prefetches their
  /// home bucket. Returns the hash for the matching AddAndQueryCoords call.
  /// Purely a cache hint — performs no probe and bumps no counter.
  std::uint64_t PrefetchCoords(const CellCoords& coords) const {
    const std::uint64_t hash = index_.Hash(coords);
    index_.Prefetch(hash);
    return hash;
  }

  /// Pass 2: fused update + query from caller-projected coordinates and
  /// their PrefetchCoords hash — the hash is computed exactly once per
  /// probe across the whole pipeline.
  Pcs AddAndQueryCoords(const CellCoords& coords, std::uint64_t hash,
                        const std::vector<double>& point, std::uint64_t tick,
                        double total_weight);

  /// PCS of the cell containing `point`, computed against the decayed total
  /// weight `total_weight` of the stream (supplied by the caller so every
  /// subspace grid shares one authoritative W). An unpopulated cell yields
  /// PCS{rd=0, irsd=0, count=0} — maximally sparse.
  ///
  /// RD is the cell's decayed count relative to the *count-weighted average
  /// cell mass* of this subspace: RD = D_c * W / sum_i(D_i^2). Weighting by
  /// count makes the reference robust to swarms of nearly-empty decayed
  /// cells, and sum_i(D_i^2) decays by alpha^(2*delta) per tick, so it stays
  /// incrementally maintainable (DESIGN.md Section 3.3).
  Pcs Query(const std::vector<double>& point, double total_weight) const;

  /// PCS from explicit projected coordinates.
  Pcs QueryCoords(const CellCoords& coords, double total_weight) const;

  /// Removes cells whose decayed count at `tick` is below the prune
  /// threshold; returns the number removed. Freed slots go on the free list
  /// and are recycled by later inserts — the slab itself never shrinks.
  std::size_t Compact(std::uint64_t tick);

  const Subspace& subspace() const { return subspace_; }
  std::size_t PopulatedCells() const { return index_.size(); }
  std::uint64_t last_tick() const { return last_tick_; }

  /// Decayed sum of squared cell counts (see Query): the basis of the
  /// count-weighted average cell mass that RD is measured against.
  double SumSqAt(std::uint64_t tick) const;

  /// True when the cell at `coords` (holding `cell_count` decayed weight)
  /// has a neighboring cell at Chebyshev distance 1 whose decayed count is
  /// at least `factor * max(1, cell_count)` — i.e. the cell is the *fringe*
  /// of a dense cluster rather than a genuinely isolated region. The
  /// detection stage uses this to veto sparse-cell findings that are merely
  /// cluster tails (DESIGN.md Section 3.4, fringe suppression).
  ///
  /// The full Moore neighborhood (3^|s|-1 probes) is scanned for subspaces
  /// of dimension <= 3; beyond that only axis-aligned neighbors (2|s|) are
  /// probed to bound the cost. `coords` has this grid's width; the scan
  /// allocates nothing.
  bool IsClusterFringe(const CellCoords& coords, double cell_count,
                       double factor) const;

  // --- Slab introspection (tests, capacity planning) ---------------------

  /// Total record slots ever allocated in the slab (live + free).
  std::size_t SlabSlots() const { return slab_.size() / stride_; }

  /// Slots currently on the free list, awaiting recycling.
  std::size_t FreeSlots() const { return free_slots_.size(); }

  /// Cell lookups performed so far (Add / Query / fused / fringe), hashed
  /// and direct-addressed alike: the value is checkpointed, so it counts
  /// lookups, not mixer calls. The fused path costs one probe per point
  /// where Add+Query costs two. Prefetches are hints, not probes, and are
  /// not counted — the pipeline leaves this trajectory identical to the
  /// unpipelined path.
  std::uint64_t hash_probes() const { return hash_probes_; }

  /// Compaction sweeps run, and cells they reclaimed, since construction.
  /// Observability counters only: unlike hash_probes they are NOT
  /// checkpointed (the journal samples deltas; a restored grid restarts
  /// them at zero without changing any serialized byte).
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t cells_reclaimed() const { return cells_reclaimed_; }

  /// Checkpointing: live cell records (in sorted coordinate order, so equal
  /// grids serialize byte-identically), the clock, the incremental
  /// squared-count sum and the compaction cadence all round-trip exactly.
  /// Slot numbering, the free list and the flat index's bucket layout are
  /// *not* preserved — they are storage bookkeeping with no observable
  /// effect (LoadState rebuilds a dense slab from the sorted stream; every
  /// verdict-relevant computation is keyed by cell coordinates or iterated
  /// in a coordinate-canonical order).
  void SaveState(CheckpointWriter& w) const;
  bool LoadState(CheckpointReader& r);

 private:
  // Record field offsets within a slot: [kCount | ls x k | ss x k | tick].
  static constexpr std::size_t kCount = 0;
  std::size_t LsOff() const { return 1; }
  std::size_t SsOff() const { return 1 + dims_.size(); }
  std::size_t TickOff() const { return 1 + 2 * dims_.size(); }

  double* Record(std::uint32_t slot) {
    return slab_.data() + static_cast<std::size_t>(slot) * stride_;
  }
  const double* Record(std::uint32_t slot) const {
    return slab_.data() + static_cast<std::size_t>(slot) * stride_;
  }

  /// Decays every aggregate of `rec` in place to `tick`.
  void DecayRecord(double* rec, std::uint64_t tick) const;

  /// Slot of the cell at `coords` (whose hash is `hash`), allocating (from
  /// the free list, else by growing the slab) when absent. One hash probe.
  std::uint32_t UpsertSlot(const CellCoords& coords, std::uint64_t hash,
                           std::uint64_t tick);

  /// Fused core shared by every update entry point: upserts the cell of
  /// `coords`, decays it, folds `point` in, and returns its record.
  double* FoldPoint(const CellCoords& coords, std::uint64_t hash,
                    const std::vector<double>& point, std::uint64_t tick);

  /// PCS of a record whose stored aggregates are `factor` away from being
  /// current (factor = alpha^(last_tick_ - record tick); 1 when fresh).
  Pcs PcsFromRecord(const double* rec, double factor,
                    double total_weight) const;

  /// Fills coords_scratch_ by re-binning `point`.
  void BinPoint(const std::vector<double>& point);

  /// Fills coords_scratch_ by index-selecting from base-cell coords.
  void ProjectBase(const CellCoords& base);

  void MaybeCompact(std::uint64_t tick);

  Subspace subspace_;
  std::vector<int> dims_;          // cached subspace.Indices()
  std::vector<double> sigma_uniform_;  // per retained dim: width / sqrt(12)
  const Partition* partition_;     // not owned
  DecayModel model_;
  double prune_threshold_;
  std::uint64_t compaction_period_;
  std::uint64_t arrivals_since_compaction_ = 0;
  std::uint64_t last_tick_ = 0;
  // Sum over cells of (decayed count)^2, maintained lazily: every cell
  // decays by the same alpha^delta, so the sum decays by alpha^(2*delta).
  double sumsq_ = 0.0;
  std::uint64_t sumsq_tick_ = 0;

  std::size_t stride_;                   // doubles per record: 2|s| + 2
  std::vector<double> slab_;             // record arena
  std::vector<std::uint32_t> free_slots_;
  FlatIndex index_;                      // coords -> slot, keys inline
  CellCoords coords_scratch_;            // reused across update calls
  mutable std::uint64_t hash_probes_ = 0;
  std::uint64_t compactions_ = 0;        // not checkpointed (see accessor)
  std::uint64_t cells_reclaimed_ = 0;
};

}  // namespace spot

#endif  // SPOT_GRID_PROJECTED_GRID_H_
