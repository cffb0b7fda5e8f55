#ifndef SPOT_LEARNING_SST_H_
#define SPOT_LEARNING_SST_H_

#include <cstddef>
#include <string>
#include <vector>

#include "subspace/subspace.h"
#include "subspace/subspace_set.h"

namespace spot {

class ByteReader;
class ByteWriter;
class DetectorEventSink;

/// Which SST subset a subspace belongs to.
enum class SstSubset { kFixed, kClustering, kOutlierDriven };

/// Sparse Subspace Template (paper, Section II-C): the set of subspaces in
/// which every streaming point is checked for outlier-ness. Union of three
/// mutually supplementing subsets:
///
///  * FS — Fixed SST Subspaces: the full lattice up to MaxDimension.
///    Static; guarantees low-dimensional coverage.
///  * CS — Clustering-based SST Subspaces: top sparse subspaces of the most
///    outlying training points (unsupervised learning). Capacity-bounded,
///    re-ranked and regenerated online (self-evolution).
///  * OS — Outlier-driven SST Subspaces: top sparse subspaces of expert-
///    provided outlier examples, and of every outlier detected online.
///    Capacity-bounded with worst-score eviction.
class Sst {
 public:
  Sst(std::size_t cs_capacity, std::size_t os_capacity);

  /// Replaces FS wholesale (built once from the lattice).
  void SetFixed(std::vector<Subspace> fs);

  /// Inserts into CS with a sparsity score (lower = better); evicts the
  /// worst member when over capacity. No-op for subspaces already in FS.
  void AddClustering(const Subspace& s, double score);

  /// Inserts into OS with a sparsity score; eviction as above. No-op for
  /// subspaces already in FS.
  void AddOutlierDriven(const Subspace& s, double score);

  /// Clears CS (used when drift forces relearning).
  void ClearClustering();

  /// Every distinct subspace of FS ∪ CS ∪ OS, in a *content-deterministic*
  /// order (FS in insertion order, then CS and OS by rank): two SSTs with
  /// equal contents enumerate identically regardless of the insertion /
  /// eviction history of their hash sets. The detector's subspace-tracking
  /// sync consumes this order, so it is what keeps a checkpoint-restored
  /// run tracking new grids in exactly the sequence an uninterrupted run
  /// would (DESIGN.md Section 4.3).
  std::vector<Subspace> AllSubspaces() const;

  /// True when `s` is in any subset.
  bool Contains(const Subspace& s) const;

  const std::vector<Subspace>& fixed() const { return fs_; }
  const RankedSubspaceSet& clustering() const { return cs_; }
  const RankedSubspaceSet& outlier_driven() const { return os_; }

  /// Mutable access for re-ranking during self-evolution.
  RankedSubspaceSet& mutable_clustering() { return cs_; }

  std::size_t TotalSize() const;

  /// Multi-line human-readable summary.
  std::string Summary() const;

  /// Checkpointing: FS membership plus the scored CS/OS members (in rank
  /// order) round-trip. Capacities come from the constructor; LoadState
  /// validates the stored member counts against them.
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

  /// Attaches an observability sink (borrowed; nullptr detaches): genuine
  /// CS/OS additions emit kSstInsert, ClearClustering emits kSstClear.
  /// LoadState restores members without events — a checkpoint restore is
  /// not churn. Pure reporting; SST contents never depend on the sink.
  void set_event_sink(DetectorEventSink* sink) { sink_ = sink; }

 private:
  bool InFixed(const Subspace& s) const;

  std::vector<Subspace> fs_;
  RankedSubspaceSet cs_;
  RankedSubspaceSet os_;
  DetectorEventSink* sink_ = nullptr;
};

}  // namespace spot

#endif  // SPOT_LEARNING_SST_H_
