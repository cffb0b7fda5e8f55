#ifndef SPOT_MOGA_OBJECTIVES_H_
#define SPOT_MOGA_OBJECTIVES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "grid/flat_index.h"
#include "grid/partition.h"
#include "subspace/subspace.h"

namespace spot {

/// Number of objectives a candidate subspace is scored on.
inline constexpr std::size_t kNumObjectives = 3;

/// The objective values of a candidate subspace, all to be *minimized*:
/// mean RD, mean IRSD and |s| (see BatchSparsityObjectives).
struct ObjectiveVector {
  std::array<double, kNumObjectives> values{};
};

/// Pareto dominance: `a` dominates `b` iff a is no worse in every objective
/// and strictly better in at least one (minimization).
bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b);

/// Sparsity objectives of a candidate subspace measured over a static batch
/// of points (the learning stage's training data, or the detection stage's
/// reservoir sample during self-evolution).
///
/// Objectives, all minimized:
///   f1 = mean over target points of RD of the point's projected cell
///   f2 = mean over target points of IRSD of the point's projected cell
///   f3 = |s| (prefer low-dimensional, interpretable outlying subspaces)
///
/// SPOT uses "multiple measurements" of outlier-ness (paper, Section III);
/// this is the one objective type every MOGA run searches against.
///
/// RD / IRSD use the same definitions as the online PCS (DESIGN.md 3.3),
/// computed over an un-decayed histogram of the batch. Evaluations are
/// memoized: MOGA revisits subspaces freely at no extra cost.
///
/// The kernel (DESIGN.md Section 2.1) bins the batch once, at construction:
/// every row's interval index in every attribute. An evaluation selects each
/// row's key from those bins, slots it through a FlatIndex (cells numbered
/// in first-seen order), folds count and sums into flat per-slot arrays in
/// row order, and computes a cell's IRSD once, when the first target lands
/// in it. The index and the arrays are reused across evaluations, so an
/// evaluation makes no allocation per row, and an object must not be shared
/// between threads.
class BatchSparsityObjectives {
 public:
  /// Rows are `*data`. `targets` restricts the points whose sparsity is
  /// averaged (empty = all points); the histogram is always built from the
  /// whole batch. Borrows `partition` and `data`: both must outlive this
  /// object, and `data` must not change while it lives.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>* data,
                          std::vector<std::size_t> targets = {});

  /// A targeted run: rows are `*sample` followed by `*target`, which is
  /// the last row and the only target. Borrows all three (no row is
  /// copied), under the same lifetime rule as above.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>* sample,
                          const std::vector<double>* target);

  /// Objective values of candidate subspace `s` (lower = sparser =
  /// better). The result is the memo table's entry: it stays valid, and
  /// unchanged, as long as this object lives.
  const ObjectiveVector& Evaluate(const Subspace& s);

  /// Scalarized sparsity score used for ranking SST members
  /// (RD-mean + IRSD-mean; dimension excluded). Lower is sparser.
  double SparsityScore(const Subspace& s);

  /// Appends every subspace evaluated so far, with its sparsity score: the
  /// search archive that FindTopSparse ranks.
  void AppendEvaluated(std::vector<std::pair<Subspace, double>>* out) const;

  /// Number of distinct subspaces evaluated so far (memoization hits do not
  /// count). Reported by the MOGA-vs-exhaustive experiment.
  std::size_t evaluation_count() const { return eval_count_; }

 private:
  /// Computes su_, bins every row in every attribute, and sizes the
  /// per-row scratch.
  void BinRows();
  /// IRSD of cell `slot` (count >= 2) over the `width` attributes `dims`.
  double CellIrsd(std::uint32_t slot, const int* dims,
                  std::size_t width) const;

  const Partition* partition_;
  std::vector<const double*> rows_;  // borrowed, in histogram order
  std::vector<std::size_t> targets_;
  std::size_t num_dims_ = 0;
  std::vector<std::uint32_t> bins_;  // interval index, row-major n x D
  std::vector<double> su_;           // CellWidth(d) / sqrt(12), by attribute

  // Evaluation scratch, reused: a cell index per key width, then by slot
  // the count, the IRSD (negative until computed) and 2 x |s| sums (linear,
  // then squared), and each row's slot.
  std::vector<std::optional<FlatIndex>> slot_index_;
  std::vector<double> count_;
  std::vector<double> irsd_;
  std::vector<double> sums_;
  std::vector<std::uint32_t> row_slot_;

  std::unordered_map<Subspace, ObjectiveVector, SubspaceHash> cache_;
  std::size_t eval_count_ = 0;
};

}  // namespace spot

#endif  // SPOT_MOGA_OBJECTIVES_H_
