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

/// Most objective vectors a SparsityTable stores: 2^17, just above the
/// 128 x 1001 subspaces one search can meet at the MOGA caps (a population
/// of 128 over 1000 generations). A table shared by many searches therefore
/// holds no more values than one search's memo could. Past it, a histogram
/// pass scores only the group that asked and stores nothing.
inline constexpr std::size_t kMaxTableValues = std::size_t{1} << 17;

/// The points one search averages its sparsity over. Either rows of the
/// sample (a repeated row counts twice; empty means every row), or one row
/// `appended` to the sample, which is then the only target. An appended row
/// is scored as the last row of sample + row: it joins the histogram of its
/// own group only.
struct TargetGroup {
  std::vector<std::size_t> rows;
  const std::vector<double>* appended = nullptr;
};

/// Sparsity objectives of candidate subspaces measured over a static sample
/// (the learning stage's training data, or the detection stage's reservoir
/// sample), for every target group of the searches that score that sample.
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
/// computed over an un-decayed histogram of the sample.
///
/// The kernel (DESIGN.md Section 2.1) bins the sample once, at
/// construction: every row's interval index in every attribute. A pass
/// selects each row's key from those bins, slots it through a FlatIndex
/// (cells numbered in first-seen order), folds count and sums into flat
/// per-slot arrays in row order, and computes a cell's IRSD once, when the
/// first target lands in it. The index and the arrays are reused across
/// passes, so a pass makes no allocation per row, and a table must not be
/// shared between threads.
///
/// With more than one group, the first pass over a subspace scores every
/// group and stores the values, so every later search of the sample reads
/// its own group's value without re-binning a row: one pass per distinct
/// subspace per sample (until kMaxTableValues).
class SparsityTable {
 public:
  /// Borrows `partition`, `sample` and every appended row: all must outlive
  /// this object and stay unchanged while it lives. Every row, appended
  /// ones included, has one value per attribute of `partition`.
  SparsityTable(const Partition* partition,
                const std::vector<std::vector<double>>* sample,
                std::vector<TargetGroup> groups);

  /// Objective values of candidate subspace `s` for `group` (lower =
  /// sparser = better).
  ObjectiveVector Score(const Subspace& s, std::size_t group);

  /// Histogram passes made so far: one per distinct subspace scored while
  /// the table had room, one per (subspace, group) after.
  std::size_t pass_count() const { return pass_count_; }

  /// Subspaces whose values for every group the table holds.
  std::size_t stored_subspaces() const { return stored_.size(); }

 private:
  /// A group with its rows resolved: sample rows, or one appended row,
  /// whose bins are row `appended_bins` of bins_ (past the sample's).
  struct Group {
    std::vector<std::size_t> rows;
    const double* appended = nullptr;
    std::size_t appended_bins = 0;
  };

  /// Histogram of the whole sample in the `width` attributes `dims` into
  /// the per-slot arrays; returns Σ count² (uncorrected: 0 for no rows).
  double Histogram(const int* dims, std::size_t width);
  /// `group`'s objectives from the histogram Histogram() just built.
  ObjectiveVector GroupObjectives(const Group& group, const int* dims,
                                  std::size_t width, double sumsq);
  /// IRSD of a cell of `count` (>= 2) points whose linear sums, then
  /// squared sums, are `sums`, over the `width` attributes `dims`.
  double CellIrsd(double count, const double* sums, const int* dims,
                  std::size_t width) const;

  const Partition* partition_;
  std::vector<const double*> rows_;  // borrowed sample rows, in order
  std::vector<Group> groups_;
  std::size_t num_dims_ = 0;
  // Interval index, row-major: the sample's rows, then each appended row.
  std::vector<std::uint32_t> bins_;
  std::vector<double> su_;  // CellWidth(d) / sqrt(12), by attribute

  // Pass scratch, reused: a cell index per key width, then by slot the
  // count, the IRSD (negative until computed) and 2 x |s| sums (linear,
  // then squared), and each sample row's slot.
  std::vector<std::optional<FlatIndex>> slot_index_;
  std::vector<double> count_;
  std::vector<double> irsd_;
  std::vector<double> sums_;
  std::vector<std::uint32_t> row_slot_;

  // Every group's values of each stored subspace: values_[offset + group].
  std::unordered_map<Subspace, std::size_t, SubspaceHash> stored_;
  std::vector<ObjectiveVector> values_;
  std::size_t pass_count_ = 0;
};

/// The objectives one search runs against: one target group of a
/// SparsityTable, and the search's own memo of what it evaluated (its
/// archive, which FindTopSparse ranks). MOGA revisits subspaces freely at
/// no extra cost. Several searches over one sample each take their own
/// object on one shared table; each archive lives only as long as its
/// search's object.
class BatchSparsityObjectives {
 public:
  /// Group `group` of `*table`, which must outlive this object.
  BatchSparsityObjectives(SparsityTable* table, std::size_t group);

  /// A one-group table of its own over `*data`. `targets` restricts the
  /// points whose sparsity is averaged (empty = all points); the histogram
  /// is always built from the whole batch. Borrows `partition` and `data`
  /// under SparsityTable's lifetime rule.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>* data,
                          std::vector<std::size_t> targets = {});

  /// A one-group table of its own whose only target, `*target`, is
  /// appended to `*sample` (no row is copied). Borrows all three.
  BatchSparsityObjectives(const Partition* partition,
                          const std::vector<std::vector<double>>* sample,
                          const std::vector<double>* target);

  BatchSparsityObjectives(const BatchSparsityObjectives&) = delete;
  BatchSparsityObjectives& operator=(const BatchSparsityObjectives&) = delete;

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
  std::size_t evaluation_count() const { return cache_.size(); }

 private:
  std::optional<SparsityTable> own_table_;  // the one-group constructors'
  SparsityTable* table_;
  std::size_t group_;
  std::unordered_map<Subspace, ObjectiveVector, SubspaceHash> cache_;
};

}  // namespace spot

#endif  // SPOT_MOGA_OBJECTIVES_H_
