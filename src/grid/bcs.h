#ifndef SPOT_GRID_BCS_H_
#define SPOT_GRID_BCS_H_

#include <cstdint>
#include <vector>

#include "grid/decay.h"

namespace spot {

class ByteReader;
class ByteWriter;

/// Base Cell Summary (paper, Definition 1).
///
/// For a base cell c, BCS(c) = (D_c, LS_c, SS_c): the decayed point count,
/// the per-dimension decayed sum, and the per-dimension decayed squared sum
/// of the points that fell into c. All three components decay by the same
/// geometric factor under the (omega, epsilon) time model, which preserves
/// the additive / incremental properties the paper relies on: a BCS can be
/// updated per arrival in O(dims) and two BCSs over disjoint point sets can
/// be merged by component-wise addition (after aligning their tick stamps).
class Bcs {
 public:
  Bcs() = default;

  /// An empty summary for a cell holding `num_dims`-dimensional points.
  explicit Bcs(int num_dims);

  /// Folds one point in at tick `tick`, decaying the stored aggregates
  /// first. Ticks must be non-decreasing across calls.
  void Add(const std::vector<double>& point, std::uint64_t tick,
           const DecayModel& model);

  /// Decays this summary to tick `tick` in place (no point added).
  void DecayTo(std::uint64_t tick, const DecayModel& model);

  /// Merges `other` into this summary; both are first decayed to `tick`.
  void Merge(const Bcs& other, std::uint64_t tick, const DecayModel& model);

  /// Decayed count as of tick `tick` (no mutation).
  double CountAt(std::uint64_t tick, const DecayModel& model) const;

  /// Decayed count at the summary's own last-update tick.
  double count() const { return count_; }

  /// Per-dimension decayed linear sum at the last-update tick.
  const std::vector<double>& linear_sum() const { return ls_; }

  /// Per-dimension decayed squared sum at the last-update tick.
  const std::vector<double>& squared_sum() const { return ss_; }

  std::uint64_t last_tick() const { return last_tick_; }
  int num_dims() const { return static_cast<int>(ls_.size()); }

  /// Mean of dimension `dim` over the (decayed) cell content; 0 when empty.
  double MeanOf(int dim) const;

  /// Population standard deviation of dimension `dim` over the cell content;
  /// 0 when the decayed count is below 2 (no spread evidence).
  double StdDevOf(int dim) const;

  /// Checkpointing: all aggregates plus the tick stamp round-trip exactly
  /// (doubles are stored as raw bit patterns).
  void SaveState(ByteWriter& w) const;
  bool LoadState(ByteReader& r);

 private:
  double count_ = 0.0;
  std::vector<double> ls_;
  std::vector<double> ss_;
  std::uint64_t last_tick_ = 0;
};

}  // namespace spot

#endif  // SPOT_GRID_BCS_H_
