#ifndef SPOT_GRID_PARTITION_H_
#define SPOT_GRID_PARTITION_H_

#include <cstdint>
#include <vector>

#include "subspace/subspace.h"

namespace spot {

/// Coordinates of a cell: one interval index per retained attribute, in
/// ascending attribute order.
using CellCoords = std::vector<std::uint32_t>;

/// Equi-width partition of the (clamped) attribute domain.
///
/// Quantization of BCS and PCS "entails an equi-width partition of domain
/// space" (paper, Section II-B): every attribute's range [lo_i, hi_i] is cut
/// into `cells_per_dim` equal intervals. Values outside the declared range
/// are clamped into the boundary interval, so a stream that wanders slightly
/// outside its training range still maps to valid cells.
class Partition {
 public:
  /// Uniform domain [lo, hi] for all `num_dims` attributes.
  Partition(int num_dims, int cells_per_dim, double lo, double hi);

  /// Per-attribute domains. `lo.size() == hi.size()` defines the
  /// dimensionality; any degenerate range (hi <= lo) is widened to unit size.
  Partition(std::vector<double> lo, std::vector<double> hi, int cells_per_dim);

  /// Builds a partition whose per-attribute ranges cover `data` with a
  /// small relative margin (so in-stream values near training extremes do
  /// not all clamp to the boundary interval).
  static Partition FitToData(const std::vector<std::vector<double>>& data,
                             int cells_per_dim, double margin = 0.05);

  int num_dims() const { return static_cast<int>(lo_.size()); }
  int cells_per_dim() const { return cells_per_dim_; }
  double lo(int dim) const { return lo_[static_cast<std::size_t>(dim)]; }
  double hi(int dim) const { return hi_[static_cast<std::size_t>(dim)]; }

  /// Width of one interval along `dim`.
  double CellWidth(int dim) const;

  /// Interval index of `value` along `dim`, clamped to [0, cells_per_dim);
  /// defined for every double (NaN reads 0, +inf the last cell).
  std::uint32_t IntervalIndex(int dim, double value) const;

  /// Base-cell coordinates of a full-dimensional point (paper: "a base cell
  /// is a cell in hypercube with the finest granularity").
  CellCoords BaseCell(const std::vector<double>& point) const;

  /// Allocation-free BaseCell: writes into `out` (resized as needed). The
  /// batch detection path bins each point exactly once through this and
  /// projects per subspace by index selection.
  void BaseCellInto(const std::vector<double>& point, CellCoords* out) const;

  /// Projected-cell coordinates of `point` in subspace `s`: interval indices
  /// of the retained attributes only, ascending attribute order.
  CellCoords ProjectedCell(const std::vector<double>& point,
                           const Subspace& s) const;

  /// Projects base-cell coordinates onto subspace `s` without re-quantizing.
  CellCoords ProjectBaseCell(const CellCoords& base, const Subspace& s) const;

  /// Whether every coordinate is an interval index (< cells_per_dim). The
  /// grids' checkpoint loaders refuse cells that fail this: their indices
  /// address at most cells_per_dim cells per dimension.
  bool InRange(const CellCoords& coords) const {
    for (std::uint32_t c : coords) {
      if (c >= static_cast<std::uint32_t>(cells_per_dim_)) return false;
    }
    return true;
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
  std::vector<double> inv_width_;  // cells_per_dim / (hi - lo), cached
  int cells_per_dim_;
};

}  // namespace spot

#endif  // SPOT_GRID_PARTITION_H_
