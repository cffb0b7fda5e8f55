#include "grid/partition.h"

#include <algorithm>
#include <cmath>

namespace spot {

namespace {
constexpr double kMinRange = 1e-12;
}  // namespace

Partition::Partition(int num_dims, int cells_per_dim, double lo, double hi)
    : Partition(std::vector<double>(static_cast<std::size_t>(num_dims), lo),
                std::vector<double>(static_cast<std::size_t>(num_dims), hi),
                cells_per_dim) {}

Partition::Partition(std::vector<double> lo, std::vector<double> hi,
                     int cells_per_dim)
    : lo_(std::move(lo)),
      hi_(std::move(hi)),
      cells_per_dim_(std::max(1, cells_per_dim)) {
  inv_width_.resize(lo_.size());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (hi_[i] - lo_[i] < kMinRange) hi_[i] = lo_[i] + 1.0;
    inv_width_[i] = static_cast<double>(cells_per_dim_) / (hi_[i] - lo_[i]);
  }
}

Partition Partition::FitToData(const std::vector<std::vector<double>>& data,
                               int cells_per_dim, double margin) {
  if (data.empty()) return Partition(1, cells_per_dim, 0.0, 1.0);
  const std::size_t dims = data.front().size();
  std::vector<double> lo(dims, 0.0);
  std::vector<double> hi(dims, 0.0);
  for (std::size_t d = 0; d < dims; ++d) {
    double mn = data.front()[d];
    double mx = mn;
    for (const auto& row : data) {
      mn = std::min(mn, row[d]);
      mx = std::max(mx, row[d]);
    }
    const double range = std::max(mx - mn, kMinRange);
    lo[d] = mn - margin * range;
    hi[d] = mx + margin * range;
  }
  return Partition(std::move(lo), std::move(hi), cells_per_dim);
}

double Partition::CellWidth(int dim) const {
  const std::size_t d = static_cast<std::size_t>(dim);
  return (hi_[d] - lo_[d]) / static_cast<double>(cells_per_dim_);
}

std::uint32_t Partition::IntervalIndex(int dim, double value) const {
  const std::size_t d = static_cast<std::size_t>(dim);
  const double scaled = (value - lo_[d]) * inv_width_[d];
  // Clamp in double, before the cast, so the cast is always defined: NaN
  // fails the first test and reads cell 0, as everything at or below the
  // low edge does; everything past the last cell, infinities included,
  // reads the last cell.
  if (!(scaled > 0.0)) return 0;
  if (scaled >= static_cast<double>(cells_per_dim_)) {
    return static_cast<std::uint32_t>(cells_per_dim_ - 1);
  }
  return static_cast<std::uint32_t>(scaled);
}

CellCoords Partition::BaseCell(const std::vector<double>& point) const {
  CellCoords coords(lo_.size());
  BaseCellInto(point, coords.data());
  return coords;
}

void Partition::BaseCellInto(const std::vector<double>& point,
                             std::uint32_t* out) const {
  for (std::size_t d = 0; d < lo_.size(); ++d) {
    out[d] = IntervalIndex(static_cast<int>(d), point[d]);
  }
}

CellCoords Partition::ProjectedCell(const std::vector<double>& point,
                                    const Subspace& s) const {
  CellCoords coords;
  coords.reserve(static_cast<std::size_t>(s.Dimension()));
  for (int d : s.Indices()) {
    coords.push_back(IntervalIndex(d, point[static_cast<std::size_t>(d)]));
  }
  return coords;
}

}  // namespace spot
