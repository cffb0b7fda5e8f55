#include "moga/objectives.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "grid/pcs.h"

namespace spot {

bool Dominates(const ObjectiveVector& a, const ObjectiveVector& b) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < kNumObjectives; ++i) {
    if (a.values[i] > b.values[i]) return false;
    if (a.values[i] < b.values[i]) strictly_better = true;
  }
  return strictly_better;
}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>* data,
    std::vector<std::size_t> targets)
    : partition_(partition), targets_(std::move(targets)) {
  rows_.reserve(data->size());
  for (const auto& row : *data) rows_.push_back(row.data());
  if (targets_.empty()) {
    targets_.resize(rows_.size());
    for (std::size_t i = 0; i < targets_.size(); ++i) targets_[i] = i;
  }
  BinRows();
}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>* sample,
    const std::vector<double>* target)
    : partition_(partition), targets_(1, sample->size()) {
  rows_.reserve(sample->size() + 1);
  for (const auto& row : *sample) rows_.push_back(row.data());
  rows_.push_back(target->data());
  BinRows();
}

void BatchSparsityObjectives::BinRows() {
  num_dims_ = static_cast<std::size_t>(partition_->num_dims());
  su_.resize(num_dims_);
  for (std::size_t d = 0; d < num_dims_; ++d) {
    su_[d] = partition_->CellWidth(static_cast<int>(d)) / std::sqrt(12.0);
  }
  const std::size_t n = rows_.size();
  bins_.resize(n * num_dims_);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t d = 0; d < num_dims_; ++d) {
      bins_[r * num_dims_ + d] =
          partition_->IntervalIndex(static_cast<int>(d), rows_[r][d]);
    }
  }
  // A batch of n rows has at most n cells in any subspace.
  count_.resize(n);
  irsd_.resize(n);
  row_slot_.resize(n);
}

const ObjectiveVector& BatchSparsityObjectives::Evaluate(const Subspace& s) {
  auto it = cache_.find(s);
  if (it != cache_.end()) return it->second;
  ++eval_count_;

  int dims[Subspace::kMaxDimensions];
  std::size_t width = 0;
  for (std::uint64_t bits = s.bits(); bits != 0; bits &= bits - 1) {
    dims[width++] = CountTrailingZeros64(bits);
  }
  if (slot_index_.size() <= width) slot_index_.resize(width + 1);
  std::optional<FlatIndex>& index = slot_index_[width];
  if (index) {
    index->Clear();
  } else {
    index.emplace(width,
                  static_cast<std::uint32_t>(partition_->cells_per_dim()));
  }
  const std::size_t n = rows_.size();
  const std::size_t stride = 2 * width;  // linear sums, then squared sums
  if (sums_.size() < n * stride) sums_.resize(n * stride);

  // Pass 1: histogram of the whole batch in subspace s, each cell's sums
  // folded in row order.
  std::uint32_t key[Subspace::kMaxDimensions];
  std::uint32_t cells = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint32_t* bin = bins_.data() + r * num_dims_;
    for (std::size_t i = 0; i < width; ++i) key[i] = bin[dims[i]];
    const auto [slot, inserted] = index->Insert(key, cells);
    double* sums = sums_.data() + slot * stride;
    if (inserted) {
      ++cells;
      count_[slot] = 0.0;
      irsd_[slot] = -1.0;
      std::fill(sums, sums + stride, 0.0);
    }
    row_slot_[r] = slot;
    count_[slot] += 1.0;
    const double* row = rows_[r];
    for (std::size_t i = 0; i < width; ++i) {
      const double v = row[dims[i]];
      sums[i] += v;
      sums[width + i] += v * v;
    }
  }

  // Pass 2: average RD / IRSD over the target points' cells. RD uses the
  // same count-weighted-average reference as the online PCS:
  // RD = count * N / sum(count_i^2). The counts are integers far below
  // 2^53, so the sum of squares is exact in any cell order.
  const double total = static_cast<double>(n);
  double sumsq = 0.0;
  for (std::uint32_t c = 0; c < cells; ++c) sumsq += count_[c] * count_[c];
  if (sumsq <= 0.0) sumsq = 1.0;
  double rd_sum = 0.0;
  double irsd_sum = 0.0;
  for (std::size_t t : targets_) {
    const std::uint32_t slot = row_slot_[t];
    const double count = count_[slot];
    rd_sum += count * total / sumsq;
    if (count >= 2.0) {
      if (irsd_[slot] < 0.0) irsd_[slot] = CellIrsd(slot, dims, width);
      irsd_sum += irsd_[slot];
    }
    // count < 2: IRSD contribution is 0 (maximally sparse).
  }
  const double n_targets = static_cast<double>(targets_.size());

  const ObjectiveVector obj{{rd_sum / n_targets, irsd_sum / n_targets,
                             static_cast<double>(s.Dimension())}};
  return cache_.emplace(s, obj).first->second;
}

double BatchSparsityObjectives::CellIrsd(std::uint32_t slot, const int* dims,
                                         std::size_t width) const {
  const double count = count_[slot];
  const double* sums = sums_.data() + slot * 2 * width;
  double acc = 0.0;
  for (std::size_t i = 0; i < width; ++i) {
    const double mean = sums[i] / count;
    const double var = sums[width + i] / count - mean * mean;
    const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
    const double su = su_[static_cast<std::size_t>(dims[i])];
    const double ratio = su / (sigma + 0.01 * su);
    acc += ratio > Pcs::kIrsdCap ? Pcs::kIrsdCap : ratio;
  }
  return acc / static_cast<double>(width);
}

double BatchSparsityObjectives::SparsityScore(const Subspace& s) {
  const ObjectiveVector& obj = Evaluate(s);
  return obj.values[0] + obj.values[1];
}

void BatchSparsityObjectives::AppendEvaluated(
    std::vector<std::pair<Subspace, double>>* out) const {
  out->reserve(out->size() + cache_.size());
  for (const auto& [subspace, obj] : cache_) {
    out->emplace_back(subspace, obj.values[0] + obj.values[1]);
  }
}

}  // namespace spot
