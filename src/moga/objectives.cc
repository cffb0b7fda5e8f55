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

SparsityTable::SparsityTable(const Partition* partition,
                             const std::vector<std::vector<double>>* sample,
                             std::vector<TargetGroup> groups)
    : partition_(partition),
      num_dims_(static_cast<std::size_t>(partition->num_dims())) {
  rows_.reserve(sample->size());
  for (const auto& row : *sample) rows_.push_back(row.data());
  const std::size_t n = rows_.size();
  std::size_t bin_rows = n;
  groups_.reserve(groups.size());
  for (TargetGroup& target : groups) {
    Group group;
    if (target.appended != nullptr) {
      group.appended = target.appended->data();
      group.appended_bins = bin_rows++;
    } else if (target.rows.empty()) {
      group.rows.resize(n);
      for (std::size_t i = 0; i < n; ++i) group.rows[i] = i;
    } else {
      group.rows = std::move(target.rows);
    }
    groups_.push_back(std::move(group));
  }

  su_.resize(num_dims_);
  for (std::size_t d = 0; d < num_dims_; ++d) {
    su_[d] = partition_->CellWidth(static_cast<int>(d)) / std::sqrt(12.0);
  }
  bins_.resize(bin_rows * num_dims_);
  const auto bin_row = [this](std::size_t r, const double* row) {
    for (std::size_t d = 0; d < num_dims_; ++d) {
      bins_[r * num_dims_ + d] =
          partition_->IntervalIndex(static_cast<int>(d), row[d]);
    }
  };
  for (std::size_t r = 0; r < n; ++r) bin_row(r, rows_[r]);
  for (const Group& group : groups_) {
    if (group.appended != nullptr) bin_row(group.appended_bins, group.appended);
  }
  // A sample of n rows has at most n cells in any subspace.
  count_.resize(n);
  irsd_.resize(n);
  row_slot_.resize(n);
}

ObjectiveVector SparsityTable::Score(const Subspace& s, std::size_t group) {
  // One group has nobody to share values with: its search's memo is the
  // only store it needs.
  const bool shared = groups_.size() > 1;
  if (shared) {
    const auto it = stored_.find(s);
    if (it != stored_.end()) return values_[it->second + group];
  }

  int dims[Subspace::kMaxDimensions] = {};
  std::size_t width = 0;
  for (std::uint64_t bits = s.bits(); bits != 0; bits &= bits - 1) {
    dims[width++] = CountTrailingZeros64(bits);
  }
  const double sumsq = Histogram(dims, width);
  ++pass_count_;
  if (!shared || values_.size() + groups_.size() > kMaxTableValues) {
    return GroupObjectives(groups_[group], dims, width, sumsq);
  }
  const std::size_t offset = values_.size();
  for (const Group& g : groups_) {
    values_.push_back(GroupObjectives(g, dims, width, sumsq));
  }
  stored_.emplace(s, offset);
  return values_[offset + group];
}

double SparsityTable::Histogram(const int* dims, std::size_t width) {
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

  // The histogram of the whole sample in the subspace, each cell's sums
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
  // The counts are integers far below 2^53, so the sum of squares is exact
  // in any cell order.
  double sumsq = 0.0;
  for (std::uint32_t c = 0; c < cells; ++c) sumsq += count_[c] * count_[c];
  return sumsq;
}

ObjectiveVector SparsityTable::GroupObjectives(const Group& group,
                                               const int* dims,
                                               std::size_t width,
                                               double sumsq) {
  const double dimension = static_cast<double>(width);
  const std::size_t stride = 2 * width;
  if (group.appended != nullptr) {
    // Scored as the last row of sample + row: its cell's count c becomes
    // c + 1, N becomes n + 1, and Σ count² gains (c + 1)² - c² = 2c + 1,
    // exactly. The row folds into its cell's sums last.
    const std::uint32_t* bin = bins_.data() + group.appended_bins * num_dims_;
    std::uint32_t key[Subspace::kMaxDimensions];
    for (std::size_t i = 0; i < width; ++i) key[i] = bin[dims[i]];
    const std::uint32_t slot = slot_index_[width]->Find(key);
    const double cell = slot == FlatIndex::kNoValue ? 0.0 : count_[slot];
    const double count = cell + 1.0;
    const double total = static_cast<double>(rows_.size() + 1);
    const double rd = count * total / (sumsq + 2.0 * cell + 1.0);
    double irsd = 0.0;  // count < 2: maximally sparse
    if (count >= 2.0) {
      double sums[2 * Subspace::kMaxDimensions];
      std::copy_n(sums_.data() + slot * stride, stride, sums);
      for (std::size_t i = 0; i < width; ++i) {
        const double v = group.appended[dims[i]];
        sums[i] += v;
        sums[width + i] += v * v;
      }
      irsd = CellIrsd(count, sums, dims, width);
    }
    return ObjectiveVector{{rd, irsd, dimension}};
  }

  // Average RD / IRSD over the target rows' cells. RD uses the same
  // count-weighted-average reference as the online PCS:
  // RD = count * N / sum(count_i^2).
  const double total = static_cast<double>(rows_.size());
  if (sumsq <= 0.0) sumsq = 1.0;
  double rd_sum = 0.0;
  double irsd_sum = 0.0;
  for (std::size_t t : group.rows) {
    const std::uint32_t slot = row_slot_[t];
    const double count = count_[slot];
    rd_sum += count * total / sumsq;
    if (count >= 2.0) {
      if (irsd_[slot] < 0.0) {
        irsd_[slot] = CellIrsd(count, sums_.data() + slot * stride, dims,
                               width);
      }
      irsd_sum += irsd_[slot];
    }
    // count < 2: IRSD contribution is 0 (maximally sparse).
  }
  const double n_targets = static_cast<double>(group.rows.size());
  return ObjectiveVector{
      {rd_sum / n_targets, irsd_sum / n_targets, dimension}};
}

double SparsityTable::CellIrsd(double count, const double* sums,
                               const int* dims, std::size_t width) const {
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

BatchSparsityObjectives::BatchSparsityObjectives(SparsityTable* table,
                                                 std::size_t group)
    : table_(table), group_(group) {}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>* data,
    std::vector<std::size_t> targets)
    : own_table_(std::in_place, partition, data,
                 std::vector<TargetGroup>{{std::move(targets), nullptr}}),
      table_(&*own_table_),
      group_(0) {}

BatchSparsityObjectives::BatchSparsityObjectives(
    const Partition* partition, const std::vector<std::vector<double>>* sample,
    const std::vector<double>* target)
    : own_table_(std::in_place, partition, sample,
                 std::vector<TargetGroup>{{{}, target}}),
      table_(&*own_table_),
      group_(0) {}

const ObjectiveVector& BatchSparsityObjectives::Evaluate(const Subspace& s) {
  const auto it = cache_.find(s);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(s, table_->Score(s, group_)).first->second;
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
