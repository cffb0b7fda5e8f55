#include "grid/projected_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/bytes.h"

namespace spot {

ProjectedGrid::ProjectedGrid(Subspace subspace, const Partition* partition,
                             DecayModel model, double prune_threshold,
                             std::uint64_t compaction_period)
    : subspace_(subspace),
      dims_(subspace.Indices()),
      partition_(partition),
      model_(model),
      prune_threshold_(prune_threshold),
      compaction_period_(compaction_period),
      stride_(2 * subspace.Indices().size() + 2),
      index_(subspace.Indices().size(),
             static_cast<std::uint32_t>(partition->cells_per_dim())) {
  sigma_uniform_.reserve(dims_.size());
  for (int d : dims_) {
    sigma_uniform_.push_back(partition_->CellWidth(d) / std::sqrt(12.0));
  }
  coords_scratch_.resize(dims_.size());
}

double ProjectedGrid::SumSqAt(std::uint64_t tick) const {
  if (tick <= sumsq_tick_) return sumsq_;
  // Squared counts decay twice as fast as counts.
  return sumsq_ * model_.WeightAtAge(2 * (tick - sumsq_tick_));
}

void ProjectedGrid::BinInto(const std::vector<double>& point,
                            CellCoords* out) const {
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    (*out)[i] = partition_->IntervalIndex(
        dims_[i], point[static_cast<std::size_t>(dims_[i])]);
  }
}

void ProjectedGrid::DecayRecord(double* rec, std::uint64_t tick) const {
  const std::uint64_t rec_tick = static_cast<std::uint64_t>(rec[TickOff()]);
  if (tick <= rec_tick) return;
  const double factor = model_.WeightAtAge(tick - rec_tick);
  if (factor != 1.0) {
    // count + ls + ss occupy the first 2k+1 doubles of the record.
    for (std::size_t i = 0; i < TickOff(); ++i) rec[i] *= factor;
  }
  rec[TickOff()] = static_cast<double>(tick);
}

std::uint32_t ProjectedGrid::UpsertSlot(const CellCoords& coords,
                                        std::uint64_t tick) {
  ++hash_probes_;
  // Candidate slot chosen before the insert so the index stores the final
  // value in one pass; it is only consumed when the key is new.
  const std::uint32_t candidate =
      free_slots_.empty() ? static_cast<std::uint32_t>(slab_.size() / stride_)
                          : free_slots_.back();
  const auto [slot, inserted] = index_.Insert(coords.data(), candidate);
  if (!inserted) return slot;
  if (!free_slots_.empty()) {
    free_slots_.pop_back();
  } else {
    slab_.resize(slab_.size() + stride_);
  }
  double* rec = Record(slot);
  for (std::size_t i = 0; i < TickOff(); ++i) rec[i] = 0.0;
  rec[TickOff()] = static_cast<double>(tick);
  return slot;
}

double* ProjectedGrid::FoldPoint(const CellCoords& coords,
                                 const std::vector<double>& point,
                                 std::uint64_t tick) {
  last_tick_ = tick;
  sumsq_ = SumSqAt(tick);
  sumsq_tick_ = tick;

  double* rec = Record(UpsertSlot(coords, tick));
  DecayRecord(rec, tick);
  const double old_count = rec[kCount];
  rec[kCount] += 1.0;
  sumsq_ += rec[kCount] * rec[kCount] - old_count * old_count;
  double* ls = rec + LsOff();
  double* ss = rec + SsOff();
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const double v = point[static_cast<std::size_t>(dims_[i])];
    ls[i] += v;
    ss[i] += v * v;
  }
  return rec;
}

void ProjectedGrid::MaybeCompact(std::uint64_t tick) {
  if (compaction_period_ != 0 &&
      ++arrivals_since_compaction_ >= compaction_period_) {
    Compact(tick);
    arrivals_since_compaction_ = 0;
  }
}

void ProjectedGrid::Add(const std::vector<double>& point,
                        std::uint64_t tick) {
  BinInto(point, &coords_scratch_);
  FoldPoint(coords_scratch_, point, tick);
  MaybeCompact(tick);
}

void ProjectedGrid::AddAt(const std::uint32_t* base,
                          const std::vector<double>& point,
                          std::uint64_t tick) {
  ProjectBaseInto(base, &coords_scratch_);
  FoldPoint(coords_scratch_, point, tick);
  MaybeCompact(tick);
}

Pcs ProjectedGrid::AddAndQuery(const std::vector<double>& point,
                               std::uint64_t tick, double total_weight) {
  BinInto(point, &coords_scratch_);
  return AddAndQueryCoords(coords_scratch_, point, tick, total_weight);
}

Pcs ProjectedGrid::AddAndQueryAt(const std::uint32_t* base,
                                 const std::vector<double>& point,
                                 std::uint64_t tick, double total_weight) {
  ProjectBaseInto(base, &coords_scratch_);
  return AddAndQueryCoords(coords_scratch_, point, tick, total_weight);
}

Pcs ProjectedGrid::AddAndQueryCoords(const CellCoords& coords,
                                     const std::vector<double>& point,
                                     std::uint64_t tick, double total_weight) {
  const Pcs pcs =
      PcsFromRecord(FoldPoint(coords, point, tick), 1.0, total_weight);
  MaybeCompact(tick);
  return pcs;
}

Pcs ProjectedGrid::Query(const std::vector<double>& point,
                         double total_weight) const {
  // Local coordinates: the const query path must not touch the update
  // scratch (see the threading note in the class comment).
  CellCoords coords(dims_.size());
  BinInto(point, &coords);
  return QueryCoords(coords, total_weight);
}

Pcs ProjectedGrid::QueryCoords(const CellCoords& coords,
                               double total_weight) const {
  ++hash_probes_;
  const std::uint32_t slot = index_.Find(coords.data());
  if (slot == FlatIndex::kNoValue) return Pcs{};
  const double* rec = Record(slot);
  const std::uint64_t rec_tick = static_cast<std::uint64_t>(rec[TickOff()]);
  const double factor =
      rec_tick < last_tick_ ? model_.WeightAtAge(last_tick_ - rec_tick) : 1.0;
  return PcsFromRecord(rec, factor, total_weight);
}

Pcs ProjectedGrid::PcsFromRecord(const double* rec, double factor,
                                 double total_weight) const {
  Pcs pcs;
  pcs.count = rec[kCount] * factor;
  if (pcs.count <= 0.0 || total_weight <= 0.0) return pcs;

  // RD: density relative to the count-weighted average cell mass.
  const double sumsq = SumSqAt(last_tick_);
  pcs.rd = sumsq > 0.0 ? pcs.count * total_weight / sumsq : 0.0;

  // IRSD: 0 when fewer than 2 decayed points (no spread evidence). The
  // per-dimension mean and variance are ratios of same-age aggregates, so
  // the decay factor cancels and the stored (stale) values can be used
  // directly.
  if (pcs.count < 2.0) {
    pcs.irsd = 0.0;
    return pcs;
  }
  const double count = rec[kCount];
  const double* ls = rec + LsOff();
  const double* ss = rec + SsOff();
  double irsd_sum = 0.0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const double mean = ls[i] / count;
    const double var = ss[i] / count - mean * mean;
    const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
    const double su = sigma_uniform_[i];
    const double ratio = su / (sigma + 0.01 * su);
    irsd_sum += ratio > Pcs::kIrsdCap ? Pcs::kIrsdCap : ratio;
  }
  pcs.irsd = irsd_sum / static_cast<double>(dims_.size());
  return pcs;
}

bool ProjectedGrid::IsClusterFringe(const CellCoords& coords,
                                    double cell_count, double factor) const {
  assert(coords.size() == dims_.size());
  const double heavy = factor * (cell_count > 1.0 ? cell_count : 1.0);
  const std::int64_t max_coord = partition_->cells_per_dim() - 1;
  auto neighbor_is_heavy = [&](const std::uint32_t* c) {
    ++hash_probes_;
    const std::uint32_t slot = index_.Find(c);
    if (slot == FlatIndex::kNoValue) return false;
    const double* rec = Record(slot);
    const std::uint64_t rec_tick = static_cast<std::uint64_t>(rec[TickOff()]);
    const double decay =
        rec_tick < last_tick_ ? model_.WeightAtAge(last_tick_ - rec_tick)
                              : 1.0;
    return rec[kCount] * decay >= heavy;
  };

  // Neighbor keys are built in stack arrays: a sparse cell's scan, run once
  // per sparse (point, subspace) verdict, allocates nothing.
  const std::size_t n = coords.size();
  if (n <= 3) {
    // Full Moore neighborhood via odometer over {-1, 0, +1}^n.
    int offset[3] = {-1, -1, -1};
    std::uint32_t probe[3] = {};
    for (;;) {
      bool all_zero = true;
      bool in_range = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (offset[i] != 0) all_zero = false;
        const std::int64_t v =
            static_cast<std::int64_t>(coords[i]) + offset[i];
        if (v < 0 || v > max_coord) {
          in_range = false;
          break;
        }
        probe[i] = static_cast<std::uint32_t>(v);
      }
      if (!all_zero && in_range && neighbor_is_heavy(probe)) return true;
      // Advance the odometer.
      std::size_t pos = 0;
      while (pos < n && offset[pos] == 1) {
        offset[pos] = -1;
        ++pos;
      }
      if (pos == n) break;
      ++offset[pos];
    }
    return false;
  }

  // High-dimensional subspaces: axis-aligned neighbors only, probed by
  // editing one coordinate of a single copy and restoring it afterwards.
  std::uint32_t probe[Subspace::kMaxDimensions] = {};
  std::copy(coords.begin(), coords.end(), probe);
  for (std::size_t i = 0; i < n; ++i) {
    for (int delta : {-1, 1}) {
      const std::int64_t v = static_cast<std::int64_t>(coords[i]) + delta;
      if (v < 0 || v > max_coord) continue;
      probe[i] = static_cast<std::uint32_t>(v);
      if (neighbor_is_heavy(probe)) return true;
    }
    probe[i] = coords[i];
  }
  return false;
}

std::size_t ProjectedGrid::Compact(std::uint64_t tick) {
  // Decay every record, re-sum the survivors' squared counts exactly
  // (cancelling accumulated floating-point drift), and collect the doomed
  // cells; erase only after the walk. ForEach visits cells in ascending
  // coordinate order, not in an order that depends on insertion/erase
  // history (which a restore cannot reproduce), so the summation order —
  // and the bit-identical-resume guarantee (DESIGN.md Section 4.3) — holds.
  // The doomed keys go into one flat buffer the grid keeps across sweeps,
  // so collecting them allocates nothing once the buffer has grown.
  const std::size_t width = index_.key_width();
  doomed_.clear();
  double sumsq = 0.0;
  index_.ForEach([&](const std::uint32_t* key, std::uint32_t slot) {
    double* rec = Record(slot);
    DecayRecord(rec, tick);
    if (rec[kCount] < prune_threshold_) {
      free_slots_.push_back(slot);
      doomed_.insert(doomed_.end(), key, key + width);
    } else {
      sumsq += rec[kCount] * rec[kCount];
    }
  });
  sumsq_ = sumsq;
  sumsq_tick_ = tick;
  if (tick > last_tick_) last_tick_ = tick;
  const std::size_t removed = doomed_.size() / width;
  for (std::size_t i = 0; i < removed; ++i) {
    index_.Erase(doomed_.data() + i * width);
  }
  ++compactions_;
  cells_reclaimed_ += removed;
  return removed;
}

void ProjectedGrid::SaveState(ByteWriter& w) const {
  w.U64(subspace_.bits());
  w.U64(last_tick_);
  w.U64(arrivals_since_compaction_);
  w.F64(sumsq_);
  w.U64(sumsq_tick_);
  w.U64(hash_probes_);
  w.U64(index_.size());
  index_.ForEach([&](const std::uint32_t* key, std::uint32_t slot) {
    w.Coords(key, index_.key_width());
    const double* rec = Record(slot);
    for (std::size_t i = 0; i < stride_; ++i) w.F64(rec[i]);
  });
}

bool ProjectedGrid::LoadState(ByteReader& r) {
  if (r.U64() != subspace_.bits()) return r.Fail();
  last_tick_ = r.U64();
  arrivals_since_compaction_ = r.U64();
  sumsq_ = r.F64();
  sumsq_tick_ = r.U64();
  hash_probes_ = r.U64();
  const std::uint64_t count = r.U64();
  if (count > (1u << 24)) return r.Fail();  // corrupt count prefix
  index_.Clear();
  slab_.clear();
  free_slots_.clear();
  // Reserve conservatively: a corrupt-but-in-cap count must fail on the
  // per-cell reads below, not abort inside an oversized allocation.
  const std::size_t reserve =
      static_cast<std::size_t>(count < (1u << 20) ? count : (1u << 20));
  index_.Reserve(reserve);
  slab_.reserve(reserve * stride_);
  // The stream is sorted by coordinates (SaveState's canonical order), and
  // slots are assigned densely in that order: restored slab layout — and
  // therefore every later sorted-order fold — is deterministic.
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CellCoords coords = r.Coords();
    if (coords.size() != dims_.size() || !partition_->InRange(coords)) {
      return r.Fail();
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(i);
    slab_.resize(slab_.size() + stride_);
    double* rec = Record(slot);
    for (std::size_t k = 0; k < stride_; ++k) rec[k] = r.F64();
    if (!index_.Insert(coords.data(), slot).second) {
      return r.Fail();  // duplicate cell: corrupt checkpoint
    }
  }
  return r.ok();
}

}  // namespace spot
