#include "grid/base_grid.h"

#include <utility>

#include "common/bytes.h"

namespace spot {

BaseGrid::BaseGrid(Partition partition, DecayModel model,
                   double prune_threshold, std::uint64_t compaction_period)
    : partition_(std::move(partition)),
      model_(model),
      prune_threshold_(prune_threshold),
      compaction_period_(compaction_period),
      total_(model_),
      index_(static_cast<std::size_t>(partition_.num_dims()),
             static_cast<std::uint32_t>(partition_.cells_per_dim())) {}

void BaseGrid::Add(const std::vector<double>& point, std::uint64_t tick) {
  AddAt(partition_.BaseCell(point), point, tick);
}

void BaseGrid::AddAt(const CellCoords& coords, std::uint64_t hash,
                     const std::vector<double>& point, std::uint64_t tick) {
  last_tick_ = tick;
  total_.Observe(tick);
  const std::uint32_t candidate =
      free_cells_.empty() ? static_cast<std::uint32_t>(cell_bcs_.size())
                          : free_cells_.back();
  const auto [slot, inserted] = index_.Insert(coords.data(), hash, candidate);
  if (inserted) {
    if (free_cells_.empty()) {
      cell_coords_.push_back(coords);
      cell_bcs_.emplace_back(partition_.num_dims());
    } else {
      free_cells_.pop_back();
      cell_coords_[slot] = coords;
      cell_bcs_[slot] = Bcs(partition_.num_dims());
    }
  }
  cell_bcs_[slot].Add(point, tick, model_);
  if (compaction_period_ != 0 &&
      ++arrivals_since_compaction_ >= compaction_period_) {
    Compact(tick);
    arrivals_since_compaction_ = 0;
  }
}

const Bcs* BaseGrid::Find(const std::vector<double>& point) const {
  return FindByCoords(partition_.BaseCell(point));
}

const Bcs* BaseGrid::FindByCoords(const CellCoords& coords) const {
  const std::uint32_t slot = index_.Find(coords.data(), index_.Hash(coords));
  return slot == FlatIndex::kNoValue ? nullptr : &cell_bcs_[slot];
}

double BaseGrid::TotalWeight() const { return total_.WeightAt(last_tick_); }

std::vector<std::pair<const CellCoords*, const Bcs*>> BaseGrid::OrderedCells()
    const {
  std::vector<std::pair<const CellCoords*, const Bcs*>> out;
  out.reserve(index_.size());
  index_.ForEach([&](const std::uint32_t*, std::uint32_t slot) {
    out.emplace_back(&cell_coords_[slot], &cell_bcs_[slot]);
  });
  return out;
}

void BaseGrid::SaveState(ByteWriter& w) const {
  w.U64(last_tick_);
  w.U64(arrivals_since_compaction_);
  total_.SaveState(w);
  const auto ordered = OrderedCells();
  w.U64(ordered.size());
  for (const auto& [coords, bcs] : ordered) {
    w.Coords(*coords);
    bcs->SaveState(w);
  }
}

bool BaseGrid::LoadState(ByteReader& r) {
  last_tick_ = r.U64();
  arrivals_since_compaction_ = r.U64();
  if (!total_.LoadState(r)) return false;
  const std::uint64_t count = r.U64();
  if (count > (1u << 24)) return r.Fail();  // corrupt count prefix
  index_.Clear();
  cell_coords_.clear();
  cell_bcs_.clear();
  free_cells_.clear();
  // Reserve conservatively: a corrupt-but-in-cap count must fail on the
  // per-cell reads below, not abort inside an oversized allocation.
  const std::size_t reserve =
      static_cast<std::size_t>(count < (1u << 20) ? count : (1u << 20));
  index_.Reserve(reserve);
  cell_coords_.reserve(reserve);
  cell_bcs_.reserve(reserve);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CellCoords coords = r.Coords();
    if (coords.size() != static_cast<std::size_t>(partition_.num_dims()) ||
        !partition_.InRange(coords)) {
      return r.Fail();
    }
    Bcs bcs;
    if (!bcs.LoadState(r)) return false;
    // The payload must describe a cell of this grid's dimensionality, or
    // later Add/MeanOf calls would index past the summary's vectors.
    if (bcs.num_dims() != partition_.num_dims()) return r.Fail();
    const std::uint32_t slot = static_cast<std::uint32_t>(i);
    if (!index_.Insert(coords.data(), index_.Hash(coords), slot).second) {
      return r.Fail();  // duplicate cell: corrupt checkpoint
    }
    cell_coords_.push_back(std::move(coords));
    cell_bcs_.push_back(std::move(bcs));
  }
  return r.ok();
}

std::size_t BaseGrid::Compact(std::uint64_t tick) {
  // Two-pass: erase is not allowed during ForEach, so collect the doomed
  // coordinates first, then erase them.
  std::vector<CellCoords> doomed;
  index_.ForEach([&](const std::uint32_t*, std::uint32_t slot) {
    if (cell_bcs_[slot].CountAt(tick, model_) < prune_threshold_) {
      doomed.push_back(cell_coords_[slot]);
      free_cells_.push_back(slot);
    }
  });
  for (const CellCoords& coords : doomed) index_.Erase(coords);
  ++compactions_;
  cells_reclaimed_ += doomed.size();
  return doomed.size();
}

}  // namespace spot
