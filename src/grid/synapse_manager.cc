#include "grid/synapse_manager.h"

#include "common/bytes.h"
#include "core/detector_events.h"

namespace spot {

namespace {

/// FlatIndex key of a subspace: the 64-bit attribute mask split into two
/// 32-bit words (low word first).
inline void SubspaceKey(const Subspace& s, std::uint32_t out[2]) {
  out[0] = static_cast<std::uint32_t>(s.bits() & 0xFFFFFFFFULL);
  out[1] = static_cast<std::uint32_t>(s.bits() >> 32);
}

}  // namespace

SynapseManager::SynapseManager(Partition partition, DecayModel model,
                               double prune_threshold,
                               std::uint64_t compaction_period)
    : partition_(std::move(partition)),
      model_(model),
      prune_threshold_(prune_threshold),
      compaction_period_(compaction_period),
      total_(model_),
      by_subspace_(2) {}

std::uint32_t SynapseManager::IndexOf(const Subspace& s) const {
  std::uint32_t key[2];
  SubspaceKey(s, key);
  return by_subspace_.Find(key);
}

void SynapseManager::Track(const Subspace& s) {
  if (s.IsEmpty() || IsTracked(s)) return;
  ++revision_;
  std::uint32_t key[2];
  SubspaceKey(s, key);
  by_subspace_.Insert(key, static_cast<std::uint32_t>(grids_.size()));
  grids_.push_back(
      {s, revision_,
       std::make_unique<ProjectedGrid>(s, &partition_, model_,
                                       prune_threshold_,
                                       compaction_period_)});
  if (sink_ != nullptr) {
    DetectorEvent event;
    event.kind = DetectorEventKind::kSubspaceTracked;
    event.tick = revision_;  // == the new grid's serial
    event.subspace = s;
    event.a = grids_.size();
    sink_->OnDetectorEvent(event);
  }
}

void SynapseManager::Untrack(const Subspace& s) {
  std::uint32_t key[2];
  SubspaceKey(s, key);
  const std::uint32_t idx = by_subspace_.Find(key);
  if (idx == FlatIndex::kNoValue) return;
  ++revision_;
  if (sink_ != nullptr) {
    DetectorEvent event;
    event.kind = DetectorEventKind::kSubspaceUntracked;
    event.tick = revision_;
    event.subspace = s;
    event.a = grids_.size() - 1;
    sink_->OnDetectorEvent(event);
  }
  by_subspace_.Erase(key);
  if (idx != grids_.size() - 1) {
    grids_[idx] = std::move(grids_.back());
    SubspaceKey(grids_[idx].subspace, key);
    by_subspace_.Assign(key, idx);
  }
  grids_.pop_back();
}

bool SynapseManager::IsTracked(const Subspace& s) const {
  return IndexOf(s) != FlatIndex::kNoValue;
}

void SynapseManager::Add(const std::vector<double>& point,
                         std::uint64_t tick) {
  partition_.BaseCellInto(point, &base_scratch_);
  total_.Observe(tick);
  for (auto& entry : grids_) entry.grid->AddAt(base_scratch_, point, tick);
}

Pcs SynapseManager::Query(const std::vector<double>& point,
                          const Subspace& s) const {
  const std::uint32_t idx = IndexOf(s);
  if (idx == FlatIndex::kNoValue) return Pcs{};
  return grids_[idx].grid->Query(point, TotalWeight());
}

std::vector<Subspace> SynapseManager::TrackedSubspaces() const {
  std::vector<Subspace> out;
  out.reserve(grids_.size());
  for (const auto& entry : grids_) out.push_back(entry.subspace);
  return out;
}

std::size_t SynapseManager::TotalPopulatedCells() const {
  std::size_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->PopulatedCells();
  return total;
}

std::size_t SynapseManager::TotalSlabSlots() const {
  std::size_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->SlabSlots();
  return total;
}

std::size_t SynapseManager::TotalFreeSlots() const {
  std::size_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->FreeSlots();
  return total;
}

std::uint64_t SynapseManager::TotalCompactions() const {
  std::uint64_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->compactions();
  return total;
}

std::uint64_t SynapseManager::TotalCellsReclaimed() const {
  std::uint64_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->cells_reclaimed();
  return total;
}

std::size_t SynapseManager::CompactAll(std::uint64_t tick) {
  std::size_t removed = 0;
  for (auto& entry : grids_) removed += entry.grid->Compact(tick);
  return removed;
}

std::uint64_t SynapseManager::hash_probes() const {
  std::uint64_t total = 0;
  for (const auto& entry : grids_) total += entry.grid->hash_probes();
  return total;
}

void SynapseManager::SaveState(ByteWriter& w) const {
  // Decay parameters, for cross-validation at load time: a checkpoint can
  // only be restored into a manager built for the same time model.
  w.U64(model_.omega());
  w.F64(model_.epsilon());
  w.F64(model_.alpha());
  w.U64(revision_);
  total_.SaveState(w);
  w.U64(grids_.size());
  for (const auto& entry : grids_) {
    w.U64(entry.subspace.bits());
    w.U64(entry.serial);
    entry.grid->SaveState(w);
  }
}

bool SynapseManager::LoadState(ByteReader& r) {
  if (r.U64() != model_.omega()) return r.Fail();
  if (r.F64() != model_.epsilon()) return r.Fail();
  if (r.F64() != model_.alpha()) return r.Fail();
  revision_ = r.U64();
  if (!total_.LoadState(r)) return false;
  const std::uint64_t count = r.U64();
  if (count > (1u << 24)) return r.Fail();
  grids_.clear();
  by_subspace_.Clear();
  // Reserve conservatively: a corrupt-but-in-cap count must fail on the
  // per-grid reads below, not abort inside an oversized allocation.
  grids_.reserve(
      static_cast<std::size_t>(count < (1u << 16) ? count : (1u << 16)));
  // Subspaces must only retain attributes the partition actually has —
  // the ProjectedGrid constructor indexes partition bounds by retained
  // dimension, so an out-of-range bit would read past them.
  const int num_dims = partition_.num_dims();
  const std::uint64_t valid_mask =
      num_dims >= 64 ? ~0ULL : ((1ULL << num_dims) - 1);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    const Subspace s(r.U64());
    const std::uint64_t serial = r.U64();
    if (s.IsEmpty() || (s.bits() & ~valid_mask) != 0) return r.Fail();
    std::uint32_t key[2];
    SubspaceKey(s, key);
    if (!by_subspace_.Insert(key, static_cast<std::uint32_t>(grids_.size()))
             .second) {
      return r.Fail();  // duplicate tracked subspace
    }
    grids_.push_back(
        {s, serial,
         std::make_unique<ProjectedGrid>(s, &partition_, model_,
                                         prune_threshold_,
                                         compaction_period_)});
    if (!grids_.back().grid->LoadState(r)) return false;
  }
  return r.ok();
}

}  // namespace spot
