#include "core/topk_outliers.h"

#include <algorithm>

#include "common/bytes.h"

namespace spot {

TopKOutliers::TopKOutliers(std::size_t capacity, const DecayModel& model)
    : capacity_(capacity), model_(model), windowed_(model.alpha() < 1.0) {}

bool TopKOutliers::RanksBefore(const TopKEntry& a, const TopKEntry& b) const {
  // Evaluate both decayed scores at ref = max tick: one weight is exactly 1
  // and the other alpha^diff <= 1, so the comparison never overflows and —
  // decay being a common positive factor — holds at every later tick too.
  const std::uint64_t ref = a.tick > b.tick ? a.tick : b.tick;
  const double wa = a.score * model_.WeightAtAge(ref - a.tick);
  const double wb = b.score * model_.WeightAtAge(ref - b.tick);
  if (wa != wb) return wa > wb;
  if (a.tick != b.tick) return a.tick < b.tick;
  return a.point_id < b.point_id;
}

bool TopKOutliers::Expired(const TopKEntry& e,
                           std::uint64_t now_tick) const {
  return windowed_ && now_tick - e.tick > model_.omega();
}

void TopKOutliers::Offer(TopKEntry entry) {
  if (capacity_ == 0) return;
  // Lazy expiry against the arriving tick (ticks are non-decreasing).
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const TopKEntry& e) {
                                  return Expired(e, entry.tick);
                                }),
                 entries_.end());
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry,
      [this](const TopKEntry& a, const TopKEntry& b) {
        return RanksBefore(a, b);
      });
  if (pos == entries_.end() && entries_.size() >= capacity_) return;
  entries_.insert(pos, std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
}

std::vector<TopKEntry> TopKOutliers::Query(std::size_t k,
                                           std::uint64_t now_tick) const {
  std::vector<TopKEntry> out;
  out.reserve(std::min(k, entries_.size()));
  for (const TopKEntry& e : entries_) {
    if (out.size() >= k) break;
    if (Expired(e, now_tick)) continue;
    TopKEntry copy = e;
    copy.decayed_score =
        copy.score * model_.WeightAtAge(now_tick >= copy.tick
                                            ? now_tick - copy.tick
                                            : 0);
    out.push_back(std::move(copy));
  }
  return out;
}

const std::vector<double>* TopKOutliers::Values(
    std::uint64_t point_id) const {
  for (const TopKEntry& e : entries_) {
    if (e.point_id == point_id) return &e.values;
  }
  return nullptr;
}

void TopKOutliers::SaveState(ByteWriter& w) const {
  w.U64(entries_.size());
  for (const TopKEntry& e : entries_) {
    w.U64(e.point_id);
    w.U64(e.tick);
    w.F64(e.score);
    w.U64(e.values.size());
    for (double v : e.values) w.F64(v);
    w.U32(static_cast<std::uint32_t>(e.findings.size()));
    for (const SubspaceFinding& f : e.findings) {
      w.U64(f.subspace.bits());
      w.F64(f.pcs.rd);
      w.F64(f.pcs.irsd);
      w.F64(f.pcs.count);
    }
  }
}

bool TopKOutliers::LoadState(ByteReader& r) {
  const std::uint64_t count = r.U64();
  if (count > capacity_) return r.Fail();
  entries_.clear();
  // Every stored entry spends at least 36 bytes (id, tick, score, value
  // count, finding count), so the bytes left bound how many a well-formed
  // image can hold.
  entries_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / 36)));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    TopKEntry e;
    e.point_id = r.U64();
    e.tick = r.U64();
    e.score = r.F64();
    const std::uint64_t dim = r.U64();
    if (dim > (1u << 20)) return r.Fail();  // corrupt length prefix
    e.values.resize(static_cast<std::size_t>(dim));
    for (double& v : e.values) v = r.F64();
    const std::uint32_t nfindings = r.U32();
    if (nfindings > (1u << 20)) return r.Fail();
    e.findings.resize(nfindings);
    for (SubspaceFinding& f : e.findings) {
      f.subspace = Subspace(r.U64());
      f.pcs.rd = r.F64();
      f.pcs.irsd = r.F64();
      f.pcs.count = r.F64();
    }
    entries_.push_back(std::move(e));
  }
  return r.ok();
}

}  // namespace spot
