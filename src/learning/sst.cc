#include "learning/sst.h"

#include <cmath>
#include <sstream>
#include <unordered_set>

#include "common/bytes.h"
#include "core/detector_events.h"

namespace spot {

namespace {

void EmitInsert(DetectorEventSink* sink, const Subspace& s, SstSubset subset,
                double score) {
  if (sink == nullptr) return;
  DetectorEvent event;
  event.kind = DetectorEventKind::kSstInsert;
  event.subspace = s;
  event.a = static_cast<std::uint64_t>(subset);
  event.value = score;
  sink->OnDetectorEvent(event);
}

}  // namespace

Sst::Sst(std::size_t cs_capacity, std::size_t os_capacity)
    : cs_(cs_capacity), os_(os_capacity) {}

void Sst::SetFixed(std::vector<Subspace> fs) { fs_ = std::move(fs); }

bool Sst::InFixed(const Subspace& s) const {
  for (const auto& f : fs_) {
    if (f == s) return true;
  }
  return false;
}

void Sst::AddClustering(const Subspace& s, double score) {
  if (s.IsEmpty() || InFixed(s)) return;
  const bool existed = cs_.Contains(s);
  if (cs_.Insert(s, score) && !existed) {
    EmitInsert(sink_, s, SstSubset::kClustering, score);
  }
}

void Sst::AddOutlierDriven(const Subspace& s, double score) {
  if (s.IsEmpty() || InFixed(s)) return;
  const bool existed = os_.Contains(s);
  if (os_.Insert(s, score) && !existed) {
    EmitInsert(sink_, s, SstSubset::kOutlierDriven, score);
  }
}

void Sst::ClearClustering() {
  if (sink_ != nullptr && cs_.size() > 0) {
    DetectorEvent event;
    event.kind = DetectorEventKind::kSstClear;
    event.a = cs_.size();
    sink_->OnDetectorEvent(event);
  }
  cs_.Clear();
}

std::vector<Subspace> Sst::AllSubspaces() const {
  // CS and OS are enumerated via Ranked() — sorted by (score, subspace) —
  // not Members(), whose hash-map order depends on insertion/eviction
  // history. The detector tracks new grids in this order, so it must be a
  // function of SST *content* alone for a checkpoint-restored detector to
  // stay bit-identical with an uninterrupted one (see header comment).
  std::unordered_set<Subspace, SubspaceHash> seen;
  std::vector<Subspace> out;
  out.reserve(fs_.size() + cs_.size() + os_.size());
  for (const auto& s : fs_) {
    if (seen.insert(s).second) out.push_back(s);
  }
  for (const auto& ss : cs_.Ranked()) {
    if (seen.insert(ss.subspace).second) out.push_back(ss.subspace);
  }
  for (const auto& ss : os_.Ranked()) {
    if (seen.insert(ss.subspace).second) out.push_back(ss.subspace);
  }
  return out;
}

bool Sst::Contains(const Subspace& s) const {
  return InFixed(s) || cs_.Contains(s) || os_.Contains(s);
}

std::size_t Sst::TotalSize() const { return AllSubspaces().size(); }

void Sst::SaveState(ByteWriter& w) const {
  w.U64(fs_.size());
  for (const auto& s : fs_) w.U64(s.bits());
  const auto save_ranked = [&w](const RankedSubspaceSet& set) {
    const std::vector<ScoredSubspace> ranked = set.Ranked();
    w.U64(ranked.size());
    for (const auto& ss : ranked) {
      w.U64(ss.subspace.bits());
      w.F64(ss.score);
    }
  };
  save_ranked(cs_);
  save_ranked(os_);
}

bool Sst::LoadState(ByteReader& r) {
  const std::uint64_t nfs = r.U64();
  if (nfs > (1u << 24)) return r.Fail();
  std::vector<Subspace> fs;
  fs.reserve(static_cast<std::size_t>(nfs < (1u << 20) ? nfs : (1u << 20)));
  for (std::uint64_t i = 0; i < nfs && r.ok(); ++i) {
    fs.emplace_back(r.U64());
    if (fs.back().IsEmpty()) return r.Fail();
  }
  const auto load_ranked = [&r](RankedSubspaceSet* set) {
    const std::uint64_t n = r.U64();
    if (set->capacity() != 0 && n > set->capacity()) return r.Fail();
    set->Clear();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      const Subspace s(r.U64());
      const double score = r.F64();
      // No ranking orders a NaN score, so a set holding one would save in
      // an order that depends on its hash map's history.
      if (s.IsEmpty() || std::isnan(score) || !set->Insert(s, score)) {
        return r.Fail();
      }
    }
    return r.ok();
  };
  if (!r.ok()) return false;
  fs_ = std::move(fs);
  if (!load_ranked(&cs_)) return false;
  return load_ranked(&os_);
}

std::string Sst::Summary() const {
  std::ostringstream os;
  os << "SST: " << TotalSize() << " distinct subspaces\n";
  os << "  FS (" << fs_.size() << ")\n";
  os << "  CS (" << cs_.size() << "):";
  for (const auto& ss : cs_.Ranked()) {
    os << " " << ss.subspace.ToString();
  }
  os << "\n  OS (" << os_.size() << "):";
  for (const auto& ss : os_.Ranked()) {
    os << " " << ss.subspace.ToString();
  }
  os << "\n";
  return os.str();
}

}  // namespace spot
