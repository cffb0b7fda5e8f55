#include "subspace/subspace_set.h"

#include <algorithm>

namespace spot {

RankedSubspaceSet::RankedSubspaceSet(std::size_t capacity)
    : capacity_(capacity) {}

bool RankedSubspaceSet::Insert(const Subspace& s, double score) {
  if (s.IsEmpty()) return false;
  scores_[s] = score;
  EnforceCapacity();
  return Contains(s);
}

bool RankedSubspaceSet::InsertBest(const Subspace& s, double score) {
  if (s.IsEmpty()) return false;
  const auto [it, inserted] = scores_.try_emplace(s, score);
  if (!inserted && score < it->second) it->second = score;
  EnforceCapacity();
  return Contains(s);
}

bool RankedSubspaceSet::Erase(const Subspace& s) {
  return scores_.erase(s) > 0;
}

bool RankedSubspaceSet::Contains(const Subspace& s) const {
  return scores_.find(s) != scores_.end();
}

double RankedSubspaceSet::ScoreOf(const Subspace& s, double fallback) const {
  auto it = scores_.find(s);
  return it == scores_.end() ? fallback : it->second;
}

std::vector<ScoredSubspace> RankedSubspaceSet::Ranked() const {
  std::vector<ScoredSubspace> out;
  out.reserve(scores_.size());
  for (const auto& [subspace, score] : scores_) {
    out.push_back({subspace, score});
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredSubspace& a, const ScoredSubspace& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.subspace < b.subspace;
            });
  return out;
}

std::vector<Subspace> RankedSubspaceSet::TopK(std::size_t k) const {
  std::vector<ScoredSubspace> ranked = Ranked();
  if (ranked.size() > k) ranked.resize(k);
  std::vector<Subspace> out;
  out.reserve(ranked.size());
  for (const auto& ss : ranked) out.push_back(ss.subspace);
  return out;
}

std::vector<Subspace> RankedSubspaceSet::Members() const {
  std::vector<Subspace> out;
  out.reserve(scores_.size());
  for (const auto& [subspace, score] : scores_) out.push_back(subspace);
  return out;
}

void RankedSubspaceSet::EnforceCapacity() {
  if (capacity_ == 0 || scores_.size() <= capacity_) return;
  std::vector<ScoredSubspace> ranked = Ranked();
  for (std::size_t i = capacity_; i < ranked.size(); ++i) {
    scores_.erase(ranked[i].subspace);
  }
}

}  // namespace spot
