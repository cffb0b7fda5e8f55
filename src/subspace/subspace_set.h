#ifndef SPOT_SUBSPACE_SUBSPACE_SET_H_
#define SPOT_SUBSPACE_SUBSPACE_SET_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "subspace/subspace.h"

namespace spot {

/// A subspace together with its sparsity score (lower = sparser = more
/// promising for projected-outlier detection).
struct ScoredSubspace {
  Subspace subspace;
  double score = 0.0;
};

/// An ordered, deduplicated, capacity-bounded collection of scored
/// subspaces. Used for the CS and OS subsets of the SST: insertion keeps the
/// best (lowest-score) `capacity` members; re-scoring supports the online
/// self-evolution re-ranking step.
class RankedSubspaceSet {
 public:
  /// `capacity` = 0 means unbounded.
  explicit RankedSubspaceSet(std::size_t capacity = 0);

  /// Inserts (or updates the score of) a subspace, then enforces capacity by
  /// evicting the worst-scored members. Returns true when `s` is present
  /// after the call.
  bool Insert(const Subspace& s, double score);

  /// As Insert, but a member keeps its score when that is already lower
  /// (better) than `score`: the set then holds each subspace's best score
  /// over every insertion.
  bool InsertBest(const Subspace& s, double score);

  /// Removes a subspace if present; returns whether it was present.
  bool Erase(const Subspace& s);

  bool Contains(const Subspace& s) const;

  /// Score lookup; returns `fallback` when absent.
  double ScoreOf(const Subspace& s, double fallback = 0.0) const;

  /// Members sorted ascending by score (best first), ties broken by the
  /// deterministic Subspace ordering.
  std::vector<ScoredSubspace> Ranked() const;

  /// The `k` best members (fewer if the set is smaller).
  std::vector<Subspace> TopK(std::size_t k) const;

  /// All member subspaces in unspecified order.
  std::vector<Subspace> Members() const;

  std::size_t size() const { return scores_.size(); }
  bool empty() const { return scores_.empty(); }
  std::size_t capacity() const { return capacity_; }

  void Clear() { scores_.clear(); }

 private:
  void EnforceCapacity();

  std::size_t capacity_;
  std::unordered_map<Subspace, double, SubspaceHash> scores_;
};

}  // namespace spot

#endif  // SPOT_SUBSPACE_SUBSPACE_SET_H_
