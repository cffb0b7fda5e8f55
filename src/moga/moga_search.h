#ifndef SPOT_MOGA_MOGA_SEARCH_H_
#define SPOT_MOGA_MOGA_SEARCH_H_

#include <cstddef>
#include <vector>

#include "moga/nsga2.h"
#include "moga/objectives.h"
#include "subspace/subspace_set.h"

namespace spot {

/// "Find the top sparse subspaces of these points": the operation the
/// learning stage runs on training data, on each top outlying training
/// point, on expert outlier examples, and on every freshly detected outlier
/// (OS growth). Runs NSGA-II over `objectives` (optionally seeded) and
/// returns the `k` sparsest distinct subspaces discovered, best (lowest
/// SparsityScore) first. Every subspace the search evaluated is considered,
/// not just the final Pareto front, so good early discoveries are never
/// lost.
std::vector<ScoredSubspace> FindTopSparse(
    BatchSparsityObjectives* objectives, const Nsga2Config& config,
    std::size_t k, const std::vector<Subspace>& seeds = {});

/// Exhaustive reference search: scores every subspace of dimension
/// 1..max_dim and returns the `k` sparsest. Tractable only for small
/// attribute counts; used by tests and the MOGA-quality experiment (E7).
std::vector<ScoredSubspace> ExhaustiveTopSparse(
    BatchSparsityObjectives* objectives, int num_dims, int max_dim,
    std::size_t k);

}  // namespace spot

#endif  // SPOT_MOGA_MOGA_SEARCH_H_
