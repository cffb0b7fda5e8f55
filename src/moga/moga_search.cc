#include "moga/moga_search.h"

#include "subspace/lattice.h"

namespace spot {

std::vector<ScoredSubspace> FindTopSparse(
    BatchSparsityObjectives* objectives, const Nsga2Config& config,
    std::size_t k, const std::vector<Subspace>& seeds) {
  Nsga2(config, objectives).Run(seeds);

  // Rank everything the search ever evaluated: the memo table is the
  // search archive, and it holds every member of every population (a
  // converged final population may hold only a handful of distinct
  // subspaces). A seed past the population size, or one that Repair
  // changed, entered no population as given, so the seed itself is scored
  // here.
  RankedSubspaceSet ranked;
  std::vector<std::pair<Subspace, double>> archive;
  objectives->AppendEvaluated(&archive);
  for (const auto& [subspace, score] : archive) {
    ranked.Insert(subspace, score);
  }
  for (const auto& s : seeds) {
    if (!s.IsEmpty()) ranked.Insert(s, objectives->SparsityScore(s));
  }
  std::vector<ScoredSubspace> top = ranked.Ranked();
  if (top.size() > k) top.resize(k);
  return top;
}

std::vector<ScoredSubspace> ExhaustiveTopSparse(
    BatchSparsityObjectives* objectives, int num_dims, int max_dim,
    std::size_t k) {
  RankedSubspaceSet ranked;
  for (const Subspace& s : EnumerateLattice(num_dims, max_dim)) {
    ranked.Insert(s, objectives->SparsityScore(s));
  }
  std::vector<ScoredSubspace> top = ranked.Ranked();
  if (top.size() > k) top.resize(k);
  return top;
}

}  // namespace spot
