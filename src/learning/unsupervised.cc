#include "learning/unsupervised.h"

#include <algorithm>

#include "common/rng.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"

namespace spot {

std::vector<ScoredSubspace> LearnClusteringSubspaces(
    const std::vector<std::vector<double>>& training_data,
    const Partition& partition, const UnsupervisedConfig& config,
    std::uint64_t seed) {
  if (training_data.empty()) return {};
  Rng rng(seed);

  // Step 1: MOGA over the whole batch — global sparse subspaces.
  BatchSparsityObjectives global_obj(&partition, &training_data);
  Nsga2Config moga_cfg = config.moga;
  moga_cfg.seed = rng.NextUint64();
  const std::vector<ScoredSubspace> global_top =
      FindTopSparse(&global_obj, moga_cfg, config.top_subspaces_per_run);

  // Step 2: outlying degree of every training point via lead clustering
  // under multiple data orders.
  const std::vector<double> degrees =
      ComputeOutlyingDegrees(training_data, config.outlying_degree, rng);
  const std::vector<std::size_t> top_points =
      TopOutlyingIndices(degrees, config.top_outlying_points);

  // Step 3: MOGA targeted at each top outlying point individually ("MOGA
  // is applied again on the top training data to find their top sparse
  // subspaces"), seeded with the global discoveries. Distinct outliers hide
  // in distinct subspaces, so a per-point search is essential — a single
  // search over the whole set would blur their objectives together.
  std::vector<Subspace> seeds;
  seeds.reserve(global_top.size());
  for (const auto& ss : global_top) seeds.push_back(ss.subspace);

  // Keep the best (lowest) score seen for each discovered subspace.
  RankedSubspaceSet best;
  for (const auto& ss : global_top) best.InsertBest(ss.subspace, ss.score);

  const std::size_t per_point =
      std::max<std::size_t>(2, config.top_subspaces_per_run / 2);
  for (std::size_t point : top_points) {
    BatchSparsityObjectives targeted_obj(&partition, &training_data,
                                         {point});
    moga_cfg.seed = rng.NextUint64();
    for (const auto& ss :
         FindTopSparse(&targeted_obj, moga_cfg, per_point, seeds)) {
      best.InsertBest(ss.subspace, ss.score);
    }
  }
  return best.Ranked();
}

}  // namespace spot
