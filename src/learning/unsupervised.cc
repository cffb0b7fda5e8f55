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
  Nsga2Config moga_cfg = config.moga;
  moga_cfg.seed = rng.NextUint64();  // the global search's seed, drawn first

  // Step 2 first (it draws from `rng` only after that seed, as it always
  // did): the outlying degree of every training point via lead clustering
  // under multiple data orders. Knowing the top points up front lets every
  // search of this batch share one table.
  const std::vector<double> degrees =
      ComputeOutlyingDegrees(training_data, config.outlying_degree, rng);
  const std::vector<std::size_t> top_points =
      TopOutlyingIndices(degrees, config.top_outlying_points);
  std::vector<TargetGroup> groups(1 + top_points.size());  // 0: every row
  for (std::size_t i = 0; i < top_points.size(); ++i) {
    groups[1 + i].rows = {top_points[i]};
  }
  SparsityTable table(&partition, &training_data, std::move(groups));

  // Step 1: MOGA over the whole batch — global sparse subspaces.
  BatchSparsityObjectives global_obj(&table, 0);
  const std::vector<ScoredSubspace> global_top =
      FindTopSparse(&global_obj, moga_cfg, config.top_subspaces_per_run);

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
  for (std::size_t i = 0; i < top_points.size(); ++i) {
    BatchSparsityObjectives targeted_obj(&table, 1 + i);
    moga_cfg.seed = rng.NextUint64();
    for (const auto& ss :
         FindTopSparse(&targeted_obj, moga_cfg, per_point, seeds)) {
      best.InsertBest(ss.subspace, ss.score);
    }
  }
  return best.Ranked();
}

}  // namespace spot
