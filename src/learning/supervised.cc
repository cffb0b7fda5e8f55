#include "learning/supervised.h"

#include <algorithm>

#include "common/rng.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"

namespace spot {

namespace {

// Projects rows onto the listed attributes.
std::vector<std::vector<double>> ProjectRows(
    const std::vector<std::vector<double>>& rows, const std::vector<int>& dims) {
  std::vector<std::vector<double>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<double> r;
    r.reserve(dims.size());
    for (int d : dims) r.push_back(row[static_cast<std::size_t>(d)]);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

std::vector<ScoredSubspace> LearnOutlierDrivenSubspaces(
    const std::vector<std::vector<double>>& training_data,
    const Partition& partition, const DomainKnowledge& knowledge,
    const SupervisedConfig& config, std::uint64_t seed) {
  if (training_data.empty() || knowledge.outlier_examples.empty()) return {};
  Rng rng(seed);

  // Attribute-relevance restriction: remap the problem onto the relevant
  // attributes, search there, then map discovered subspaces back.
  std::vector<int> relevant = knowledge.relevant_attributes;
  std::sort(relevant.begin(), relevant.end());
  relevant.erase(std::unique(relevant.begin(), relevant.end()),
                 relevant.end());
  const bool restricted = !relevant.empty();
  if (restricted &&
      (relevant.front() < 0 || relevant.back() >= partition.num_dims())) {
    return {};
  }

  std::vector<int> dims;  // reduced index -> original attribute
  if (restricted) {
    dims = relevant;
  } else {
    dims.resize(static_cast<std::size_t>(partition.num_dims()));
    for (std::size_t i = 0; i < dims.size(); ++i) dims[i] = static_cast<int>(i);
  }

  std::vector<double> lo;
  std::vector<double> hi;
  lo.reserve(dims.size());
  hi.reserve(dims.size());
  for (int d : dims) {
    lo.push_back(partition.lo(d));
    hi.push_back(partition.hi(d));
  }
  const Partition reduced_partition(lo, hi, partition.cells_per_dim());
  // Only the relevance restriction needs projected rows; otherwise every
  // search borrows the training rows as they are.
  const std::vector<std::vector<double>> projected_training =
      restricted ? ProjectRows(training_data, dims)
                 : std::vector<std::vector<double>>();
  const std::vector<std::vector<double>>* sample =
      restricted ? &projected_training : &training_data;

  Nsga2Config moga_cfg = config.moga;
  moga_cfg.num_dims = static_cast<int>(dims.size());
  moga_cfg.max_dimension = std::min(moga_cfg.max_dimension,
                                    static_cast<int>(dims.size()));

  // One table for the round: group i is example i appended to the sample,
  // so the searches score each subspace of the sample once between them.
  const std::vector<std::vector<double>> projected_examples =
      restricted ? ProjectRows(knowledge.outlier_examples, dims)
                 : std::vector<std::vector<double>>();
  const std::vector<std::vector<double>>& examples =
      restricted ? projected_examples : knowledge.outlier_examples;
  std::vector<TargetGroup> groups(examples.size());
  for (std::size_t i = 0; i < examples.size(); ++i) {
    groups[i].appended = &examples[i];
  }
  SparsityTable table(&reduced_partition, sample, std::move(groups));

  // Best score per discovered subspace across all examples.
  RankedSubspaceSet best;

  for (std::size_t i = 0; i < examples.size(); ++i) {
    BatchSparsityObjectives obj(&table, i);
    moga_cfg.seed = rng.NextUint64();
    for (const auto& ss :
         FindTopSparse(&obj, moga_cfg, config.top_subspaces_per_example)) {
      // Map reduced attribute indices back to original ones.
      Subspace mapped;
      for (int d : ss.subspace.Indices()) {
        mapped.Add(dims[static_cast<std::size_t>(d)]);
      }
      best.InsertBest(mapped, ss.score);
    }
  }
  return best.Ranked();
}

}  // namespace spot
