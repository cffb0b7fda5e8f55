#ifndef SPOT_LEARNING_SUPERVISED_H_
#define SPOT_LEARNING_SUPERVISED_H_

#include <cstdint>
#include <vector>

#include "grid/partition.h"
#include "moga/nsga2.h"
#include "subspace/subspace.h"
#include "subspace/subspace_set.h"

namespace spot {

/// Domain knowledge accepted by the supervised learning path (paper,
/// Section II-C1 "Supervised Learning").
struct DomainKnowledge {
  /// Labeled projected-outlier examples provided by experts.
  std::vector<std::vector<double>> outlier_examples;

  /// Attributes known to be relevant to the detection task; when non-empty,
  /// MOGA's search is restricted to this set ("removal of irrelevant
  /// attributes to speed up the learning process").
  std::vector<int> relevant_attributes;
};

/// Knobs of the supervised pipeline.
struct SupervisedConfig {
  Nsga2Config moga;
  std::size_t top_subspaces_per_example = 4;
};

/// Runs MOGA on each expert-provided outlier example against the training
/// batch and returns the union of their top sparse subspaces — the OS
/// subset of the SST. When `knowledge.relevant_attributes` is non-empty the
/// search lattice is restricted to those attributes; an attribute outside
/// [0, partition.num_dims()) yields no subspaces.
std::vector<ScoredSubspace> LearnOutlierDrivenSubspaces(
    const std::vector<std::vector<double>>& training_data,
    const Partition& partition, const DomainKnowledge& knowledge,
    const SupervisedConfig& config, std::uint64_t seed);

}  // namespace spot

#endif  // SPOT_LEARNING_SUPERVISED_H_
