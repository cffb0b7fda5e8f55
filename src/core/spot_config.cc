#include "core/spot_config.h"

#include <cmath>
#include <utility>

namespace spot {

std::string SpotConfig::Validate() const {
  // Every double the config serializes (WriteConfigBinary) must be finite,
  // and each range check below is written so that NaN fails it too.
  const std::pair<const char*, double> reals[] = {
      {"epsilon", epsilon},
      {"partition_margin", partition_margin},
      {"domain_lo", domain_lo},
      {"domain_hi", domain_hi},
      {"rd_threshold", rd_threshold},
      {"irsd_threshold", irsd_threshold},
      {"fringe_factor", fringe_factor},
      {"unsupervised moga crossover_prob", unsupervised.moga.crossover_prob},
      {"unsupervised moga mutation_prob", unsupervised.moga.mutation_prob},
      {"outlying_degree threshold", unsupervised.outlying_degree.threshold},
      {"outlying_degree threshold_scale",
       unsupervised.outlying_degree.threshold_scale},
      {"supervised moga crossover_prob", supervised.moga.crossover_prob},
      {"supervised moga mutation_prob", supervised.moga.mutation_prob},
      {"evolution mutation_prob", evolution.mutation_prob},
      {"drift_delta", drift_delta},
      {"drift_lambda", drift_lambda},
      {"prune_threshold", prune_threshold},
  };
  for (const auto& [name, value] : reals) {
    if (!std::isfinite(value)) return std::string(name) + " must be finite";
  }
  if (omega == 0) return "omega must be positive";
  if (!(epsilon > 0.0 && epsilon < 1.0)) return "epsilon must be in (0, 1)";
  if (cells_per_dim < 2) return "cells_per_dim must be at least 2";
  if (fs_max_dimension < 0) return "fs_max_dimension must be non-negative";
  if (!(rd_threshold >= 0.0)) return "rd_threshold must be non-negative";
  if (!(irsd_threshold >= 0.0)) return "irsd_threshold must be non-negative";
  if (!(partition_margin >= 0.0)) {
    return "partition_margin must be non-negative";
  }
  if (!(prune_threshold >= 0.0)) return "prune_threshold must be non-negative";
  if (drift_detection && !(drift_lambda > 0.0)) {
    return "drift_lambda must be positive when drift detection is enabled";
  }
  for (const Nsga2Config* moga : {&unsupervised.moga, &supervised.moga}) {
    if (moga->population_size < 2 ||
        moga->population_size > kMaxMogaPopulation) {
      return "moga population_size must be in [2, " +
             std::to_string(kMaxMogaPopulation) + "]";
    }
    if (moga->generations < 1 || moga->generations > kMaxMogaGenerations) {
      return "moga generations must be in [1, " +
             std::to_string(kMaxMogaGenerations) + "]";
    }
  }
  if (unsupervised.outlying_degree.num_runs < 1 ||
      unsupervised.outlying_degree.num_runs > kMaxOutlyingRuns) {
    return "outlying_degree num_runs must be in [1, " +
           std::to_string(kMaxOutlyingRuns) + "]";
  }
  if (unsupervised.top_outlying_points > kMaxTopOutlyingPoints) {
    return "top_outlying_points must be at most " +
           std::to_string(kMaxTopOutlyingPoints);
  }
  if (num_shards > kMaxShards) {
    return "num_shards must be at most " + std::to_string(kMaxShards);
  }
  if (reservoir_capacity > kMaxRetainedPoints) {
    return "reservoir_capacity must be at most " +
           std::to_string(kMaxRetainedPoints);
  }
  if (topk_capacity > kMaxRetainedPoints) {
    return "topk_capacity must be at most " +
           std::to_string(kMaxRetainedPoints);
  }
  if (fs_cap > kMaxSubspaces) {
    return "fs_cap must be at most " + std::to_string(kMaxSubspaces);
  }
  if (evolution.offspring > kMaxSubspaces) {
    return "evolution offspring must be at most " +
           std::to_string(kMaxSubspaces);
  }
  return "";
}

}  // namespace spot
