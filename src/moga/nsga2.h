#ifndef SPOT_MOGA_NSGA2_H_
#define SPOT_MOGA_NSGA2_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "moga/objectives.h"
#include "subspace/subspace.h"

namespace spot {

/// One member of the NSGA-II population.
struct Individual {
  Subspace subspace;
  ObjectiveVector objectives;
  int rank = 0;              // non-domination rank (0 = Pareto front)
  double crowding = 0.0;     // crowding distance within its front
};

/// NSGA-II knobs.
struct Nsga2Config {
  int num_dims = 20;           // attribute count of the data
  int max_dimension = 4;       // dimensionality cap of candidate subspaces
  int population_size = 48;
  int generations = 30;
  double crossover_prob = 0.9;
  double mutation_prob = 0.0;  // 0 = auto (1 / num_dims per bit)
  std::uint64_t seed = 1;
};

/// Partitions `objs` into non-dominated fronts; returns per-front index
/// lists (front 0 first) and writes each element's rank into `ranks`.
std::vector<std::vector<std::size_t>> FastNonDominatedSort(
    const std::vector<ObjectiveVector>& objs, std::vector<int>* ranks);

/// Crowding distance of every member of `front` (indices into `objs`).
/// Boundary members get +infinity.
std::vector<double> CrowdingDistances(const std::vector<ObjectiveVector>& objs,
                                      const std::vector<std::size_t>& front);

/// The Multi-Objective Genetic Algorithm at SPOT's core: elitist NSGA-II
/// over the subspace lattice, minimizing the sparsity objectives of a batch.
class Nsga2 {
 public:
  /// `objectives` must outlive Run().
  Nsga2(const Nsga2Config& config, BatchSparsityObjectives* objectives);

  /// Evolves the population from a random initialization (optionally seeded
  /// with `seeds` — e.g. the current CS during self-evolution) and returns
  /// the final population, ranks and crowding assigned.
  std::vector<Individual> Run(const std::vector<Subspace>& seeds = {});

  /// The non-dominated (rank 0) members of `population`, deduplicated.
  static std::vector<Individual> ParetoFront(
      const std::vector<Individual>& population);

 private:
  std::vector<Individual> MakeOffspring(
      const std::vector<Individual>& parents);
  const Individual& Tournament(const std::vector<Individual>& pop);
  void Assign(std::vector<Individual>* pop);

  Nsga2Config config_;
  BatchSparsityObjectives* objectives_;
  Rng rng_;
};

}  // namespace spot

#endif  // SPOT_MOGA_NSGA2_H_
