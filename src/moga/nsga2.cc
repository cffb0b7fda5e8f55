#include "moga/nsga2.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "moga/operators.h"

namespace spot {

std::vector<std::vector<std::size_t>> FastNonDominatedSort(
    const std::vector<ObjectiveVector>& objs, std::vector<int>* ranks) {
  const std::size_t n = objs.size();
  std::vector<std::vector<std::size_t>> dominated(n);
  std::vector<int> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts;
  fronts.emplace_back();

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (Dominates(objs[p], objs[q])) {
        dominated[p].push_back(q);
      } else if (Dominates(objs[q], objs[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) fronts[0].push_back(p);
  }

  std::size_t i = 0;
  while (i < fronts.size() && !fronts[i].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[i]) {
      for (std::size_t q : dominated[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    if (!next.empty()) fronts.push_back(std::move(next));
    ++i;
  }

  if (ranks != nullptr) {
    ranks->assign(n, 0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      for (std::size_t p : fronts[f]) (*ranks)[p] = static_cast<int>(f);
    }
  }
  return fronts;
}

std::vector<double> CrowdingDistances(const std::vector<ObjectiveVector>& objs,
                                      const std::vector<std::size_t>& front) {
  const std::size_t n = front.size();
  std::vector<double> distance(n, 0.0);
  if (n == 0) return distance;
  if (n <= 2) {
    std::fill(distance.begin(), distance.end(),
              std::numeric_limits<double>::infinity());
    return distance;
  }
  std::vector<std::size_t> order(n);
  for (std::size_t obj = 0; obj < kNumObjectives; ++obj) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return objs[front[a]].values[obj] < objs[front[b]].values[obj];
    });
    const double lo = objs[front[order.front()]].values[obj];
    const double hi = objs[front[order.back()]].values[obj];
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    const double range = hi - lo;
    if (range <= 0.0) continue;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      const double prev = objs[front[order[i - 1]]].values[obj];
      const double next = objs[front[order[i + 1]]].values[obj];
      distance[order[i]] += (next - prev) / range;
    }
  }
  return distance;
}

Nsga2::Nsga2(const Nsga2Config& config,
             BatchSparsityObjectives* objectives)
    : config_(config), objectives_(objectives), rng_(config.seed) {
  if (config_.mutation_prob <= 0.0) {
    config_.mutation_prob = 1.0 / std::max(1, config_.num_dims);
  }
}

void Nsga2::Assign(std::vector<Individual>* pop) {
  std::vector<ObjectiveVector> objs;
  objs.reserve(pop->size());
  for (const auto& ind : *pop) objs.push_back(ind.objectives);
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  for (std::size_t i = 0; i < pop->size(); ++i) (*pop)[i].rank = ranks[i];
  for (const auto& front : fronts) {
    const std::vector<double> crowd = CrowdingDistances(objs, front);
    for (std::size_t i = 0; i < front.size(); ++i) {
      (*pop)[front[i]].crowding = crowd[i];
    }
  }
}

const Individual& Nsga2::Tournament(const std::vector<Individual>& pop) {
  const Individual& a =
      pop[static_cast<std::size_t>(rng_.NextUint64(pop.size()))];
  const Individual& b =
      pop[static_cast<std::size_t>(rng_.NextUint64(pop.size()))];
  if (a.rank != b.rank) return a.rank < b.rank ? a : b;
  return a.crowding > b.crowding ? a : b;
}

std::vector<Individual> Nsga2::MakeOffspring(
    const std::vector<Individual>& parents) {
  std::vector<Individual> offspring;
  offspring.reserve(parents.size());
  while (offspring.size() < parents.size()) {
    const Individual& p1 = Tournament(parents);
    const Individual& p2 = Tournament(parents);
    Subspace child = rng_.NextBernoulli(config_.crossover_prob)
                         ? UniformCrossover(p1.subspace, p2.subspace, rng_)
                         : p1.subspace;
    child = BitFlipMutation(child, config_.num_dims, config_.mutation_prob,
                            rng_);
    child = Repair(child, config_.num_dims, config_.max_dimension, rng_);
    Individual ind;
    ind.subspace = child;
    ind.objectives = objectives_->Evaluate(child);
    offspring.push_back(std::move(ind));
  }
  return offspring;
}

std::vector<Individual> Nsga2::Run(const std::vector<Subspace>& seeds) {
  std::vector<Individual> pop;
  pop.reserve(static_cast<std::size_t>(config_.population_size));
  for (const Subspace& s : seeds) {
    if (static_cast<int>(pop.size()) >= config_.population_size) break;
    Individual ind;
    ind.subspace = Repair(s, config_.num_dims, config_.max_dimension, rng_);
    ind.objectives = objectives_->Evaluate(ind.subspace);
    pop.push_back(std::move(ind));
  }
  while (static_cast<int>(pop.size()) < config_.population_size) {
    Individual ind;
    ind.subspace = RandomSubspace(config_.num_dims, config_.max_dimension,
                                  rng_);
    ind.objectives = objectives_->Evaluate(ind.subspace);
    pop.push_back(std::move(ind));
  }
  Assign(&pop);

  for (int gen = 0; gen < config_.generations; ++gen) {
    std::vector<Individual> combined = pop;
    std::vector<Individual> offspring = MakeOffspring(pop);
    combined.insert(combined.end(),
                    std::make_move_iterator(offspring.begin()),
                    std::make_move_iterator(offspring.end()));
    Assign(&combined);

    // (mu + lambda) elitist survival: best fronts first, crowding breaks
    // ties within the last admitted front.
    std::sort(combined.begin(), combined.end(),
              [](const Individual& a, const Individual& b) {
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.crowding > b.crowding;
              });
    combined.resize(static_cast<std::size_t>(config_.population_size));
    pop = std::move(combined);
    Assign(&pop);
  }
  return pop;
}

std::vector<Individual> Nsga2::ParetoFront(
    const std::vector<Individual>& population) {
  std::vector<Individual> front;
  std::unordered_set<Subspace, SubspaceHash> seen;
  for (const auto& ind : population) {
    if (ind.rank == 0 && seen.insert(ind.subspace).second) {
      front.push_back(ind);
    }
  }
  return front;
}

}  // namespace spot
