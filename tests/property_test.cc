// Parameterized property tests (TEST_P sweeps) over the library's core
// invariants: the (omega, epsilon) decay contract, lattice cardinalities,
// NSGA-II front invariants, and PCS semantics across grid resolutions.

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "grid/decay.h"
#include "grid/partition.h"
#include "grid/projected_grid.h"
#include "moga/nsga2.h"
#include "moga/objectives.h"
#include "subspace/lattice.h"

namespace spot {
namespace {

// ----------------------------------------- (omega, epsilon) contract ------

class DecayContractTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(DecayContractTest, ResidualOutOfWindowWeightBounded) {
  const auto [omega, epsilon] = GetParam();
  const DecayModel model(omega, epsilon);
  // Feed exactly omega points, then age them all past the window edge: the
  // surviving total weight must be <= epsilon (the paper's contract).
  DecayedCounter counter(model);
  for (std::uint64_t t = 0; t < omega; ++t) counter.Observe(t);
  const double residual = counter.WeightAt(2 * omega);
  EXPECT_LE(residual, epsilon * (1.0 + 1e-9));
}

TEST_P(DecayContractTest, AlphaWithinUnitInterval) {
  const auto [omega, epsilon] = GetParam();
  const DecayModel model(omega, epsilon);
  EXPECT_GT(model.alpha(), 0.0);
  EXPECT_LT(model.alpha(), 1.0);
}

TEST_P(DecayContractTest, InWindowWeightDominatesOutOfWindow) {
  const auto [omega, epsilon] = GetParam();
  const DecayModel model(omega, epsilon);
  // Weight of the newest omega points vs everything older, at steady state:
  // in-window share must be at least (1 - epsilon) of a window's total.
  const double total = model.SteadyStateWeight();
  double in_window = 0.0;
  for (std::uint64_t a = 0; a < omega; ++a) in_window += model.WeightAtAge(a);
  EXPECT_NEAR(total - in_window, epsilon, 1e-6 * total);
}

INSTANTIATE_TEST_SUITE_P(
    OmegaEpsilonSweep, DecayContractTest,
    ::testing::Combine(::testing::Values(10, 100, 1000, 10000),
                       ::testing::Values(0.1, 0.01, 0.001)));

// ------------------------------------------------ Lattice cardinality -----

class LatticeCardinalityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LatticeCardinalityTest, EnumerationMatchesClosedForm) {
  const auto [num_dims, max_dim] = GetParam();
  const auto lattice = EnumerateLattice(num_dims, max_dim);
  EXPECT_EQ(lattice.size(), LatticeSize(num_dims, max_dim));
  for (const auto& s : lattice) {
    EXPECT_GE(s.Dimension(), 1);
    EXPECT_LE(s.Dimension(), max_dim);
    EXPECT_LT(s.bits(), 1ULL << num_dims);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, LatticeCardinalityTest,
    ::testing::Combine(::testing::Values(3, 6, 10, 14),
                       ::testing::Values(1, 2, 3)));

// --------------------------------------------- Partition quantization -----

class PartitionQuantizationTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionQuantizationTest, EveryValueMapsToValidInterval) {
  const int cells = GetParam();
  const Partition p(1, cells, -3.0, 7.0);
  Rng rng(static_cast<std::uint64_t>(cells));
  for (int i = 0; i < 2000; ++i) {
    const double v = rng.NextDouble(-10.0, 14.0);  // includes out-of-range
    const std::uint32_t idx = p.IntervalIndex(0, v);
    EXPECT_LT(idx, static_cast<std::uint32_t>(cells));
  }
}

TEST_P(PartitionQuantizationTest, IntervalIsMonotoneInValue) {
  const int cells = GetParam();
  const Partition p(1, cells, 0.0, 1.0);
  std::uint32_t prev = 0;
  for (double v = 0.0; v <= 1.0; v += 0.001) {
    const std::uint32_t idx = p.IntervalIndex(0, v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST_P(PartitionQuantizationTest, CellWidthTimesCellsCoversRange) {
  const int cells = GetParam();
  const Partition p(1, cells, -3.0, 7.0);
  EXPECT_NEAR(p.CellWidth(0) * cells, 10.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(CellSweep, PartitionQuantizationTest,
                         ::testing::Values(2, 5, 10, 50, 1000));

// ----------------------------------------- PCS across grid resolutions ----

class PcsResolutionTest : public ::testing::TestWithParam<int> {};

TEST_P(PcsResolutionTest, IsolatedPointSparserThanClusterMember) {
  const int cells = GetParam();
  const Partition part(2, cells, 0.0, 1.0);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  Rng rng(7);
  std::uint64_t t = 0;
  for (int i = 0; i < 400; ++i) {
    grid.Add({0.3 + 0.01 * rng.NextGaussian(), 0.5}, t++);
  }
  grid.Add({0.95, 0.5}, t++);
  const Pcs cluster = grid.Query({0.3, 0.5}, 401.0);
  const Pcs isolated = grid.Query({0.95, 0.5}, 401.0);
  EXPECT_LT(isolated.rd, cluster.rd);
  EXPECT_LE(isolated.irsd, cluster.irsd + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ResolutionSweep, PcsResolutionTest,
                         ::testing::Values(4, 8, 10, 16, 32));

// ----------------------------------------------- NSGA-II invariants -------

class Nsga2InvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(Nsga2InvariantTest, PopulationSizeAndBoundsPreserved) {
  const int pop_size = GetParam();
  Rng data_rng(3);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back({data_rng.NextDouble(), data_rng.NextDouble(),
                    data_rng.NextDouble(), data_rng.NextDouble(),
                    data_rng.NextDouble()});
  }
  const Partition part(5, 8, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &data);
  Nsga2Config cfg;
  cfg.num_dims = 5;
  cfg.max_dimension = 3;
  cfg.population_size = pop_size;
  cfg.generations = 4;
  cfg.seed = static_cast<std::uint64_t>(pop_size);
  Nsga2 nsga2(cfg, &obj);
  const auto pop = nsga2.Run();
  ASSERT_EQ(pop.size(), static_cast<std::size_t>(pop_size));
  bool saw_rank0 = false;
  for (const auto& ind : pop) {
    EXPECT_GE(ind.subspace.Dimension(), 1);
    EXPECT_LE(ind.subspace.Dimension(), 3);
    EXPECT_GE(ind.rank, 0);
    if (ind.rank == 0) saw_rank0 = true;
    EXPECT_EQ(ind.objectives.values[2],
              static_cast<double>(ind.subspace.Dimension()));  // f3 = |s|
  }
  EXPECT_TRUE(saw_rank0);
}

TEST_P(Nsga2InvariantTest, FinalFrontIsMutuallyNonDominated) {
  const int pop_size = GetParam();
  Rng data_rng(5);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 80; ++i) {
    data.push_back({data_rng.NextDouble(), data_rng.NextDouble(),
                    data_rng.NextDouble(), data_rng.NextDouble()});
  }
  const Partition part(4, 8, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &data);
  Nsga2Config cfg;
  cfg.num_dims = 4;
  cfg.max_dimension = 2;
  cfg.population_size = pop_size;
  cfg.generations = 3;
  Nsga2 nsga2(cfg, &obj);
  const auto front = Nsga2::ParetoFront(nsga2.Run());
  for (const auto& a : front) {
    for (const auto& b : front) {
      EXPECT_FALSE(Dominates(a.objectives, b.objectives))
          << a.subspace.ToString() << " dominates " << b.subspace.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PopSweep, Nsga2InvariantTest,
                         ::testing::Values(8, 16, 32));

// -------------------------------------------- Decayed-count coherence -----

class GridDecayCoherenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(GridDecayCoherenceTest, CellCountsNeverExceedTotalWeight) {
  const auto [omega, epsilon] = GetParam();
  const Partition part(2, 8, 0.0, 1.0);
  ProjectedGrid grid(Subspace::FromIndices({0, 1}), &part,
                     DecayModel(omega, epsilon));
  Rng rng(omega);
  double total = 0.0;
  const DecayModel model(omega, epsilon);
  std::uint64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    grid.Add({rng.NextDouble(), rng.NextDouble()}, t);
    total = total * model.alpha() + 1.0;
    ++t;
  }
  // Probe a handful of cells; no decayed cell count may exceed the decayed
  // total stream weight.
  for (int i = 0; i < 50; ++i) {
    const Pcs pcs =
        grid.Query({rng.NextDouble(), rng.NextDouble()}, total);
    EXPECT_LE(pcs.count, total * (1.0 + 1e-9));
    EXPECT_GE(pcs.count, 0.0);
    EXPECT_GE(pcs.rd, 0.0);
    EXPECT_GE(pcs.irsd, 0.0);
    EXPECT_LE(pcs.irsd, Pcs::kIrsdCap);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecaySweep, GridDecayCoherenceTest,
    ::testing::Combine(::testing::Values(50, 500, 5000),
                       ::testing::Values(0.1, 0.001)));

}  // namespace
}  // namespace spot
