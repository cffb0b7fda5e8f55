// Unit tests of src/grid fundamentals: equi-width partition, the
// (omega, epsilon) decay model, and Base Cell Summaries.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "grid/base_grid.h"
#include "grid/bcs.h"
#include "grid/decay.h"
#include "grid/partition.h"

namespace spot {
namespace {

// ---------------------------------------------------------- Partition ----

TEST(PartitionTest, UniformDomainBasics) {
  const Partition p(3, 10, 0.0, 1.0);
  EXPECT_EQ(p.num_dims(), 3);
  EXPECT_EQ(p.cells_per_dim(), 10);
  EXPECT_DOUBLE_EQ(p.CellWidth(0), 0.1);
  EXPECT_EQ(p.IntervalIndex(0, 0.0), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 0.05), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 0.15), 1u);
  EXPECT_EQ(p.IntervalIndex(0, 0.999), 9u);
}

TEST(PartitionTest, BoundaryValueGoesToLastCell) {
  const Partition p(1, 10, 0.0, 1.0);
  EXPECT_EQ(p.IntervalIndex(0, 1.0), 9u);
}

TEST(PartitionTest, OutOfRangeClamps) {
  const Partition p(1, 10, 0.0, 1.0);
  EXPECT_EQ(p.IntervalIndex(0, -5.0), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 42.0), 9u);
}

TEST(PartitionTest, DegenerateRangeWidened) {
  const Partition p({2.0}, {2.0}, 10);  // hi == lo
  EXPECT_GT(p.hi(0), p.lo(0));
  EXPECT_EQ(p.IntervalIndex(0, 2.0), 0u);
}

TEST(PartitionTest, PerDimensionDomains) {
  const Partition p({0.0, -10.0}, {1.0, 10.0}, 4);
  EXPECT_DOUBLE_EQ(p.CellWidth(0), 0.25);
  EXPECT_DOUBLE_EQ(p.CellWidth(1), 5.0);
  EXPECT_EQ(p.IntervalIndex(1, -10.0), 0u);
  EXPECT_EQ(p.IntervalIndex(1, 0.0), 2u);
  EXPECT_EQ(p.IntervalIndex(1, 9.99), 3u);
}

TEST(PartitionTest, BaseCellCoordinates) {
  const Partition p(3, 10, 0.0, 1.0);
  const CellCoords c = p.BaseCell({0.05, 0.55, 0.95});
  EXPECT_EQ(c, (CellCoords{0, 5, 9}));
}

TEST(PartitionTest, ProjectedCellPicksSubspaceDims) {
  const Partition p(4, 10, 0.0, 1.0);
  const std::vector<double> point = {0.05, 0.15, 0.25, 0.35};
  const Subspace s = Subspace::FromIndices({1, 3});
  EXPECT_EQ(p.ProjectedCell(point, s), (CellCoords{1, 3}));
}

TEST(PartitionTest, ProjectBaseCellConsistentWithProjectedCell) {
  const Partition p(5, 8, 0.0, 1.0);
  const std::vector<double> point = {0.1, 0.3, 0.5, 0.7, 0.9};
  const Subspace s = Subspace::FromIndices({0, 2, 4});
  EXPECT_EQ(p.ProjectBaseCell(p.BaseCell(point), s),
            p.ProjectedCell(point, s));
}

TEST(PartitionTest, FitToDataCoversAllPoints) {
  const std::vector<std::vector<double>> data = {
      {0.0, 5.0}, {1.0, -3.0}, {0.5, 2.0}};
  const Partition p = Partition::FitToData(data, 10);
  for (const auto& row : data) {
    EXPECT_LE(p.lo(0), row[0]);
    EXPECT_GE(p.hi(0), row[0]);
    EXPECT_LE(p.lo(1), row[1]);
    EXPECT_GE(p.hi(1), row[1]);
  }
  // Margin strictly widens the range.
  EXPECT_LT(p.lo(1), -3.0);
  EXPECT_GT(p.hi(1), 5.0);
}

TEST(PartitionTest, FitToEmptyDataYieldsUnitDomain) {
  const Partition p = Partition::FitToData({}, 10);
  EXPECT_EQ(p.num_dims(), 1);
}

TEST(PartitionTest, CellsPerDimClampedToAtLeastOne) {
  const Partition p(2, 0, 0.0, 1.0);
  EXPECT_GE(p.cells_per_dim(), 1);
}

// ----------------------------------------------------------- DecayModel --

TEST(DecayModelTest, SolveAlphaSatisfiesContract) {
  for (std::uint64_t omega : {10u, 100u, 1000u}) {
    for (double epsilon : {0.1, 0.01, 0.001}) {
      const double alpha = DecayModel::SolveAlpha(omega, epsilon);
      ASSERT_GT(alpha, 0.0);
      ASSERT_LT(alpha, 1.0);
      // Residual out-of-window weight: alpha^omega / (1 - alpha) == epsilon.
      const double residual =
          std::pow(alpha, static_cast<double>(omega)) / (1.0 - alpha);
      EXPECT_NEAR(residual, epsilon, 1e-6 * epsilon + 1e-12)
          << "omega=" << omega << " eps=" << epsilon;
    }
  }
}

TEST(DecayModelTest, TighterEpsilonMeansStrongerDecay) {
  const DecayModel loose(1000, 0.1);
  const DecayModel tight(1000, 0.001);
  EXPECT_GT(loose.alpha(), tight.alpha());
}

TEST(DecayModelTest, LargerWindowMeansWeakerDecay) {
  const DecayModel small(100, 0.01);
  const DecayModel large(10000, 0.01);
  EXPECT_LT(small.alpha(), large.alpha());
}

TEST(DecayModelTest, WeightAtAgeIsGeometric) {
  const DecayModel m(100, 0.01);
  EXPECT_DOUBLE_EQ(m.WeightAtAge(0), 1.0);
  EXPECT_NEAR(m.WeightAtAge(2), m.alpha() * m.alpha(), 1e-12);
  EXPECT_GT(m.WeightAtAge(10), m.WeightAtAge(20));

  // Memoized or computed, every weight has std::pow's exact bit pattern —
  // checkpoints and verdicts depend on it — at every age around the table
  // boundary and at a few large ages, for two time models (and for the
  // grids' copies, which share the table).
  auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  for (const DecayModel& model :
       {DecayModel(100, 0.01), DecayModel(2000, 0.001)}) {
    const DecayModel copy = model;
    std::vector<std::uint64_t> ages;
    for (std::uint64_t a = 0; a <= 512; ++a) ages.push_back(a);
    for (std::uint64_t a : {1000u, 4096u, 65537u, 1000003u}) ages.push_back(a);
    for (std::uint64_t a : ages) {
      const double expected = std::pow(model.alpha(), static_cast<double>(a));
      ASSERT_EQ(bits(model.WeightAtAge(a)), bits(expected)) << "age " << a;
      ASSERT_EQ(bits(copy.WeightAtAge(a)), bits(expected)) << "age " << a;
    }
  }
}

TEST(DecayModelTest, NoneModelNeverDecays) {
  const DecayModel m = DecayModel::None();
  EXPECT_DOUBLE_EQ(m.alpha(), 1.0);
  EXPECT_DOUBLE_EQ(m.WeightAtAge(1000000), 1.0);
  EXPECT_TRUE(std::isinf(m.SteadyStateWeight()));
}

TEST(DecayModelTest, SteadyStateWeightMatchesGeometricSum) {
  const DecayModel m(1000, 0.01);
  EXPECT_NEAR(m.SteadyStateWeight(), 1.0 / (1.0 - m.alpha()), 1e-9);
}

TEST(DecayedCounterTest, MatchesBruteForceSum) {
  const DecayModel m(50, 0.01);
  DecayedCounter counter(m);
  for (std::uint64_t t = 0; t < 200; ++t) counter.Observe(t);
  // Brute force: sum of alpha^(199 - t) over all arrivals.
  double expected = 0.0;
  for (std::uint64_t t = 0; t < 200; ++t) {
    expected += m.WeightAtAge(199 - t);
  }
  EXPECT_NEAR(counter.WeightAt(199), expected, 1e-9);
}

TEST(DecayedCounterTest, WeightDecaysBetweenArrivals) {
  const DecayModel m(50, 0.01);
  DecayedCounter counter(m);
  counter.Observe(0);
  EXPECT_DOUBLE_EQ(counter.WeightAt(0), 1.0);
  EXPECT_NEAR(counter.WeightAt(10), m.WeightAtAge(10), 1e-12);
}

TEST(DecayedCounterTest, EmptyCounterIsZero) {
  const DecayModel m(50, 0.01);
  const DecayedCounter counter(m);
  EXPECT_DOUBLE_EQ(counter.WeightAt(123), 0.0);
}

TEST(DecayedCounterTest, WindowResidualBoundHolds) {
  // The (omega, epsilon) contract end-to-end: feed omega points, then let
  // them age out; their surviving weight must be <= epsilon.
  const std::uint64_t omega = 100;
  const double epsilon = 0.01;
  const DecayModel m(omega, epsilon);
  DecayedCounter counter(m);
  for (std::uint64_t t = 0; t < omega; ++t) counter.Observe(t);
  // All observed points now have age >= omega.
  const double residual = counter.WeightAt(2 * omega - 1 + 1);
  EXPECT_LE(residual, epsilon * 1.0000001);
}

// ------------------------------------------------------------------ Bcs --

TEST(BcsTest, EmptySummary) {
  const Bcs bcs(3);
  EXPECT_DOUBLE_EQ(bcs.count(), 0.0);
  EXPECT_EQ(bcs.num_dims(), 3);
  EXPECT_DOUBLE_EQ(bcs.MeanOf(0), 0.0);
  EXPECT_DOUBLE_EQ(bcs.StdDevOf(0), 0.0);
}

TEST(BcsTest, NoDecayAccumulatesExactly) {
  const DecayModel m = DecayModel::None();
  Bcs bcs(2);
  bcs.Add({1.0, 2.0}, 0, m);
  bcs.Add({3.0, 4.0}, 1, m);
  EXPECT_DOUBLE_EQ(bcs.count(), 2.0);
  EXPECT_DOUBLE_EQ(bcs.linear_sum()[0], 4.0);
  EXPECT_DOUBLE_EQ(bcs.linear_sum()[1], 6.0);
  EXPECT_DOUBLE_EQ(bcs.squared_sum()[0], 10.0);
  EXPECT_DOUBLE_EQ(bcs.squared_sum()[1], 20.0);
  EXPECT_DOUBLE_EQ(bcs.MeanOf(0), 2.0);
  EXPECT_DOUBLE_EQ(bcs.StdDevOf(0), 1.0);
}

TEST(BcsTest, DecayMatchesBruteForce) {
  const DecayModel m(20, 0.05);
  Bcs bcs(1);
  const std::vector<double> arrivals = {1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    bcs.Add({arrivals[i]}, i, m);
  }
  // Expected decayed aggregates at tick 3.
  double count = 0.0;
  double ls = 0.0;
  double ss = 0.0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double w = m.WeightAtAge(3 - i);
    count += w;
    ls += w * arrivals[i];
    ss += w * arrivals[i] * arrivals[i];
  }
  EXPECT_NEAR(bcs.count(), count, 1e-12);
  EXPECT_NEAR(bcs.linear_sum()[0], ls, 1e-12);
  EXPECT_NEAR(bcs.squared_sum()[0], ss, 1e-12);
}

TEST(BcsTest, CountAtProjectsForward) {
  const DecayModel m(20, 0.05);
  Bcs bcs(1);
  bcs.Add({1.0}, 0, m);
  EXPECT_NEAR(bcs.CountAt(10, m), m.WeightAtAge(10), 1e-12);
  EXPECT_DOUBLE_EQ(bcs.CountAt(0, m), 1.0);
}

TEST(BcsTest, MergeEqualsUnionStream) {
  const DecayModel m(30, 0.02);
  Bcs all(2);
  Bcs left(2);
  Bcs right(2);
  for (std::uint64_t t = 0; t < 20; ++t) {
    const std::vector<double> p = {static_cast<double>(t), 1.0};
    all.Add(p, t, m);
    if (t % 2 == 0) {
      left.Add(p, t, m);
    } else {
      right.Add(p, t, m);
    }
  }
  left.Merge(right, 19, m);
  EXPECT_NEAR(left.count(), all.count(), 1e-9);
  EXPECT_NEAR(left.linear_sum()[0], all.linear_sum()[0], 1e-9);
  EXPECT_NEAR(left.squared_sum()[0], all.squared_sum()[0], 1e-9);
}

TEST(BcsTest, LazyInitFromFirstPoint) {
  const DecayModel m = DecayModel::None();
  Bcs bcs;  // default-constructed, dims unknown
  bcs.Add({1.0, 2.0, 3.0}, 0, m);
  EXPECT_EQ(bcs.num_dims(), 3);
  EXPECT_DOUBLE_EQ(bcs.count(), 1.0);
}

TEST(BcsTest, StdDevRequiresTwoPoints) {
  const DecayModel m = DecayModel::None();
  Bcs bcs(1);
  bcs.Add({5.0}, 0, m);
  EXPECT_DOUBLE_EQ(bcs.StdDevOf(0), 0.0);
  bcs.Add({7.0}, 1, m);
  EXPECT_DOUBLE_EQ(bcs.StdDevOf(0), 1.0);
}

// ------------------------------------------------------------ BaseGrid --

TEST(BaseGridTest, AddAndFind) {
  BaseGrid grid(Partition(2, 10, 0.0, 1.0), DecayModel::None());
  grid.Add({0.05, 0.15}, 0);
  grid.Add({0.05, 0.18}, 1);  // same cell
  grid.Add({0.95, 0.95}, 2);  // different cell
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  const Bcs* cell = grid.Find({0.06, 0.12});
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->count(), 2.0);
  EXPECT_EQ(grid.Find({0.5, 0.5}), nullptr);
}

TEST(BaseGridTest, TotalWeightCountsEverything) {
  BaseGrid grid(Partition(2, 10, 0.0, 1.0), DecayModel::None());
  for (std::uint64_t t = 0; t < 10; ++t) {
    grid.Add({0.1 * static_cast<double>(t), 0.5}, t);
  }
  EXPECT_NEAR(grid.TotalWeight(), 10.0, 1e-9);
}

TEST(BaseGridTest, DecayedTotalWeightBelowCount) {
  BaseGrid grid(Partition(1, 10, 0.0, 1.0), DecayModel(50, 0.01));
  for (std::uint64_t t = 0; t < 100; ++t) grid.Add({0.5}, t);
  EXPECT_LT(grid.TotalWeight(), 100.0);
  EXPECT_GT(grid.TotalWeight(), 1.0);
}

TEST(BaseGridTest, CompactRemovesStaleCells) {
  BaseGrid grid(Partition(1, 10, 0.0, 1.0), DecayModel(10, 0.001), 1e-3, 0);
  grid.Add({0.05}, 0);  // one old cell
  for (std::uint64_t t = 1; t < 200; ++t) grid.Add({0.95}, t);
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  const std::size_t removed = grid.Compact(199);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(grid.PopulatedCells(), 1u);
  EXPECT_EQ(grid.Find({0.05}), nullptr);
}

TEST(BaseGridTest, AutomaticCompactionTriggers) {
  BaseGrid grid(Partition(1, 10, 0.0, 1.0), DecayModel(10, 0.001), 1e-3,
                /*compaction_period=*/50);
  grid.Add({0.05}, 0);
  for (std::uint64_t t = 1; t < 200; ++t) grid.Add({0.95}, t);
  // The old cell decayed away and a sweep has certainly run.
  EXPECT_EQ(grid.PopulatedCells(), 1u);
}

}  // namespace
}  // namespace spot
