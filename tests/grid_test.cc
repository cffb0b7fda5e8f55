// Unit tests of src/grid fundamentals: equi-width partition, the
// (omega, epsilon) decay model, and the decayed total-weight counter.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

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

// The clamp happens in double, before the cast to uint32_t, so every
// double has a cell. A cast of NaN, of an infinity or of anything past
// 2^32 is undefined: built with GCC at -O2 on x86-64 it read 0 for NaN,
// +inf and values past 2^63, and kept only the low 32 bits below that.
TEST(PartitionTest, IntervalIndexIsDefinedForEveryDouble) {
  const Partition p(1, 5, 0.0, 1.0);  // cells of width 0.2
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(p.IntervalIndex(0, std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(p.IntervalIndex(0, -inf), 0u);
  EXPECT_EQ(p.IntervalIndex(0, inf), 4u);
  EXPECT_EQ(p.IntervalIndex(0, -1e300), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 1e300), 4u);
  EXPECT_EQ(p.IntervalIndex(0, 9.3e18), 4u);
  // Scales to 2^32 + 2, whose low 32 bits would read cell 2.
  EXPECT_EQ(p.IntervalIndex(0, 4294967298.0 / 5.0), 4u);
  // Finite in-range values bin as before.
  EXPECT_EQ(p.IntervalIndex(0, 0.0), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 0.1), 0u);
  EXPECT_EQ(p.IntervalIndex(0, 0.5), 2u);
  EXPECT_EQ(p.IntervalIndex(0, 0.79), 3u);
  EXPECT_EQ(p.IntervalIndex(0, 0.99), 4u);
  EXPECT_EQ(p.IntervalIndex(0, 1.0), 4u);
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

}  // namespace
}  // namespace spot
