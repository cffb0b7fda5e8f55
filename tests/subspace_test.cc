// Unit tests of src/subspace: Subspace algebra, lattice enumeration,
// ranked subspace sets.

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "subspace/lattice.h"
#include "subspace/subspace.h"
#include "subspace/subspace_set.h"

namespace spot {
namespace {

// ----------------------------------------------------------- Subspace ----

TEST(SubspaceTest, EmptyByDefault) {
  Subspace s;
  EXPECT_TRUE(s.IsEmpty());
  EXPECT_EQ(s.Dimension(), 0);
  EXPECT_EQ(s.FirstIndex(), -1);
  EXPECT_EQ(s.ToString(), "{}");
}

TEST(SubspaceTest, FromIndicesRoundTrips) {
  const Subspace s = Subspace::FromIndices({3, 0, 17});
  EXPECT_EQ(s.Dimension(), 3);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(17));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_EQ(s.Indices(), (std::vector<int>{0, 3, 17}));
  EXPECT_EQ(s.ToString(), "{0,3,17}");
}

TEST(SubspaceTest, FromIndicesIgnoresOutOfRange) {
  const Subspace s = Subspace::FromIndices({-1, 2, 64, 99});
  EXPECT_EQ(s.Indices(), (std::vector<int>{2}));
}

TEST(SubspaceTest, FullSpace) {
  EXPECT_EQ(Subspace::Full(0).Dimension(), 0);
  EXPECT_EQ(Subspace::Full(5).Dimension(), 5);
  EXPECT_EQ(Subspace::Full(64).Dimension(), 64);
  EXPECT_EQ(Subspace::Full(5).Indices(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SubspaceTest, SingletonAndAddRemove) {
  Subspace s = Subspace::Singleton(7);
  EXPECT_EQ(s.Dimension(), 1);
  EXPECT_EQ(s.FirstIndex(), 7);
  s.Add(2).Add(7);  // adding twice is idempotent
  EXPECT_EQ(s.Dimension(), 2);
  s.Remove(7);
  EXPECT_EQ(s.Indices(), (std::vector<int>{2}));
  s.Remove(63);  // removing absent bit is a no-op
  EXPECT_EQ(s.Dimension(), 1);
}

TEST(SubspaceTest, SetAlgebra) {
  const Subspace a = Subspace::FromIndices({0, 1, 2});
  const Subspace b = Subspace::FromIndices({2, 3});
  EXPECT_EQ(a.Union(b).Indices(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(a.Intersection(b).Indices(), (std::vector<int>{2}));
  EXPECT_EQ(a.Difference(b).Indices(), (std::vector<int>{0, 1}));
  EXPECT_TRUE(a.IsSupersetOf(Subspace::FromIndices({0, 2})));
  EXPECT_FALSE(a.IsSupersetOf(b));
  EXPECT_TRUE(a.IsSupersetOf(Subspace()));  // empty subset of everything
}

TEST(SubspaceTest, OrderingIsDimensionFirst) {
  const Subspace low_dim = Subspace::FromIndices({63});
  const Subspace high_dim = Subspace::FromIndices({0, 1});
  EXPECT_TRUE(low_dim < high_dim);
  EXPECT_FALSE(high_dim < low_dim);
  // Same dimension: mask order.
  EXPECT_TRUE(Subspace::FromIndices({0}) < Subspace::FromIndices({1}));
}

TEST(SubspaceTest, HashDistinguishesSubspaces) {
  SubspaceHash h;
  std::unordered_set<std::size_t> hashes;
  for (int i = 0; i < 64; ++i) {
    hashes.insert(h(Subspace::Singleton(i)));
  }
  EXPECT_EQ(hashes.size(), 64u);
}

// ------------------------------------------------------------ Lattice ----

TEST(LatticeTest, EnumerateSingleDimension) {
  const auto subs = EnumerateSubspacesOfDim(5, 1);
  ASSERT_EQ(subs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(subs[static_cast<std::size_t>(i)], Subspace::Singleton(i));
  }
}

TEST(LatticeTest, EnumerateCountsMatchBinomials) {
  for (int n : {4, 6, 10}) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(EnumerateSubspacesOfDim(n, k).size(),
                BinomialCoefficient(n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LatticeTest, EnumerateEdgeCases) {
  EXPECT_TRUE(EnumerateSubspacesOfDim(5, 0).empty());
  EXPECT_TRUE(EnumerateSubspacesOfDim(5, 6).empty());
  EXPECT_TRUE(EnumerateSubspacesOfDim(0, 1).empty());
  EXPECT_EQ(EnumerateSubspacesOfDim(5, 5).size(), 1u);
}

TEST(LatticeTest, AllEnumeratedDistinctAndCorrectDim) {
  const auto subs = EnumerateSubspacesOfDim(8, 3);
  std::set<std::uint64_t> seen;
  for (const auto& s : subs) {
    EXPECT_EQ(s.Dimension(), 3);
    EXPECT_TRUE(seen.insert(s.bits()).second) << "duplicate " << s.ToString();
    EXPECT_LT(s.bits(), 1ULL << 8);
  }
}

TEST(LatticeTest, EnumerateLatticeIsLowDimFirst) {
  const auto subs = EnumerateLattice(5, 3);
  EXPECT_EQ(subs.size(), LatticeSize(5, 3));
  for (std::size_t i = 1; i < subs.size(); ++i) {
    EXPECT_LE(subs[i - 1].Dimension(), subs[i].Dimension());
  }
}

TEST(LatticeTest, EnumerateLatticeRespectsLimit) {
  const auto subs = EnumerateLattice(10, 3, 7);
  EXPECT_EQ(subs.size(), 7u);
}

TEST(LatticeTest, NextSameDimensionTerminates) {
  Subspace s = Subspace::FromIndices({2, 3});  // last 2-subspace of 4 dims
  EXPECT_TRUE(NextSameDimension(s, 4).IsEmpty() ||
              NextSameDimension(s, 4).Dimension() == 2);
  // The true last one:
  EXPECT_TRUE(NextSameDimension(Subspace::FromIndices({2, 3}), 4).IsEmpty());
}

TEST(LatticeTest, SampleLatticeDistinctWithinBounds) {
  Rng rng(5);
  const auto subs = SampleLattice(20, 3, 50, rng);
  ASSERT_EQ(subs.size(), 50u);
  std::set<std::uint64_t> seen;
  for (const auto& s : subs) {
    EXPECT_GE(s.Dimension(), 1);
    EXPECT_LE(s.Dimension(), 3);
    EXPECT_TRUE(seen.insert(s.bits()).second);
  }
}

TEST(LatticeTest, SampleLatticeFallsBackToEnumeration) {
  Rng rng(5);
  // Lattice of 4/2 has 10 members; asking for 50 returns all 10.
  const auto subs = SampleLattice(4, 2, 50, rng);
  EXPECT_EQ(subs.size(), 10u);
}

// ----------------------------------------------------- RankedSubspaceSet --

TEST(RankedSetTest, InsertAndRank) {
  RankedSubspaceSet set(0);
  set.Insert(Subspace::Singleton(0), 3.0);
  set.Insert(Subspace::Singleton(1), 1.0);
  set.Insert(Subspace::Singleton(2), 2.0);
  const auto ranked = set.Ranked();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].subspace, Subspace::Singleton(1));
  EXPECT_EQ(ranked[1].subspace, Subspace::Singleton(2));
  EXPECT_EQ(ranked[2].subspace, Subspace::Singleton(0));
}

TEST(RankedSetTest, RejectsEmptySubspace) {
  RankedSubspaceSet set(0);
  EXPECT_FALSE(set.Insert(Subspace(), 0.0));
  EXPECT_FALSE(set.InsertBest(Subspace(), 0.0));
  EXPECT_TRUE(set.empty());
}

TEST(RankedSetTest, CapacityEvictsWorst) {
  RankedSubspaceSet set(2);
  set.Insert(Subspace::Singleton(0), 3.0);
  set.Insert(Subspace::Singleton(1), 1.0);
  set.Insert(Subspace::Singleton(2), 2.0);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(Subspace::Singleton(1)));
  EXPECT_TRUE(set.Contains(Subspace::Singleton(2)));
  EXPECT_FALSE(set.Contains(Subspace::Singleton(0)));  // worst evicted
}

TEST(RankedSetTest, InsertWorseThanCapacityBoundFails) {
  RankedSubspaceSet set(2);
  set.Insert(Subspace::Singleton(0), 1.0);
  set.Insert(Subspace::Singleton(1), 2.0);
  EXPECT_FALSE(set.Insert(Subspace::Singleton(2), 5.0));
  EXPECT_EQ(set.size(), 2u);
}

TEST(RankedSetTest, UpdateScoreReRanks) {
  RankedSubspaceSet set(0);
  set.Insert(Subspace::Singleton(0), 3.0);
  set.Insert(Subspace::Singleton(1), 1.0);
  set.Insert(Subspace::Singleton(0), 0.5);  // improve
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Ranked().front().subspace, Subspace::Singleton(0));
  EXPECT_DOUBLE_EQ(set.ScoreOf(Subspace::Singleton(0)), 0.5);

  // InsertBest keeps the lower of a member's scores and inserts the rest.
  EXPECT_TRUE(set.InsertBest(Subspace::Singleton(0), 2.0));
  EXPECT_DOUBLE_EQ(set.ScoreOf(Subspace::Singleton(0)), 0.5);
  EXPECT_TRUE(set.InsertBest(Subspace::Singleton(1), 0.25));
  EXPECT_DOUBLE_EQ(set.ScoreOf(Subspace::Singleton(1)), 0.25);
  EXPECT_TRUE(set.InsertBest(Subspace::Singleton(2), 4.0));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.Ranked().front().subspace, Subspace::Singleton(1));
}

TEST(RankedSetTest, TopKAndMembers) {
  RankedSubspaceSet set(0);
  for (int i = 0; i < 5; ++i) {
    set.Insert(Subspace::Singleton(i), static_cast<double>(i));
  }
  const auto top2 = set.TopK(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], Subspace::Singleton(0));
  EXPECT_EQ(top2[1], Subspace::Singleton(1));
  EXPECT_EQ(set.Members().size(), 5u);
  EXPECT_EQ(set.TopK(99).size(), 5u);
}

TEST(RankedSetTest, EraseAndClear) {
  RankedSubspaceSet set(0);
  set.Insert(Subspace::Singleton(3), 1.0);
  EXPECT_TRUE(set.Erase(Subspace::Singleton(3)));
  EXPECT_FALSE(set.Erase(Subspace::Singleton(3)));
  set.Insert(Subspace::Singleton(1), 1.0);
  set.Clear();
  EXPECT_TRUE(set.empty());
}

TEST(RankedSetTest, ScoreOfFallback) {
  RankedSubspaceSet set(0);
  EXPECT_DOUBLE_EQ(set.ScoreOf(Subspace::Singleton(9), 42.0), 42.0);
}

}  // namespace
}  // namespace spot
