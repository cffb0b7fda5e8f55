// Tests of the documented [interp] extensions: fringe suppression, the
// mixed-marginal outlier generator, the recurring-subspace pool, the MOGA
// search archive, and explicit domain bounds.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/detector.h"
#include "grid/projected_grid.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

// ------------------------------------------------- Fringe suppression ----

class FringeFixture : public ::testing::Test {
 protected:
  FringeFixture()
      : part_(2, 5, 0.0, 1.0),
        grid_(Subspace::FromIndices({0, 1}), &part_, DecayModel::None()) {}

  Partition part_;
  ProjectedGrid grid_;
};

TEST_F(FringeFixture, SparseCellNextToHeavyCellIsFringe) {
  // Heavy cell (1,1); probe its axis neighbor (2,1) and diagonal (2,2).
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) grid_.Add({0.3, 0.3}, t++);  // cell (1,1)
  grid_.Add({0.5, 0.3}, t++);                                 // cell (2,1)
  grid_.Add({0.5, 0.5}, t++);                                 // cell (2,2)
  EXPECT_TRUE(grid_.IsClusterFringe({2, 1}, 1.0, 8.0));  // axis-adjacent
  EXPECT_TRUE(grid_.IsClusterFringe({2, 2}, 1.0, 8.0));  // diagonal
}

TEST_F(FringeFixture, IsolatedCellIsNotFringe) {
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) grid_.Add({0.3, 0.3}, t++);  // cell (1,1)
  grid_.Add({0.9, 0.9}, t++);                                 // cell (4,4)
  EXPECT_FALSE(grid_.IsClusterFringe({4, 4}, 1.0, 8.0));
}

TEST_F(FringeFixture, FactorControlsSensitivity) {
  std::uint64_t t = 0;
  for (int i = 0; i < 6; ++i) grid_.Add({0.3, 0.3}, t++);  // cell (1,1): 6
  grid_.Add({0.5, 0.3}, t++);                               // cell (2,1): 1
  EXPECT_TRUE(grid_.IsClusterFringe({2, 1}, 1.0, 4.0));   // 6 >= 4*1
  EXPECT_FALSE(grid_.IsClusterFringe({2, 1}, 1.0, 8.0));  // 6 < 8*1
}

TEST_F(FringeFixture, DomainBoundaryNeighborsAreSkipped) {
  // Cell (0,0): all out-of-range probes must be ignored, not crash.
  grid_.Add({0.05, 0.05}, 0);
  EXPECT_FALSE(grid_.IsClusterFringe({0, 0}, 1.0, 8.0));
}

TEST(FringeHighDimTest, AxisNeighborsOnlyBeyondThreeDims) {
  const Partition part(5, 5, 0.0, 1.0);
  ProjectedGrid grid(Subspace::FromIndices({0, 1, 2, 3}), &part,
                     DecayModel::None());
  std::uint64_t t = 0;
  // Heavy cell at (1,1,1,1); probe the axis neighbor (2,1,1,1) and the
  // diagonal (2,2,2,2) — the latter must NOT be seen in >3-dim subspaces.
  for (int i = 0; i < 100; ++i) grid.Add({0.3, 0.3, 0.3, 0.3, 0.0}, t++);
  EXPECT_TRUE(grid.IsClusterFringe({2, 1, 1, 1}, 1.0, 8.0));
  EXPECT_FALSE(grid.IsClusterFringe({2, 2, 2, 2}, 1.0, 8.0));
  // The heavy neighbor on the LAST axis: found only if the scan restores
  // every coordinate it edited on the earlier axes.
  EXPECT_TRUE(grid.IsClusterFringe({1, 1, 1, 2}, 1.0, 8.0));
}

TEST(FringeHighDimTest, FullMooreNeighborhoodAtThreeDims) {
  // 5^3 = 125 cells: a direct-addressed grid. The heavy cell (1,1,1) is
  // only a corner (diagonal) neighbor of (2,2,2) and (0,2,0), which the
  // full Moore scan must see, and no neighbor of (3,3,3).
  const Partition part(3, 5, 0.0, 1.0);
  ProjectedGrid grid(Subspace::FromIndices({0, 1, 2}), &part,
                     DecayModel::None());
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) grid.Add({0.3, 0.3, 0.3}, t++);
  EXPECT_TRUE(grid.IsClusterFringe({2, 2, 2}, 1.0, 8.0));
  EXPECT_TRUE(grid.IsClusterFringe({0, 2, 0}, 1.0, 8.0));
  EXPECT_FALSE(grid.IsClusterFringe({3, 3, 3}, 1.0, 8.0));
  EXPECT_FALSE(grid.IsClusterFringe({4, 4, 4}, 1.0, 8.0));
}

TEST(FringeDetectorTest, VetoReducesFalsePositivesOnClusterTails) {
  // Same stream, fringe on vs off: the veto must strictly reduce flagged
  // normals while keeping gross outliers.
  auto run = [](double fringe_factor) {
    SpotConfig cfg;
    cfg.fs_max_dimension = 2;
    cfg.fringe_factor = fringe_factor;
    cfg.domain_lo = 0.0;
    cfg.domain_hi = 1.0;
    cfg.evolution_period = 0;
    cfg.os_update_every = 0;
    cfg.drift_detection = false;
    cfg.unsupervised.moga.population_size = 12;
    cfg.unsupervised.moga.generations = 5;
    cfg.seed = 5;
    stream::SyntheticConfig scfg;
    scfg.dimension = 8;
    scfg.outlier_probability = 0.0;
    scfg.concept_seed = 321;
    scfg.seed = 6;
    stream::GaussianStream train(scfg);
    SpotDetector det(cfg);
    det.Learn(ValuesOf(Take(train, 1000)));
    scfg.seed = 7;
    stream::GaussianStream live(scfg);
    int flagged = 0;
    for (int i = 0; i < 1500; ++i) {
      if (det.Process(live.Next()->point.values).is_outlier) ++flagged;
    }
    return flagged;
  };
  const int with_veto = run(8.0);
  const int without_veto = run(0.0);
  EXPECT_LE(with_veto, without_veto);
}

// -------------------------------------------- Mixed-marginal outliers ----

TEST(MixedOutlierTest, AttributesAreMarginallyNormal) {
  stream::SyntheticConfig cfg;
  cfg.dimension = 8;
  cfg.outlier_probability = 0.5;
  cfg.mixed_outlier_fraction = 1.0;
  cfg.min_outlier_subspace_dim = 2;
  cfg.max_outlier_subspace_dim = 2;
  cfg.seed = 41;
  stream::GaussianStream s(cfg);
  int checked = 0;
  for (int i = 0; i < 500 && checked < 30; ++i) {
    const auto p = s.Next();
    if (!p->is_outlier) continue;
    ++checked;
    EXPECT_EQ(p->category, 2);  // mixed-outlier category
    EXPECT_EQ(p->outlying_subspace.Dimension(), 2);
    // Every attribute (including the planted ones) lies within 4 sigma of
    // SOME cluster center — marginally normal.
    for (int d = 0; d < 8; ++d) {
      double min_gap = 1.0;
      for (const auto& center : s.centers()) {
        min_gap = std::min(min_gap,
                           std::abs(p->point.values[static_cast<std::size_t>(
                                        d)] -
                                    center[static_cast<std::size_t>(d)]));
      }
      EXPECT_LE(min_gap, 4.0 * cfg.cluster_stddev)
          << "attribute " << d << " marginally anomalous";
    }
  }
  EXPECT_EQ(checked, 30);
}

TEST(MixedOutlierTest, PlantedValuesComeFromDonorClusters) {
  stream::SyntheticConfig cfg;
  cfg.dimension = 6;
  cfg.outlier_probability = 1.0;
  cfg.mixed_outlier_fraction = 1.0;
  cfg.seed = 43;
  stream::GaussianStream s(cfg);
  for (int i = 0; i < 50; ++i) {
    const auto p = s.Next();
    ASSERT_TRUE(p->is_outlier);
    EXPECT_FALSE(p->outlying_subspace.IsEmpty());
  }
}

// ------------------------------------------------------ Subspace pool ----

TEST(SubspacePoolTest, OutlyingSubspacesRecurWithinPool) {
  stream::SyntheticConfig cfg;
  cfg.dimension = 20;
  cfg.outlier_probability = 0.5;
  cfg.outlier_subspace_pool = 4;
  cfg.min_outlier_subspace_dim = 2;
  cfg.max_outlier_subspace_dim = 3;
  cfg.seed = 47;
  stream::GaussianStream s(cfg);
  std::set<std::uint64_t> distinct;
  int outliers = 0;
  for (int i = 0; i < 2000 && outliers < 200; ++i) {
    const auto p = s.Next();
    if (!p->is_outlier) continue;
    ++outliers;
    distinct.insert(p->outlying_subspace.bits());
  }
  ASSERT_EQ(outliers, 200);
  EXPECT_LE(distinct.size(), 4u);
  EXPECT_GE(distinct.size(), 2u);  // several pool members actually used
}

TEST(SubspacePoolTest, PoolIsPartOfTheConcept) {
  stream::SyntheticConfig cfg;
  cfg.dimension = 20;
  cfg.outlier_probability = 1.0;
  cfg.outlier_subspace_pool = 3;
  cfg.concept_seed = 55;
  auto collect = [&](std::uint64_t seed) {
    cfg.seed = seed;
    stream::GaussianStream s(cfg);
    std::set<std::uint64_t> out;
    for (int i = 0; i < 100; ++i) out.insert(s.Next()->outlying_subspace.bits());
    return out;
  };
  // Different sampling seeds, same concept: identical pools.
  EXPECT_EQ(collect(1), collect(2));
}

TEST(ConceptSeedTest, SharedConceptSharesClusters) {
  stream::SyntheticConfig cfg;
  cfg.dimension = 10;
  cfg.concept_seed = 77;
  cfg.seed = 1;
  stream::GaussianStream a(cfg);
  cfg.seed = 2;
  stream::GaussianStream b(cfg);
  EXPECT_EQ(a.centers(), b.centers());
  // But different point sequences.
  EXPECT_NE(a.Next()->point.values, b.Next()->point.values);
}

// ----------------------------------------------------- Search archive ----

TEST(SearchArchiveTest, AppendEvaluatedExposesMemoTable) {
  Rng rng(61);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back({rng.NextDouble(), rng.NextDouble(), rng.NextDouble()});
  }
  const Partition part(3, 5, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &data);
  obj.Evaluate(Subspace::FromIndices({0}));
  obj.Evaluate(Subspace::FromIndices({1, 2}));
  std::vector<std::pair<Subspace, double>> archive;
  obj.AppendEvaluated(&archive);
  EXPECT_EQ(archive.size(), 2u);
}

TEST(SearchArchiveTest, FindTopSparseRanksOverAllEvaluated) {
  // The returned top-k must be at least as sparse as any k drawn only from
  // the final population — verified by checking it matches the exhaustive
  // best over everything the search evaluated.
  Rng rng(67);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({0.3 + 0.02 * rng.NextGaussian(),
                    0.7 + 0.02 * rng.NextGaussian(), rng.NextDouble(),
                    rng.NextDouble()});
  }
  data.push_back({0.3, 0.7, 0.5, 0.95});
  const Partition part(4, 5, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &data, {data.size() - 1});
  Nsga2Config cfg;
  cfg.num_dims = 4;
  cfg.max_dimension = 2;
  cfg.population_size = 12;
  cfg.generations = 6;
  cfg.seed = 3;
  const auto top = FindTopSparse(&obj, cfg, 5);
  ASSERT_GE(top.size(), 5u);
  // Re-rank the archive by score; the returned set must match its head.
  std::vector<std::pair<Subspace, double>> archive;
  obj.AppendEvaluated(&archive);
  std::sort(archive.begin(), archive.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second < b.second;
              return a.first < b.first;
            });
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_DOUBLE_EQ(top[i].score, archive[i].second);
  }
}

// ----------------------------------------------------- Explicit domain ----

TEST(ExplicitDomainTest, OutOfRangeOutlierDetectableWithHeadroom) {
  // With a fitted partition the 0.95 value clamps into a populated cell;
  // with the explicit [0,1] domain it lands in an empty one.
  Rng rng(71);
  std::vector<std::vector<double>> training;
  for (int i = 0; i < 400; ++i) {
    training.push_back({0.35 + 0.02 * rng.NextGaussian(),
                        0.45 + 0.02 * rng.NextGaussian(),
                        0.40 + 0.02 * rng.NextGaussian()});
  }
  SpotConfig cfg;
  cfg.fs_max_dimension = 1;
  cfg.evolution_period = 0;
  cfg.os_update_every = 0;
  cfg.drift_detection = false;
  cfg.unsupervised.moga.population_size = 12;
  cfg.unsupervised.moga.generations = 5;
  cfg.seed = 9;
  cfg.domain_lo = 0.0;
  cfg.domain_hi = 1.0;
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(training));
  EXPECT_DOUBLE_EQ(det.synapses().partition().lo(0), 0.0);
  EXPECT_DOUBLE_EQ(det.synapses().partition().hi(0), 1.0);

  std::vector<double> outlier = training.front();
  outlier[2] = 0.95;
  EXPECT_TRUE(det.Process(outlier).is_outlier);
}

TEST(ExplicitDomainTest, DisabledBoundsFallBackToFitting) {
  std::vector<std::vector<double>> training(
      50, std::vector<double>{5.0, 10.0});
  SpotConfig cfg;
  cfg.domain_lo = 0.0;
  cfg.domain_hi = 0.0;  // disabled
  cfg.fs_max_dimension = 1;
  cfg.evolution_period = 0;
  cfg.drift_detection = false;
  cfg.unsupervised.top_subspaces_per_run = 0;
  SpotDetector det(cfg);
  ASSERT_TRUE(det.Learn(training));
  // Fitted partition covers the data's own range, not [0,1].
  EXPECT_LE(det.synapses().partition().lo(0), 5.0);
  EXPECT_GE(det.synapses().partition().hi(1), 10.0);
}

}  // namespace
}  // namespace spot
