// Unit tests of src/learning: lead clustering, outlying degree, SST,
// unsupervised/supervised pipelines and CS self-evolution.

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "learning/lead_clustering.h"
#include "learning/outlying_degree.h"
#include "learning/self_evolution.h"
#include "learning/sst.h"
#include "learning/supervised.h"
#include "learning/unsupervised.h"
#include "moga/moga_search.h"
#include "moga/objectives.h"
#include "subspace/lattice.h"
#include "subspace/subspace_set.h"

namespace spot {
namespace {

std::vector<std::size_t> IdentityOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// ------------------------------------------------------ LeadCluster -------

TEST(LeadClusterTest, TwoWellSeparatedBlobs) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 10; ++i) data.push_back({0.1 + 0.001 * i, 0.1});
  for (int i = 0; i < 10; ++i) data.push_back({0.9 + 0.001 * i, 0.9});
  const auto result = LeadCluster(data, IdentityOrder(data.size()), 0.2);
  EXPECT_EQ(result.leaders.size(), 2u);
  EXPECT_EQ(result.sizes[0], 10u);
  EXPECT_EQ(result.sizes[1], 10u);
  // All of blob 1 in one cluster, all of blob 2 in the other.
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(result.assignment[static_cast<std::size_t>(i)],
              result.assignment[0]);
  }
}

TEST(LeadClusterTest, IsolatedPointFoundsSingletonCluster) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 20; ++i) data.push_back({0.5, 0.5});
  data.push_back({0.99, 0.01});
  const auto result = LeadCluster(data, IdentityOrder(data.size()), 0.1);
  const int outlier_cluster = result.assignment.back();
  EXPECT_EQ(result.sizes[static_cast<std::size_t>(outlier_cluster)], 1u);
}

TEST(LeadClusterTest, TinyThresholdMakesAllSingletons) {
  std::vector<std::vector<double>> data = {
      {0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}};
  const auto result = LeadCluster(data, IdentityOrder(3), 1e-6);
  EXPECT_EQ(result.leaders.size(), 3u);
}

TEST(LeadClusterTest, HugeThresholdMakesOneCluster) {
  std::vector<std::vector<double>> data = {
      {0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}};
  const auto result = LeadCluster(data, IdentityOrder(3), 100.0);
  EXPECT_EQ(result.leaders.size(), 1u);
  EXPECT_EQ(result.sizes[0], 3u);
}

TEST(LeadClusterTest, OrderAffectsLeadersNotSeparation) {
  // Separated blobs cluster identically regardless of visiting order.
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 5; ++i) data.push_back({0.0, 0.0});
  for (int i = 0; i < 5; ++i) data.push_back({1.0, 1.0});
  Rng rng(3);
  for (int run = 0; run < 5; ++run) {
    auto order = IdentityOrder(10);
    rng.Shuffle(order);
    const auto result = LeadCluster(data, order, 0.3);
    EXPECT_EQ(result.leaders.size(), 2u);
  }
}

TEST(LeadClusterTest, EstimateThresholdPositiveAndScales) {
  Rng rng(7);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  Rng r1(1);
  Rng r2(1);
  const double t1 = EstimateLeadThreshold(data, r1, 50, 0.5);
  const double t2 = EstimateLeadThreshold(data, r2, 50, 1.0);
  EXPECT_GT(t1, 0.0);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

// -------------------------------------------------- Outlying degree -------

TEST(OutlyingDegreeTest, IsolatedPointScoresHighest) {
  std::vector<std::vector<double>> data;
  Rng gen(11);
  for (int i = 0; i < 60; ++i) {
    data.push_back({0.3 + 0.01 * gen.NextGaussian(),
                    0.3 + 0.01 * gen.NextGaussian()});
  }
  data.push_back({0.95, 0.95});
  Rng rng(13);
  OutlyingDegreeConfig cfg;
  const auto degrees = ComputeOutlyingDegrees(data, cfg, rng);
  const auto top = TopOutlyingIndices(degrees, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], data.size() - 1);
}

TEST(OutlyingDegreeTest, DegreesInUnitRange) {
  Rng gen(17);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 50; ++i) {
    data.push_back({gen.NextDouble(), gen.NextDouble()});
  }
  Rng rng(19);
  const auto degrees = ComputeOutlyingDegrees(data, {}, rng);
  for (double d : degrees) {
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(OutlyingDegreeTest, EmptyData) {
  Rng rng(23);
  EXPECT_TRUE(ComputeOutlyingDegrees({}, {}, rng).empty());
}

TEST(OutlyingDegreeTest, TopIndicesSortedByDegree) {
  const std::vector<double> degrees = {0.1, 0.9, 0.5, 0.7};
  const auto top = TopOutlyingIndices(degrees, 3);
  EXPECT_EQ(top, (std::vector<std::size_t>{1, 3, 2}));
}

TEST(OutlyingDegreeTest, TopIndicesTieBreakIsStable) {
  const std::vector<double> degrees = {0.5, 0.5, 0.5};
  const auto top = TopOutlyingIndices(degrees, 2);
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 1}));
}

// ---------------------------------------------------------------- Sst -----

TEST(SstTest, SubsetsAreDistinctAndUnioned) {
  Sst sst(8, 8);
  sst.SetFixed(EnumerateLattice(4, 1));  // {0},{1},{2},{3}
  sst.AddClustering(Subspace::FromIndices({0, 1}), 0.5);
  sst.AddOutlierDriven(Subspace::FromIndices({2, 3}), 0.7);
  EXPECT_EQ(sst.TotalSize(), 6u);
  EXPECT_TRUE(sst.Contains(Subspace::FromIndices({0})));
  EXPECT_TRUE(sst.Contains(Subspace::FromIndices({0, 1})));
  EXPECT_TRUE(sst.Contains(Subspace::FromIndices({2, 3})));
  EXPECT_FALSE(sst.Contains(Subspace::FromIndices({0, 3})));
}

TEST(SstTest, FixedMembersNotDuplicatedInCsOrOs) {
  Sst sst(8, 8);
  sst.SetFixed(EnumerateLattice(4, 1));
  sst.AddClustering(Subspace::FromIndices({0}), 0.1);   // already in FS
  sst.AddOutlierDriven(Subspace::FromIndices({1}), 0.1);  // already in FS
  EXPECT_TRUE(sst.clustering().empty());
  EXPECT_TRUE(sst.outlier_driven().empty());
  EXPECT_EQ(sst.TotalSize(), 4u);
}

TEST(SstTest, AllSubspacesDeduplicatesAcrossSubsets) {
  Sst sst(8, 8);
  sst.AddClustering(Subspace::FromIndices({0, 1}), 0.5);
  sst.AddOutlierDriven(Subspace::FromIndices({0, 1}), 0.6);
  EXPECT_EQ(sst.TotalSize(), 1u);
}

TEST(SstTest, CapacityEnforcedPerSubset) {
  Sst sst(2, 2);
  for (int i = 0; i < 5; ++i) {
    sst.AddClustering(Subspace::FromIndices({i, i + 10}),
                      static_cast<double>(i));
  }
  EXPECT_EQ(sst.clustering().size(), 2u);
  // The two best (lowest score) survive.
  EXPECT_TRUE(sst.Contains(Subspace::FromIndices({0, 10})));
  EXPECT_TRUE(sst.Contains(Subspace::FromIndices({1, 11})));
}

TEST(SstTest, ClearClusteringOnlyTouchesCs) {
  Sst sst(8, 8);
  sst.SetFixed(EnumerateLattice(3, 1));
  sst.AddClustering(Subspace::FromIndices({0, 1}), 0.5);
  sst.AddOutlierDriven(Subspace::FromIndices({1, 2}), 0.5);
  sst.ClearClustering();
  EXPECT_TRUE(sst.clustering().empty());
  EXPECT_EQ(sst.fixed().size(), 3u);
  EXPECT_EQ(sst.outlier_driven().size(), 1u);
}

TEST(SstTest, SummaryMentionsCounts) {
  Sst sst(4, 4);
  sst.SetFixed(EnumerateLattice(3, 1));
  const std::string summary = sst.Summary();
  EXPECT_NE(summary.find("FS (3)"), std::string::npos);
  EXPECT_NE(summary.find("CS (0)"), std::string::npos);
}

// ----------------------------------------------- Unsupervised pipeline ----

class LearningFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Clustered mass in dims {0,1}; a handful of points anomalous in {2}.
    Rng rng(31);
    for (int i = 0; i < 300; ++i) {
      data_.push_back({0.4 + 0.03 * rng.NextGaussian(),
                       0.6 + 0.03 * rng.NextGaussian(),
                       0.5 + 0.02 * rng.NextGaussian(), rng.NextDouble()});
    }
    for (int i = 0; i < 4; ++i) {
      std::vector<double> p = data_[static_cast<std::size_t>(i)];
      p[2] = 0.98;  // projected outlier in {2}
      data_.push_back(p);
    }
    partition_ = std::make_unique<Partition>(4, 10, 0.0, 1.0);
    cfg_.moga.num_dims = 4;
    cfg_.moga.max_dimension = 2;
    cfg_.moga.population_size = 16;
    cfg_.moga.generations = 8;
    cfg_.top_outlying_points = 6;
    cfg_.top_subspaces_per_run = 6;
  }

  std::vector<std::vector<double>> data_;
  std::unique_ptr<Partition> partition_;
  UnsupervisedConfig cfg_;
};

TEST_F(LearningFixture, LearnsNonEmptyCandidateSet) {
  const auto cs = LearnClusteringSubspaces(data_, *partition_, cfg_, 1);
  EXPECT_FALSE(cs.empty());
  for (const auto& ss : cs) {
    EXPECT_GE(ss.subspace.Dimension(), 1);
    EXPECT_LE(ss.subspace.Dimension(), 2);
  }
}

TEST_F(LearningFixture, CandidatesAreDeduplicated) {
  const auto cs = LearnClusteringSubspaces(data_, *partition_, cfg_, 2);
  std::set<std::uint64_t> seen;
  for (const auto& ss : cs) {
    EXPECT_TRUE(seen.insert(ss.subspace.bits()).second);
  }
}

TEST_F(LearningFixture, EmptyTrainingYieldsNothing) {
  EXPECT_TRUE(LearnClusteringSubspaces({}, *partition_, cfg_, 1).empty());
}

// ------------------------------------------------- Supervised pipeline ----

TEST_F(LearningFixture, SupervisedFindsExampleSubspace) {
  DomainKnowledge knowledge;
  std::vector<double> example = data_.front();
  // Expert example anomalous in dim 2, at the opposite extreme from the
  // fixture's planted outliers (0.98) so its cell holds only itself.
  example[2] = 0.02;
  knowledge.outlier_examples.push_back(example);

  SupervisedConfig scfg;
  scfg.moga.num_dims = 4;
  scfg.moga.max_dimension = 2;
  scfg.moga.population_size = 16;
  scfg.moga.generations = 10;
  scfg.top_subspaces_per_example = 4;
  const auto os =
      LearnOutlierDrivenSubspaces(data_, *partition_, knowledge, scfg, 3);
  ASSERT_FALSE(os.empty());
  bool involves_dim2 = false;
  for (const auto& ss : os) {
    if (ss.subspace.Contains(2)) involves_dim2 = true;
  }
  EXPECT_TRUE(involves_dim2);
}

TEST_F(LearningFixture, AttributeRestrictionHonored) {
  DomainKnowledge knowledge;
  std::vector<double> example = data_.front();
  example[2] = 0.99;
  knowledge.outlier_examples.push_back(example);
  knowledge.relevant_attributes = {1, 2};

  SupervisedConfig scfg;
  scfg.moga.num_dims = 4;
  scfg.moga.max_dimension = 2;
  scfg.moga.population_size = 12;
  scfg.moga.generations = 6;
  const auto os =
      LearnOutlierDrivenSubspaces(data_, *partition_, knowledge, scfg, 4);
  ASSERT_FALSE(os.empty());
  for (const auto& ss : os) {
    for (int d : ss.subspace.Indices()) {
      EXPECT_TRUE(d == 1 || d == 2) << "attribute " << d << " not relevant";
    }
  }
}

TEST_F(LearningFixture, NoExamplesNoSubspaces) {
  DomainKnowledge knowledge;
  SupervisedConfig scfg;
  EXPECT_TRUE(
      LearnOutlierDrivenSubspaces(data_, *partition_, knowledge, scfg, 5)
          .empty());
}

// ---------------------------------- One table per sample, same results ----
//
// Each learner runs its searches over one shared SparsityTable. Every
// search must still find exactly what it found on objectives of its own,
// so the learners are pinned here to the pipeline as it ran with one
// private objectives object per search.

void ExpectSameRanking(const std::vector<ScoredSubspace>& got,
                       const std::vector<ScoredSubspace>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].subspace, want[i].subspace) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
}

TEST_F(LearningFixture, ClusteringSearchesMatchPrivateObjectives) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Nsga2Config moga = cfg_.moga;
    moga.seed = rng.NextUint64();
    BatchSparsityObjectives global(partition_.get(), &data_);
    const auto global_top =
        FindTopSparse(&global, moga, cfg_.top_subspaces_per_run);
    const std::vector<double> degrees =
        ComputeOutlyingDegrees(data_, cfg_.outlying_degree, rng);
    std::vector<Subspace> seeds;
    RankedSubspaceSet best;
    for (const auto& ss : global_top) {
      seeds.push_back(ss.subspace);
      best.InsertBest(ss.subspace, ss.score);
    }
    const std::size_t per_point =
        std::max<std::size_t>(2, cfg_.top_subspaces_per_run / 2);
    for (std::size_t point :
         TopOutlyingIndices(degrees, cfg_.top_outlying_points)) {
      BatchSparsityObjectives targeted(partition_.get(), &data_, {point});
      moga.seed = rng.NextUint64();
      for (const auto& ss : FindTopSparse(&targeted, moga, per_point, seeds)) {
        best.InsertBest(ss.subspace, ss.score);
      }
    }
    ExpectSameRanking(LearnClusteringSubspaces(data_, *partition_, cfg_, seed),
                      best.Ranked());
  }
}

TEST_F(LearningFixture, SupervisedSearchesMatchPrivateObjectives) {
  // Three examples: anomalous in dim 2, in dim 3, and a copy of a row.
  DomainKnowledge knowledge;
  knowledge.outlier_examples = {data_[0], data_[1], data_[2]};
  knowledge.outlier_examples[0][2] = 0.02;
  knowledge.outlier_examples[1][3] = 0.99;
  SupervisedConfig scfg;
  scfg.moga.num_dims = 4;
  scfg.moga.max_dimension = 2;
  scfg.moga.population_size = 12;
  scfg.moga.generations = 6;
  scfg.top_subspaces_per_example = 4;

  for (const std::vector<int>& dims :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{1, 2, 3}}) {
    const bool restricted = dims.size() < 4;
    SCOPED_TRACE(restricted ? "restricted to {1,2,3}" : "unrestricted");
    knowledge.relevant_attributes =
        restricted ? dims : std::vector<int>{};
    // The reference projects the rows itself (a projection onto every
    // attribute copies them unchanged).
    const auto project = [&dims](const std::vector<double>& row) {
      std::vector<double> out;
      for (int d : dims) out.push_back(row[static_cast<std::size_t>(d)]);
      return out;
    };
    std::vector<std::vector<double>> sample;
    for (const auto& row : data_) sample.push_back(project(row));
    const Partition reduced(static_cast<int>(dims.size()), 10, 0.0, 1.0);
    Nsga2Config moga = scfg.moga;
    moga.num_dims = static_cast<int>(dims.size());
    Rng rng(11);
    RankedSubspaceSet best;
    for (const auto& example : knowledge.outlier_examples) {
      const std::vector<double> target = project(example);
      BatchSparsityObjectives obj(&reduced, &sample, &target);
      moga.seed = rng.NextUint64();
      for (const auto& ss :
           FindTopSparse(&obj, moga, scfg.top_subspaces_per_example)) {
        Subspace mapped;
        for (int i : ss.subspace.Indices()) {
          mapped.Add(dims[static_cast<std::size_t>(i)]);
        }
        best.InsertBest(mapped, ss.score);
      }
    }
    ExpectSameRanking(
        LearnOutlierDrivenSubspaces(data_, *partition_, knowledge, scfg, 11),
        best.Ranked());
  }
}

// ------------------------------------------------------ Self-evolution ----

TEST_F(LearningFixture, EvolutionKeepsCapacityAndImprovesOrKeepsScores) {
  Sst sst(6, 6);
  // Seed CS with mediocre random subspaces.
  sst.AddClustering(Subspace::FromIndices({0, 1}), 2.0);
  sst.AddClustering(Subspace::FromIndices({1, 3}), 2.5);
  sst.AddClustering(Subspace::FromIndices({0, 3}), 3.0);

  SelfEvolutionConfig ecfg;
  ecfg.offspring = 12;
  ecfg.max_dimension = 2;
  Rng rng(41);
  EvolveClusteringSubspaces(&sst, *partition_, data_, ecfg, rng);
  EXPECT_LE(sst.clustering().size(), 6u);
  EXPECT_FALSE(sst.clustering().empty());
  for (const auto& ss : sst.clustering().Ranked()) {
    EXPECT_LE(ss.subspace.Dimension(), 2);
  }
}

TEST_F(LearningFixture, EvolutionNoopWithoutCsOrSample) {
  Sst sst(4, 4);
  SelfEvolutionConfig ecfg;
  Rng rng(43);
  EXPECT_EQ(EvolveClusteringSubspaces(&sst, *partition_, data_, ecfg, rng),
            0u);
  sst.AddClustering(Subspace::FromIndices({0, 1}), 1.0);
  EXPECT_EQ(EvolveClusteringSubspaces(&sst, *partition_, {}, ecfg, rng), 0u);
}

TEST_F(LearningFixture, EvolutionRescoresExistingMembers) {
  Sst sst(6, 6);
  // Deliberately wrong initial score: evolution must re-rank by actual
  // sparsity on the sample.
  sst.AddClustering(Subspace::FromIndices({0, 1}), 1000.0);
  sst.AddClustering(Subspace::FromIndices({2, 3}), -1000.0);
  SelfEvolutionConfig ecfg;
  ecfg.offspring = 4;
  ecfg.max_dimension = 2;
  Rng rng(47);
  EvolveClusteringSubspaces(&sst, *partition_, data_, ecfg, rng);
  for (const auto& ss : sst.clustering().Ranked()) {
    EXPECT_GT(ss.score, -100.0);
    EXPECT_LT(ss.score, 300.0);
  }
}

}  // namespace
}  // namespace spot
