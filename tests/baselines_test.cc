// Unit tests of the full-space baselines: STORM, incremental LOF, and the
// largest-cluster detector — including the projected-outlier blindness that
// motivates SPOT.

#include <vector>

#include <gtest/gtest.h>

#include "baselines/incremental_lof.h"
#include "baselines/largest_cluster.h"
#include "baselines/storm.h"
#include "common/rng.h"
#include "stream/synthetic.h"

namespace spot {
namespace {

using baselines::IncrementalLofConfig;
using baselines::IncrementalLofDetector;
using baselines::LargestClusterConfig;
using baselines::LargestClusterDetector;
using baselines::StormConfig;
using baselines::StormDetector;

DataPoint Point(std::vector<double> values) {
  DataPoint p;
  p.values = std::move(values);
  return p;
}

// --------------------------------------------------------------- STORM ----

TEST(StormTest, FirstPointsAreOutliersUntilWindowFills) {
  StormConfig cfg;
  cfg.min_neighbors = 3;
  cfg.radius = 0.1;
  StormDetector det(cfg);
  // With an empty window, no neighbors exist.
  EXPECT_TRUE(det.Process(Point({0.5, 0.5})).is_outlier);
}

TEST(StormTest, DensePointBecomesInlier) {
  StormConfig cfg;
  cfg.min_neighbors = 3;
  cfg.radius = 0.1;
  StormDetector det(cfg);
  for (int i = 0; i < 10; ++i) det.Process(Point({0.5, 0.5}));
  EXPECT_FALSE(det.Process(Point({0.5, 0.5})).is_outlier);
}

TEST(StormTest, FarPointIsOutlier) {
  StormConfig cfg;
  cfg.min_neighbors = 3;
  cfg.radius = 0.1;
  StormDetector det(cfg);
  for (int i = 0; i < 20; ++i) det.Process(Point({0.5, 0.5}));
  const Detection d = det.Process(Point({0.9, 0.9}));
  EXPECT_TRUE(d.is_outlier);
  EXPECT_GT(d.score, 0.0);
  EXPECT_TRUE(d.outlying_subspaces.empty());  // full-space: no attribution
}

TEST(StormTest, WindowEvictsOldPoints) {
  StormConfig cfg;
  cfg.window = 5;
  cfg.min_neighbors = 3;
  cfg.radius = 0.1;
  StormDetector det(cfg);
  for (int i = 0; i < 10; ++i) det.Process(Point({0.2, 0.2}));
  EXPECT_EQ(det.window_size(), 5u);
  // Flood with far points; the old neighborhood ages out.
  for (int i = 0; i < 5; ++i) det.Process(Point({0.8, 0.8}));
  EXPECT_TRUE(det.Process(Point({0.2, 0.2})).is_outlier);
}

TEST(StormTest, BlindToProjectedOutliersInHighDim) {
  // A point anomalous in 2 of 30 dims stays within full-space radius of the
  // cluster; STORM cannot see it. This is the paper's core motivation.
  const int dims = 30;
  StormConfig cfg;
  cfg.min_neighbors = 3;
  cfg.radius = 1.0;  // calibrated to accept cluster members in 30-d
  StormDetector det(cfg);
  Rng rng(3);
  std::vector<double> center(dims, 0.5);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> p(dims);
    for (int d = 0; d < dims; ++d) {
      p[static_cast<std::size_t>(d)] =
          center[static_cast<std::size_t>(d)] + 0.05 * rng.NextGaussian();
    }
    det.Process(Point(std::move(p)));
  }
  // Projected outlier: 2 attributes displaced by 0.45 — squared distance
  // contribution 2 * 0.2 ≈ 0.4 < radius^2 = 1.
  std::vector<double> sneaky(dims, 0.5);
  sneaky[7] = 0.95;
  sneaky[21] = 0.05;
  EXPECT_FALSE(det.Process(Point(std::move(sneaky))).is_outlier);
}

// ---------------------------------------------------------------- iLOF ----

TEST(IncrementalLofTest, WarmupIsNotFlagged) {
  IncrementalLofConfig cfg;
  cfg.k = 5;
  IncrementalLofDetector det(cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(det.Process(Point({0.1 * i, 0.5})).is_outlier);
  }
}

TEST(IncrementalLofTest, UniformDensityGivesLofNearOne) {
  IncrementalLofConfig cfg;
  cfg.k = 5;
  cfg.lof_threshold = 1.5;
  IncrementalLofDetector det(cfg);
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    det.Process(Point({rng.NextDouble(0.4, 0.6), rng.NextDouble(0.4, 0.6)}));
  }
  const Detection d =
      det.Process(Point({0.5, 0.5}));
  EXPECT_FALSE(d.is_outlier);
  EXPECT_NEAR(det.last_lof(), 1.0, 0.5);
}

TEST(IncrementalLofTest, IsolatedPointHasHighLof) {
  IncrementalLofConfig cfg;
  cfg.k = 5;
  cfg.lof_threshold = 1.8;
  IncrementalLofDetector det(cfg);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    det.Process(Point({0.5 + 0.02 * rng.NextGaussian(),
                       0.5 + 0.02 * rng.NextGaussian()}));
  }
  const Detection d = det.Process(Point({0.95, 0.95}));
  EXPECT_TRUE(d.is_outlier);
  EXPECT_GT(det.last_lof(), 1.8);
  EXPECT_GT(d.score, 1.8);  // score carries the LOF value
}

TEST(IncrementalLofTest, WindowBoundRespected) {
  IncrementalLofConfig cfg;
  cfg.window = 50;
  cfg.k = 3;
  IncrementalLofDetector det(cfg);
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    det.Process(Point({rng.NextDouble(), rng.NextDouble()}));
  }
  SUCCEED();  // bound enforced internally; this is a no-crash/perf test
}

// ------------------------------------------------------- LargestCluster ----

TEST(LargestClusterTest, DominantClusterMembersAreNormal) {
  LargestClusterConfig cfg;
  cfg.radius = 0.2;
  cfg.small_cluster_fraction = 0.05;
  LargestClusterDetector det(cfg);
  Rng rng(15);
  Detection last;
  for (int i = 0; i < 300; ++i) {
    last = det.Process(Point({0.5 + 0.02 * rng.NextGaussian(),
                              0.5 + 0.02 * rng.NextGaussian()}));
  }
  EXPECT_FALSE(last.is_outlier);
}

TEST(LargestClusterTest, NewFarPointIsAnomalous) {
  LargestClusterConfig cfg;
  cfg.radius = 0.2;
  LargestClusterDetector det(cfg);
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    det.Process(Point({0.5 + 0.02 * rng.NextGaussian(),
                       0.5 + 0.02 * rng.NextGaussian()}));
  }
  const Detection d = det.Process(Point({0.95, 0.05}));
  EXPECT_TRUE(d.is_outlier);
  EXPECT_GT(d.score, 0.9);
}

TEST(LargestClusterTest, ClusterCountBounded) {
  LargestClusterConfig cfg;
  cfg.max_clusters = 10;
  cfg.radius = 0.01;  // every random point founds a cluster
  LargestClusterDetector det(cfg);
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    det.Process(Point({rng.NextDouble(), rng.NextDouble()}));
  }
  EXPECT_LE(det.num_clusters(), 10u);
}

TEST(LargestClusterTest, CentroidTracksAbsorbedPoints) {
  LargestClusterConfig cfg;
  cfg.radius = 0.5;
  LargestClusterDetector det(cfg);
  for (int i = 0; i < 50; ++i) det.Process(Point({0.3, 0.3}));
  // All points identical: one cluster, its members normal.
  EXPECT_EQ(det.num_clusters(), 1u);
  EXPECT_FALSE(det.Process(Point({0.3, 0.3})).is_outlier);
}

// The shared failure mode: all three baselines miss a projected outlier
// hidden in a high-dimensional stream that SPOT's problem statement targets.
TEST(BaselineBlindnessTest, AllFullSpaceDetectorsMissProjectedOutlier) {
  const int dims = 30;
  Rng rng(21);

  StormConfig scfg;
  scfg.radius = 1.0;
  scfg.min_neighbors = 3;
  StormDetector storm(scfg);

  IncrementalLofConfig lcfg;
  lcfg.k = 8;
  lcfg.lof_threshold = 2.0;
  IncrementalLofDetector lof(lcfg);

  LargestClusterConfig ccfg;
  ccfg.radius = 1.0;
  ccfg.small_cluster_fraction = 0.02;
  LargestClusterDetector cluster(ccfg);

  for (int i = 0; i < 200; ++i) {
    std::vector<double> p(dims);
    for (int d = 0; d < dims; ++d) {
      p[static_cast<std::size_t>(d)] = 0.5 + 0.05 * rng.NextGaussian();
    }
    storm.Process(Point(p));
    lof.Process(Point(p));
    cluster.Process(Point(p));
  }
  std::vector<double> sneaky(dims, 0.5);
  sneaky[3] = 0.95;
  sneaky[17] = 0.05;
  EXPECT_FALSE(storm.Process(Point(sneaky)).is_outlier);
  EXPECT_FALSE(lof.Process(Point(sneaky)).is_outlier);
  EXPECT_FALSE(cluster.Process(Point(sneaky)).is_outlier);
}

}  // namespace
}  // namespace spot
