// Unit tests of the PCS machinery: ProjectedGrid RD/IRSD semantics, the
// SynapseManager that keeps the total weight and every tracked grid, and the
// engine's column kernel (SynapseShard::ProcessColumn).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "grid/pcs.h"
#include "grid/projected_grid.h"
#include "grid/synapse_manager.h"
#include "grid/synapse_shard.h"

namespace spot {
namespace {

Partition UnitPartition(int dims, int cells = 10) {
  return Partition(dims, cells, 0.0, 1.0);
}

// -------------------------------------------------------------- Pcs -------

TEST(PcsTest, SparseCheckRequiresBothThresholds) {
  Pcs pcs;
  pcs.rd = 0.05;
  pcs.irsd = 0.2;
  EXPECT_TRUE(pcs.IsSparse(0.1, 0.5));
  EXPECT_FALSE(pcs.IsSparse(0.01, 0.5));  // rd too high for threshold
  EXPECT_FALSE(pcs.IsSparse(0.1, 0.1));   // irsd too high for threshold
}

// ----------------------------------------------------- ProjectedGrid ------

TEST(ProjectedGridTest, UnpopulatedCellIsMaximallySparse) {
  const Partition part = UnitPartition(3);
  ProjectedGrid grid(Subspace::FromIndices({0, 1}), &part,
                     DecayModel::None());
  const Pcs pcs = grid.Query({0.5, 0.5, 0.5}, 100.0);
  EXPECT_DOUBLE_EQ(pcs.rd, 0.0);
  EXPECT_DOUBLE_EQ(pcs.irsd, 0.0);
  EXPECT_DOUBLE_EQ(pcs.count, 0.0);
}

TEST(ProjectedGridTest, RdIsRelativeToWeightedAverageCellMass) {
  const Partition part = UnitPartition(2);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  // Two populated cells: 9 points in cell A, 1 point in cell B.
  std::uint64_t t = 0;
  for (int i = 0; i < 9; ++i) grid.Add({0.05, 0.5}, t++);
  grid.Add({0.95, 0.5}, t++);
  const double total = 10.0;
  const Pcs dense = grid.Query({0.05, 0.0}, total);
  const Pcs sparse = grid.Query({0.95, 0.0}, total);
  // RD = count * W / sum(count^2); sum = 81 + 1 = 82.
  EXPECT_NEAR(dense.rd, 9.0 * 10.0 / 82.0, 1e-9);
  EXPECT_NEAR(sparse.rd, 1.0 * 10.0 / 82.0, 1e-9);
  EXPECT_GT(dense.rd, 1.0);
  EXPECT_LT(sparse.rd, 0.2);
}

TEST(ProjectedGridTest, SumSqDecaysTwiceAsFastAsCounts) {
  const Partition part = UnitPartition(1);
  const DecayModel model(50, 0.01);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, model);
  grid.Add({0.5}, 0);
  grid.Add({0.5}, 0);  // count 2 at tick 0: sumsq = 4
  EXPECT_NEAR(grid.SumSqAt(0), 4.0, 1e-12);
  const double a10 = model.WeightAtAge(10);
  EXPECT_NEAR(grid.SumSqAt(10), 4.0 * a10 * a10, 1e-9);
}

TEST(ProjectedGridTest, SinglePointCellHasZeroIrsd) {
  const Partition part = UnitPartition(2);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  grid.Add({0.95, 0.5}, 0);
  const Pcs pcs = grid.Query({0.95, 0.5}, 1.0);
  EXPECT_DOUBLE_EQ(pcs.irsd, 0.0);
  EXPECT_NEAR(pcs.count, 1.0, 1e-12);
}

TEST(ProjectedGridTest, TightClusterHasHighIrsd) {
  const Partition part = UnitPartition(2);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  // All points at nearly the same value inside one cell: tiny sigma.
  std::uint64_t t = 0;
  for (int i = 0; i < 20; ++i) {
    grid.Add({0.5501 + 1e-5 * i, 0.5}, t++);
  }
  const Pcs pcs = grid.Query({0.55, 0.5}, 20.0);
  EXPECT_GT(pcs.irsd, 10.0);
}

TEST(ProjectedGridTest, UniformSpreadHasIrsdNearOne) {
  const Partition part = UnitPartition(1, 1);  // single cell over [0,1]
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  Rng rng(3);
  std::uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) grid.Add({rng.NextDouble()}, t++);
  const Pcs pcs = grid.Query({0.5}, 5000.0);
  // sigma_uniform / sigma_actual ~ 1 for uniform content (the 0.01*su offset
  // in the denominator biases slightly below 1).
  EXPECT_NEAR(pcs.irsd, 1.0, 0.05);
}

TEST(ProjectedGridTest, IrsdIsCapped) {
  const Partition part = UnitPartition(1);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel::None());
  // Identical points: sigma == 0, ratio would be 100 (1/0.01 == cap).
  for (std::uint64_t t = 0; t < 10; ++t) grid.Add({0.55}, t);
  const Pcs pcs = grid.Query({0.55}, 10.0);
  EXPECT_LE(pcs.irsd, Pcs::kIrsdCap);
  // Floating-point noise keeps sigma marginally above zero, so the value
  // sits just below the cap.
  EXPECT_NEAR(pcs.irsd, Pcs::kIrsdCap, 0.1);
}

TEST(ProjectedGridTest, DecayShrinksOldCells) {
  const Partition part = UnitPartition(1);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel(20, 0.01));
  for (std::uint64_t t = 0; t < 5; ++t) grid.Add({0.05}, t);
  // Advance time with arrivals elsewhere.
  for (std::uint64_t t = 5; t < 100; ++t) grid.Add({0.95}, t);
  const Pcs old_cell = grid.QueryCoords({0}, 50.0);
  EXPECT_LT(old_cell.count, 0.1);  // decayed to near nothing
}

TEST(ProjectedGridTest, CompactDropsDecayedCells) {
  const Partition part = UnitPartition(1);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel(10, 0.001),
                     1e-3, 0);
  grid.Add({0.05}, 0);
  for (std::uint64_t t = 1; t < 300; ++t) grid.Add({0.95}, t);
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  grid.Compact(299);
  EXPECT_EQ(grid.PopulatedCells(), 1u);
}

TEST(ProjectedGridTest, MultiDimSubspaceCoordinates) {
  const Partition part = UnitPartition(4);
  ProjectedGrid grid(Subspace::FromIndices({1, 3}), &part,
                     DecayModel::None());
  grid.Add({0.0, 0.15, 0.0, 0.85}, 0);
  // Same projection in dims {1,3}, wildly different elsewhere: same cell.
  grid.Add({0.9, 0.18, 0.4, 0.88}, 1);
  EXPECT_EQ(grid.PopulatedCells(), 1u);
  const Pcs pcs = grid.Query({0.5, 0.11, 0.99, 0.81}, 2.0);
  EXPECT_NEAR(pcs.count, 2.0, 1e-12);
}

// ---------------------------------------------------- SynapseManager ------

TEST(SynapseManagerTest, TrackUntrackLifecycle) {
  SynapseManager mgr(UnitPartition(3), DecayModel::None());
  const Subspace s = Subspace::FromIndices({0, 2});
  EXPECT_FALSE(mgr.IsTracked(s));
  mgr.Track(s);
  EXPECT_TRUE(mgr.IsTracked(s));
  EXPECT_EQ(mgr.NumTracked(), 1u);
  mgr.Track(s);  // idempotent
  EXPECT_EQ(mgr.NumTracked(), 1u);
  mgr.Untrack(s);
  EXPECT_FALSE(mgr.IsTracked(s));
}

TEST(SynapseManagerTest, EmptySubspaceNotTrackable) {
  SynapseManager mgr(UnitPartition(3), DecayModel::None());
  mgr.Track(Subspace());
  EXPECT_EQ(mgr.NumTracked(), 0u);
}

TEST(SynapseManagerTest, AddUpdatesAllGrids) {
  SynapseManager mgr(UnitPartition(3), DecayModel::None());
  mgr.Track(Subspace::FromIndices({0}));
  mgr.Track(Subspace::FromIndices({1, 2}));
  for (std::uint64_t t = 0; t < 10; ++t) mgr.Add({0.5, 0.5, 0.5}, t);
  EXPECT_NEAR(mgr.TotalWeight(), 10.0, 1e-9);
  const Pcs a = mgr.Query({0.5, 0.5, 0.5}, Subspace::FromIndices({0}));
  const Pcs b = mgr.Query({0.5, 0.5, 0.5}, Subspace::FromIndices({1, 2}));
  EXPECT_NEAR(a.count, 10.0, 1e-9);
  EXPECT_NEAR(b.count, 10.0, 1e-9);
}

// The total stream weight W is one decayed counter: every arrival counts,
// whatever cell it lands in and whether or not any grid is tracked.
TEST(SynapseManagerTest, TotalWeightCountsEverything) {
  SynapseManager mgr(UnitPartition(2), DecayModel::None());
  for (std::uint64_t t = 0; t < 10; ++t) {
    mgr.Add({0.1 * static_cast<double>(t), 0.5}, t);
  }
  EXPECT_NEAR(mgr.TotalWeight(), 10.0, 1e-9);
  EXPECT_EQ(mgr.last_tick(), 9u);
}

TEST(SynapseManagerTest, DecayedTotalWeightBelowCount) {
  SynapseManager mgr(UnitPartition(1), DecayModel(50, 0.01));
  for (std::uint64_t t = 0; t < 100; ++t) mgr.Add({0.5}, t);
  EXPECT_LT(mgr.TotalWeight(), 100.0);
  EXPECT_GT(mgr.TotalWeight(), 1.0);
}

TEST(SynapseManagerTest, QueryUntrackedReturnsEmptyPcs) {
  SynapseManager mgr(UnitPartition(3), DecayModel::None());
  mgr.Add({0.5, 0.5, 0.5}, 0);
  const Pcs pcs = mgr.Query({0.5, 0.5, 0.5}, Subspace::FromIndices({0}));
  EXPECT_DOUBLE_EQ(pcs.count, 0.0);
}

TEST(SynapseManagerTest, LateTrackedGridStartsEmpty) {
  SynapseManager mgr(UnitPartition(2), DecayModel::None());
  for (std::uint64_t t = 0; t < 5; ++t) mgr.Add({0.5, 0.5}, t);
  mgr.Track(Subspace::FromIndices({0}));
  const Pcs before = mgr.Query({0.5, 0.5}, Subspace::FromIndices({0}));
  EXPECT_DOUBLE_EQ(before.count, 0.0);
  mgr.Add({0.5, 0.5}, 5);
  const Pcs after = mgr.Query({0.5, 0.5}, Subspace::FromIndices({0}));
  EXPECT_NEAR(after.count, 1.0, 1e-12);
}

TEST(SynapseManagerTest, TotalPopulatedCellsAggregates) {
  SynapseManager mgr(UnitPartition(2), DecayModel::None());
  mgr.Track(Subspace::FromIndices({0}));
  mgr.Add({0.05, 0.05}, 0);
  mgr.Add({0.95, 0.95}, 1);
  // Projected {0}: 2 cells. Base cells are not stored.
  EXPECT_EQ(mgr.TotalPopulatedCells(), 2u);
}

TEST(SynapseManagerTest, CompactAllSweepsEveryGrid) {
  SynapseManager mgr(UnitPartition(1), DecayModel(10, 0.001), 1e-3, 0);
  mgr.Track(Subspace::FromIndices({0}));
  mgr.Add({0.05}, 0);
  for (std::uint64_t t = 1; t < 300; ++t) mgr.Add({0.95}, t);
  const std::size_t removed = mgr.CompactAll(299);
  EXPECT_GE(removed, 1u);  // stale cell gone from the projected grid
}

TEST(SynapseManagerTest, CompactAllReclaimsPrunedSlotsAndPreservesPcs) {
  // Strong decay, manual compaction only.
  SynapseManager mgr(UnitPartition(2), DecayModel(10, 0.001), 1e-3, 0);
  const Subspace s0 = Subspace::FromIndices({0});
  const Subspace s01 = Subspace::FromIndices({0, 1});
  mgr.Track(s0);
  mgr.Track(s01);

  // One cell that will decay below the prune threshold, plus two cells kept
  // alive (interleaved, so both stay fresh) until the sweep tick.
  std::uint64_t t = 0;
  mgr.Add({0.05, 0.05}, t++);
  for (int i = 0; i < 150; ++i) {
    mgr.Add({0.55, 0.55}, t++);
    mgr.Add({0.95, 0.95}, t++);
  }
  const std::uint64_t now = t - 1;

  const Pcs mid_s0_before = mgr.Query({0.55, 0.55}, s0);
  const Pcs hi_s0_before = mgr.Query({0.95, 0.95}, s0);
  const Pcs mid_s01_before = mgr.Query({0.55, 0.55}, s01);
  for (std::size_t g = 0; g < mgr.NumTracked(); ++g) {
    ASSERT_EQ(mgr.GridAt(g)->PopulatedCells(), 3u);
    ASSERT_EQ(mgr.GridAt(g)->SlabSlots(), 3u);
    ASSERT_EQ(mgr.GridAt(g)->FreeSlots(), 0u);
  }

  // The stale cell is reclaimed from every projected grid; its slab slots
  // move to the free lists (the slabs never shrink).
  EXPECT_EQ(mgr.CompactAll(now), 2u);
  for (std::size_t g = 0; g < mgr.NumTracked(); ++g) {
    EXPECT_EQ(mgr.GridAt(g)->PopulatedCells(), 2u);
    EXPECT_EQ(mgr.GridAt(g)->SlabSlots(), 3u);
    EXPECT_EQ(mgr.GridAt(g)->FreeSlots(), 1u);
  }

  // Surviving cells answer the same PCS after the sweep (the sweep only
  // recomputes the squared-count sum exactly, cancelling float drift, so
  // equality is up to that correction).
  const Pcs mid_s0_after = mgr.Query({0.55, 0.55}, s0);
  const Pcs hi_s0_after = mgr.Query({0.95, 0.95}, s0);
  const Pcs mid_s01_after = mgr.Query({0.55, 0.55}, s01);
  EXPECT_NEAR(mid_s0_after.rd, mid_s0_before.rd, 1e-9);
  EXPECT_NEAR(mid_s0_after.irsd, mid_s0_before.irsd, 1e-9);
  EXPECT_NEAR(mid_s0_after.count, mid_s0_before.count, 1e-9);
  EXPECT_NEAR(hi_s0_after.rd, hi_s0_before.rd, 1e-9);
  EXPECT_NEAR(hi_s0_after.count, hi_s0_before.count, 1e-9);
  EXPECT_NEAR(mid_s01_after.rd, mid_s01_before.rd, 1e-9);
  EXPECT_NEAR(mid_s01_after.irsd, mid_s01_before.irsd, 1e-9);

  // The pruned cell reads as unpopulated, and its freed slot is recycled by
  // the next insert instead of growing the slab.
  EXPECT_EQ(mgr.Query({0.05, 0.05}, s0).count, 0.0);
  mgr.Add({0.05, 0.05}, now + 1);
  for (std::size_t g = 0; g < mgr.NumTracked(); ++g) {
    EXPECT_EQ(mgr.GridAt(g)->PopulatedCells(), 3u);
    EXPECT_EQ(mgr.GridAt(g)->SlabSlots(), 3u);
    EXPECT_EQ(mgr.GridAt(g)->FreeSlots(), 0u);
  }
}

TEST(SynapseManagerTest, TrackedSubspacesRoundTrip) {
  SynapseManager mgr(UnitPartition(4), DecayModel::None());
  mgr.Track(Subspace::FromIndices({0}));
  mgr.Track(Subspace::FromIndices({1, 2}));
  const auto tracked = mgr.TrackedSubspaces();
  EXPECT_EQ(tracked.size(), 2u);
}

// ------------------------------------------------- Slab store mechanics ---

TEST(SlabStoreTest, FreeListRecyclesPrunedSlots) {
  const Partition part = UnitPartition(1);
  // Strong decay, manual compaction only.
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, DecayModel(10, 0.001),
                     1e-3, 0);
  grid.Add({0.05}, 0);
  for (std::uint64_t t = 1; t < 300; ++t) grid.Add({0.95}, t);
  ASSERT_EQ(grid.PopulatedCells(), 2u);
  ASSERT_EQ(grid.SlabSlots(), 2u);
  ASSERT_EQ(grid.FreeSlots(), 0u);

  // The stale cell is pruned: its slot moves to the free list, the slab
  // itself does not shrink.
  ASSERT_EQ(grid.Compact(299), 1u);
  EXPECT_EQ(grid.PopulatedCells(), 1u);
  EXPECT_EQ(grid.SlabSlots(), 2u);
  EXPECT_EQ(grid.FreeSlots(), 1u);

  // A brand-new cell reuses the freed slot instead of growing the slab.
  grid.Add({0.55}, 300);
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  EXPECT_EQ(grid.SlabSlots(), 2u);
  EXPECT_EQ(grid.FreeSlots(), 0u);

  // The recycled slot starts from a clean record.
  const Pcs fresh = grid.QueryCoords({5}, 1.0);
  EXPECT_NEAR(fresh.count, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(fresh.irsd, 0.0);
}

TEST(SlabStoreTest, SumSqMatchesSurvivingCellsAfterCompaction) {
  const Partition part = UnitPartition(1);
  const DecayModel model(50, 0.01);
  ProjectedGrid grid(Subspace::FromIndices({0}), &part, model, 1e-3, 0);
  std::uint64_t t = 0;
  for (int i = 0; i < 30; ++i) grid.Add({0.05}, t++);
  for (int i = 0; i < 10; ++i) grid.Add({0.55}, t++);
  grid.Add({0.95}, t++);
  // Age everything, then compact: SumSqAt must equal the exact sum of the
  // surviving cells' squared decayed counts (the sweep cancels all drift).
  const std::uint64_t sweep_tick = t + 200;
  grid.Compact(sweep_tick);
  double expected = 0.0;
  for (std::uint32_t c : {0u, 5u, 9u}) {
    const Pcs pcs = grid.QueryCoords({c}, 1.0);
    expected += pcs.count * pcs.count;
  }
  EXPECT_NEAR(grid.SumSqAt(sweep_tick), expected, 1e-12);
  // And it keeps decaying at twice the count rate from there.
  const double a10 = model.WeightAtAge(10);
  EXPECT_NEAR(grid.SumSqAt(sweep_tick + 10), expected * a10 * a10, 1e-12);
}

TEST(SlabStoreTest, FusedAddAndQueryMatchesAddThenQuery) {
  const Partition part = UnitPartition(2);
  const DecayModel model(100, 0.01);
  ProjectedGrid unfused(Subspace::FromIndices({0, 1}), &part, model);
  ProjectedGrid fused(Subspace::FromIndices({0, 1}), &part, model);
  Rng rng(17);
  for (std::uint64_t t = 0; t < 500; ++t) {
    const std::vector<double> p = {rng.NextDouble(), rng.NextDouble()};
    const double w = static_cast<double>(t + 1);
    unfused.Add(p, t);
    const Pcs a = unfused.Query(p, w);
    const Pcs b = fused.AddAndQuery(p, t, w);
    ASSERT_EQ(a.count, b.count) << "tick " << t;
    ASSERT_EQ(a.rd, b.rd) << "tick " << t;
    ASSERT_EQ(a.irsd, b.irsd) << "tick " << t;
  }
  // The fused path pays one index probe per point; Add+Query pays two.
  EXPECT_EQ(fused.hash_probes(), 500u);
  EXPECT_EQ(unfused.hash_probes(), 1000u);
}

TEST(SlabStoreTest, BaseCoordProjectionMatchesRebinning) {
  const Partition part = UnitPartition(4);
  const DecayModel model = DecayModel::None();
  ProjectedGrid rebin(Subspace::FromIndices({1, 3}), &part, model);
  ProjectedGrid projected(Subspace::FromIndices({1, 3}), &part, model);
  Rng rng(23);
  for (std::uint64_t t = 0; t < 200; ++t) {
    std::vector<double> p(4);
    for (double& v : p) v = rng.NextDouble();
    const double w = static_cast<double>(t + 1);
    const Pcs a = rebin.AddAndQuery(p, t, w);
    const Pcs b = projected.AddAndQueryAt(part.BaseCell(p), p, t, w);
    ASSERT_EQ(a.count, b.count) << "tick " << t;
    ASSERT_EQ(a.rd, b.rd) << "tick " << t;
    ASSERT_EQ(a.irsd, b.irsd) << "tick " << t;
  }
  EXPECT_EQ(rebin.PopulatedCells(), projected.PopulatedCells());
}

std::uint64_t Bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// The output lanes of one column-major batch: entry i * n + j belongs to
/// dense grid i and point j.
struct BatchLanes {
  std::vector<Pcs> pcs;
  std::vector<unsigned char> veto;
};

/// Folds `points` (ticks from `tick` on) into `mgr` the way the engine
/// does: phase 0 bins every point and folds the total-weight counter, then
/// SynapseShard::ProcessColumn runs over every tracked grid in dense order.
BatchLanes FoldColumnMajor(SynapseManager* mgr,
                           const std::vector<DataPoint>& points,
                           std::uint64_t tick, const ShardRunParams& params) {
  const std::size_t n = points.size();
  BatchFrame frame;
  frame.points = points.data();
  frame.base_coords.resize(n);
  frame.ticks.resize(n);
  frame.total_weights.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    frame.ticks[j] = tick + j;
    mgr->BinBase(points[j].values, &frame.base_coords[j]);
    frame.total_weights[j] = mgr->AddBase(frame.ticks[j]);
  }
  BatchLanes lanes;
  lanes.pcs.resize(mgr->NumTracked() * n);
  lanes.veto.resize(mgr->NumTracked() * n);
  CellCoords coords;
  for (std::size_t i = 0; i < mgr->NumTracked(); ++i) {
    const ShardColumn lane{mgr->SubspaceAt(i), mgr->GridAt(i),
                           mgr->SerialAt(i), lanes.pcs.data() + i * n,
                           lanes.veto.data() + i * n};
    SynapseShard::ProcessColumn(lane, frame, 0, n, params, &coords);
  }
  return lanes;
}

// The column kernel the detector ships, against an independent reference:
// two managers see the same stream, one folding each batch column-major
// (bin + total-weight fold, then SynapseShard::ProcessColumn on every
// tracked grid) and one per point (Add, then Query per subspace). Every
// lane entry — PCS bit patterns and the fringe veto — must match the
// reference exactly, across batches and decay. Compaction is off: the fused
// kernel reads a cell's PCS just before a due sweep, where Add + Query reads
// it after (SynapseShardTest.ProcessColumnMatchesFusedPerPointWithSweeps
// covers sweeps).
TEST(SynapseShardTest, ProcessColumnMatchesPerPointAddThenQuery) {
  const DecayModel model(100, 0.01);
  SynapseManager column(UnitPartition(3), model, 1e-3,
                        /*compaction_period=*/0);
  SynapseManager reference(UnitPartition(3), model, 1e-3,
                           /*compaction_period=*/0);
  for (auto* mgr : {&column, &reference}) {
    mgr->Track(Subspace::FromIndices({0}));
    mgr->Track(Subspace::FromIndices({1, 2}));
    mgr->Track(Subspace::FromIndices({0, 2}));
  }
  const std::size_t tracked = column.NumTracked();
  const ShardRunParams params{/*rd_threshold=*/0.5, /*irsd_threshold=*/100.0,
                              /*fringe_factor=*/2.0};
  // A Gaussian cluster over uniform background: sparse cells on the
  // cluster's graded fringe (vetoed or not depending on the neighbor mass)
  // and far from it.
  Rng rng(29);
  const auto draw = [&rng] {
    std::vector<double> p(3);
    const bool clustered = rng.NextDouble() < 0.85;
    for (double& v : p) {
      v = clustered ? Clamp(rng.NextGaussian(0.5, 0.12), 0.0, 0.999)
                    : rng.NextDouble();
    }
    return p;
  };

  const std::size_t n = 64;
  std::uint64_t tick = 0;
  std::size_t sparse = 0;
  std::size_t vetoed = 0;
  for (int batch = 0; batch < 6; ++batch) {
    std::vector<DataPoint> points(n);
    for (DataPoint& p : points) p.values = draw();
    const BatchLanes lanes = FoldColumnMajor(&column, points, tick, params);
    const std::vector<Pcs>& pcs = lanes.pcs;
    const std::vector<unsigned char>& veto = lanes.veto;

    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<double>& p = points[j].values;
      reference.Add(p, tick + j);
      CellCoords base;
      reference.BinBase(p, &base);
      for (std::size_t i = 0; i < tracked; ++i) {
        ASSERT_EQ(reference.SubspaceAt(i), column.SubspaceAt(i));
        const Pcs q = reference.Query(p, reference.SubspaceAt(i));
        const Pcs& got = pcs[i * n + j];
        ASSERT_EQ(Bits(got.count), Bits(q.count))
            << "batch " << batch << " point " << j << " grid " << i;
        ASSERT_EQ(Bits(got.rd), Bits(q.rd))
            << "batch " << batch << " point " << j << " grid " << i;
        ASSERT_EQ(Bits(got.irsd), Bits(q.irsd))
            << "batch " << batch << " point " << j << " grid " << i;
        bool expect_veto = false;
        if (q.IsSparse(params.rd_threshold, params.irsd_threshold)) {
          ++sparse;
          CellCoords coords;
          reference.GridAt(i)->ProjectBaseInto(base, &coords);
          expect_veto = reference.GridAt(i)->IsClusterFringe(
              coords, q.count, params.fringe_factor);
        }
        ASSERT_EQ(veto[i * n + j], expect_veto ? 1 : 0)
            << "batch " << batch << " point " << j << " grid " << i;
        vetoed += expect_veto ? 1 : 0;
      }
    }
    tick += n;
  }
  // The stream must exercise both veto outcomes, or the comparison proves
  // much less than it claims.
  EXPECT_GT(vetoed, 0u);
  EXPECT_GT(sparse, vetoed);
  // One fused probe per (point, grid) where Add + Query pays two; the
  // fringe probes match one for one.
  EXPECT_EQ(reference.hash_probes() - column.hash_probes(), 6 * n * tracked);
}

// The column kernel with compaction sweeps firing mid-batch: strong decay
// and a 64-arrival cadence, so background cells fall below the prune
// threshold between visits. The reference twin folds point by point through
// each grid's fused AddAndQueryAt, which reads the PCS before a due sweep,
// as the kernel does, so both sides sweep at the same arrival. PCS and
// veto lanes must match bit for bit.
TEST(SynapseShardTest, ProcessColumnMatchesFusedPerPointWithSweeps) {
  const DecayModel model(50, 0.01);
  SynapseManager column(UnitPartition(3), model, 1e-3,
                        /*compaction_period=*/64);
  SynapseManager reference(UnitPartition(3), model, 1e-3,
                           /*compaction_period=*/64);
  for (auto* mgr : {&column, &reference}) {
    mgr->Track(Subspace::FromIndices({0}));
    mgr->Track(Subspace::FromIndices({1, 2}));
    mgr->Track(Subspace::FromIndices({0, 1, 2}));
  }
  const std::size_t tracked = column.NumTracked();
  const ShardRunParams params{/*rd_threshold=*/0.5, /*irsd_threshold=*/100.0,
                              /*fringe_factor=*/2.0};
  Rng rng(31);
  const auto draw = [&rng] {
    std::vector<double> p(3);
    const bool clustered = rng.NextDouble() < 0.8;
    for (double& v : p) {
      v = clustered ? Clamp(rng.NextGaussian(0.5, 0.1), 0.0, 0.999)
                    : rng.NextDouble();
    }
    return p;
  };

  // 100 points per batch against a 64-arrival cadence: sweeps land at a
  // different offset in every batch.
  const std::size_t n = 100;
  std::uint64_t tick = 0;
  std::size_t sparse = 0;
  std::size_t vetoed = 0;
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<DataPoint> points(n);
    for (DataPoint& p : points) p.values = draw();
    const BatchLanes lanes = FoldColumnMajor(&column, points, tick, params);
    const std::vector<Pcs>& pcs = lanes.pcs;
    const std::vector<unsigned char>& veto = lanes.veto;

    for (std::size_t j = 0; j < n; ++j) {
      const std::vector<double>& p = points[j].values;
      const double w = reference.AddBase(tick + j);
      CellCoords base;
      reference.BinBase(p, &base);
      for (std::size_t i = 0; i < tracked; ++i) {
        ASSERT_EQ(reference.SubspaceAt(i), column.SubspaceAt(i));
        ProjectedGrid& grid = *reference.GridAt(i);
        const Pcs q = grid.AddAndQueryAt(base, p, tick + j, w);
        const Pcs& got = pcs[i * n + j];
        ASSERT_EQ(Bits(got.count), Bits(q.count))
            << "batch " << batch << " point " << j << " grid " << i;
        ASSERT_EQ(Bits(got.rd), Bits(q.rd))
            << "batch " << batch << " point " << j << " grid " << i;
        ASSERT_EQ(Bits(got.irsd), Bits(q.irsd))
            << "batch " << batch << " point " << j << " grid " << i;
        bool expect_veto = false;
        if (q.IsSparse(params.rd_threshold, params.irsd_threshold)) {
          ++sparse;
          CellCoords coords;
          grid.ProjectBaseInto(base, &coords);
          expect_veto =
              grid.IsClusterFringe(coords, q.count, params.fringe_factor);
        }
        ASSERT_EQ(veto[i * n + j], expect_veto ? 1 : 0)
            << "batch " << batch << " point " << j << " grid " << i;
        vetoed += expect_veto ? 1 : 0;
      }
    }
    tick += n;
  }
  // Sweeps really ran and reclaimed cells, on both sides alike, and the
  // stream exercised both veto outcomes.
  EXPECT_GT(column.TotalCellsReclaimed(), 0u);
  EXPECT_EQ(column.TotalCellsReclaimed(), reference.TotalCellsReclaimed());
  EXPECT_EQ(column.TotalPopulatedCells(), reference.TotalPopulatedCells());
  EXPECT_EQ(column.hash_probes(), reference.hash_probes());
  EXPECT_GT(vetoed, 0u);
  EXPECT_GT(sparse, vetoed);
}

TEST(SynapseManagerTest, UntrackKeepsDenseOrderConsistent) {
  SynapseManager mgr(UnitPartition(4), DecayModel::None());
  const Subspace a = Subspace::FromIndices({0});
  const Subspace b = Subspace::FromIndices({1});
  const Subspace c = Subspace::FromIndices({2});
  mgr.Track(a);
  mgr.Track(b);
  mgr.Track(c);
  mgr.Untrack(b);  // swap-remove: c takes b's dense slot
  EXPECT_FALSE(mgr.IsTracked(b));
  EXPECT_TRUE(mgr.IsTracked(a));
  EXPECT_TRUE(mgr.IsTracked(c));

  const std::vector<double> p = {0.5, 0.5, 0.5, 0.5};
  mgr.Add(p, 0);
  const auto tracked = mgr.TrackedSubspaces();
  ASSERT_EQ(tracked.size(), 2u);
  // Each dense slot holds the grid of the same-index subspace.
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    EXPECT_EQ(mgr.SubspaceAt(i), tracked[i]);
    EXPECT_EQ(mgr.GridAt(i)->subspace(), tracked[i]);
    EXPECT_EQ(mgr.GridAt(i)->Query(p, mgr.TotalWeight()).count,
              mgr.Query(p, tracked[i]).count);
  }
}

// PCS consistency: the online ProjectedGrid (no decay) must agree with the
// batch evaluation used by MOGA objectives. Guards against the two code
// paths drifting apart.
TEST(SynapseManagerTest, OnlinePcsMatchesBatchForStaticData) {
  const Partition part = UnitPartition(2);
  SynapseManager mgr(part, DecayModel::None());
  const Subspace s = Subspace::FromIndices({0});
  mgr.Track(s);
  Rng rng(11);
  std::vector<std::vector<double>> data;
  std::uint64_t t = 0;
  for (int i = 0; i < 200; ++i) {
    data.push_back({rng.NextDouble(), rng.NextDouble()});
    mgr.Add(data.back(), t++);
  }
  // Batch recomputation of RD for a probe point.
  const std::vector<double> probe = data.front();
  const Pcs online = mgr.Query(probe, s);
  // Histogram the cell occupancy by hand.
  std::vector<double> counts(10, 0.0);
  for (const auto& row : data) {
    counts[part.IntervalIndex(0, row[0])] += 1.0;
  }
  double sumsq = 0.0;
  for (double c : counts) sumsq += c * c;
  const double expected_rd =
      counts[part.IntervalIndex(0, probe[0])] * 200.0 / sumsq;
  EXPECT_NEAR(online.rd, expected_rd, 1e-9);
}

}  // namespace
}  // namespace spot
