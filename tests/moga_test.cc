// Unit tests of src/moga: dominance, fast non-dominated sort, crowding,
// genetic operators, the sparsity objectives (pinned bit for bit to the
// unordered_map kernel they replaced, and allocation-counted), the NSGA-II
// loop, MOGA vs exhaustive search, and what one search allocates.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/partition.h"
#include "grid/pcs.h"
#include "moga/moga_search.h"
#include "moga/nsga2.h"
#include "moga/objectives.h"
#include "moga/operators.h"
#include "stream/synthetic.h"
#include "subspace/lattice.h"

// Global operator new counts the allocations of this thread while armed, so
// a test can bound what one objective evaluation or one search allocates.
namespace {
thread_local bool t_count_allocations = false;
thread_local std::size_t t_allocations = 0;
}  // namespace

// Both sides out of line, so the compiler pairs neither an inlined malloc()
// nor an inlined free() with a new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (t_count_allocations) ++t_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spot {
namespace {

ObjectiveVector Obj(double rd, double irsd, double dim) {
  return ObjectiveVector{{rd, irsd, dim}};
}

// ---------------------------------------------------------- Dominance ----
//
// Most dominance and sort cases vary the first two objectives and hold the
// third constant, which neither dominance nor the fronts can see.

TEST(DominanceTest, StrictDominance) {
  EXPECT_TRUE(Dominates(Obj(1.0, 1.0, 2.0), Obj(2.0, 2.0, 2.0)));
  EXPECT_TRUE(Dominates(Obj(1.0, 2.0, 2.0), Obj(2.0, 2.0, 2.0)));
  EXPECT_FALSE(Dominates(Obj(2.0, 2.0, 2.0), Obj(1.0, 1.0, 2.0)));
  EXPECT_TRUE(Dominates(Obj(1.0, 1.0, 1.0), Obj(1.0, 1.0, 2.0)));
}

TEST(DominanceTest, IncomparableAndEqual) {
  EXPECT_FALSE(Dominates(Obj(1.0, 3.0, 2.0), Obj(3.0, 1.0, 2.0)));
  EXPECT_FALSE(Dominates(Obj(3.0, 1.0, 2.0), Obj(1.0, 3.0, 2.0)));
  EXPECT_FALSE(Dominates(Obj(2.0, 2.0, 2.0), Obj(2.0, 2.0, 2.0)));
  EXPECT_FALSE(Dominates(Obj(1.0, 1.0, 3.0), Obj(2.0, 2.0, 2.0)));
}

// ------------------------------------------------ FastNonDominatedSort ----

TEST(SortTest, TwoFrontsSeparated) {
  const std::vector<ObjectiveVector> objs = {
      Obj(1.0, 4.0, 2.0),  // front 0
      Obj(4.0, 1.0, 2.0),  // front 0
      Obj(2.0, 2.0, 2.0),  // front 0
      Obj(5.0, 5.0, 2.0),  // front 1 (dominated by all above)
  };
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 2u);
  EXPECT_EQ(fronts[0].size(), 3u);
  EXPECT_EQ(fronts[1].size(), 1u);
  EXPECT_EQ(ranks[3], 1);
  EXPECT_EQ(ranks[0], 0);
}

TEST(SortTest, ChainGivesOneFrontPerElement) {
  const std::vector<ObjectiveVector> objs = {
      Obj(1.0, 1.0, 2.0), Obj(2.0, 2.0, 2.0), Obj(3.0, 3.0, 2.0)};
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(ranks, (std::vector<int>{0, 1, 2}));
}

TEST(SortTest, AllIncomparableSingleFront) {
  const std::vector<ObjectiveVector> objs = {
      Obj(1.0, 3.0, 2.0), Obj(2.0, 2.0, 2.0), Obj(3.0, 1.0, 2.0)};
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 3u);
}

TEST(SortTest, EmptyInput) {
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort({}, &ranks);
  EXPECT_EQ(fronts.size(), 1u);
  EXPECT_TRUE(fronts[0].empty());
  EXPECT_TRUE(ranks.empty());
}

TEST(SortTest, RankInvariant_NoMemberDominatedWithinFront) {
  Rng rng(5);
  std::vector<ObjectiveVector> objs;
  for (int i = 0; i < 60; ++i) {
    const double rd = rng.NextDouble();
    const double irsd = rng.NextDouble();
    objs.push_back(Obj(rd, irsd, rng.NextDouble()));
  }
  std::vector<int> ranks;
  const auto fronts = FastNonDominatedSort(objs, &ranks);
  for (const auto& front : fronts) {
    for (std::size_t a : front) {
      for (std::size_t b : front) {
        EXPECT_FALSE(Dominates(objs[a], objs[b]));
      }
    }
  }
  // Every front-1+ member is dominated by someone in the previous front.
  for (std::size_t f = 1; f < fronts.size(); ++f) {
    for (std::size_t q : fronts[f]) {
      bool dominated = false;
      for (std::size_t p : fronts[f - 1]) {
        if (Dominates(objs[p], objs[q])) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated);
    }
  }
}

// ----------------------------------------------------------- Crowding ----
//
// Every objective gives the first and last member of its own sorted order
// +inf, even when its range is zero, so a constant third objective would
// make the boundaries depend on how std::sort places ties. The third value
// here ascends with the first instead: its boundaries are the first's.

TEST(CrowdingTest, BoundariesAreInfinite) {
  const std::vector<ObjectiveVector> objs = {
      Obj(1.0, 4.0, 1.0), Obj(2.0, 3.0, 2.0), Obj(3.0, 2.0, 3.0),
      Obj(4.0, 1.0, 4.0)};
  const std::vector<std::size_t> front = {0, 1, 2, 3};
  const auto crowd = CrowdingDistances(objs, front);
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[3]));
  EXPECT_FALSE(std::isinf(crowd[1]));
  EXPECT_FALSE(std::isinf(crowd[2]));
}

TEST(CrowdingTest, IsolatedPointGetsLargerDistance) {
  // Middle points: one crowded pair, one isolated.
  const std::vector<ObjectiveVector> objs = {
      Obj(0.0, 10.0, 0.0), Obj(1.0, 9.0, 1.0), Obj(1.1, 8.9, 1.1),
      Obj(5.0, 5.0, 5.0), Obj(10.0, 0.0, 10.0)};
  const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
  const auto crowd = CrowdingDistances(objs, front);
  EXPECT_GT(crowd[3], crowd[2]);  // isolated > crowded
}

TEST(CrowdingTest, SmallFrontsAllInfinite) {
  const std::vector<ObjectiveVector> objs = {Obj(1.0, 2.0, 1.0),
                                             Obj(2.0, 1.0, 2.0)};
  const auto crowd = CrowdingDistances(objs, {0, 1});
  EXPECT_TRUE(std::isinf(crowd[0]));
  EXPECT_TRUE(std::isinf(crowd[1]));
}

// ---------------------------------------------------------- Operators ----

TEST(OperatorsTest, UniformCrossoverBitsComeFromParents) {
  Rng rng(1);
  const Subspace a = Subspace::FromIndices({0, 1, 2});
  const Subspace b = Subspace::FromIndices({4, 5});
  for (int i = 0; i < 50; ++i) {
    const Subspace child = UniformCrossover(a, b, rng);
    // Any set bit of the child is set in a or b.
    EXPECT_EQ(child.bits() & ~(a.bits() | b.bits()), 0u);
  }
}

TEST(OperatorsTest, CrossoverOfIdenticalParentsIsIdentity) {
  Rng rng(2);
  const Subspace a = Subspace::FromIndices({1, 3, 5});
  EXPECT_EQ(UniformCrossover(a, a, rng), a);
}

TEST(OperatorsTest, MutationFlipRateRoughlyRespected) {
  Rng rng(3);
  const int num_dims = 32;
  int flips = 0;
  const int trials = 2000;
  const Subspace s;
  for (int i = 0; i < trials; ++i) {
    flips += BitFlipMutation(s, num_dims, 0.1, rng).Dimension();
  }
  const double rate =
      static_cast<double>(flips) / (static_cast<double>(trials) * num_dims);
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(OperatorsTest, MutationZeroProbIsIdentity) {
  Rng rng(4);
  const Subspace s = Subspace::FromIndices({2, 7});
  EXPECT_EQ(BitFlipMutation(s, 16, 0.0, rng), s);
}

TEST(OperatorsTest, RepairEnforcesBounds) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const Subspace raw(rng.NextUint64());
    const Subspace fixed = Repair(raw, 20, 3, rng);
    EXPECT_GE(fixed.Dimension(), 1);
    EXPECT_LE(fixed.Dimension(), 3);
    EXPECT_EQ(fixed.bits() >> 20, 0u);  // inside the attribute domain
  }
}

TEST(OperatorsTest, RepairOfEmptyAddsOneBit) {
  Rng rng(6);
  const Subspace fixed = Repair(Subspace(), 10, 3, rng);
  EXPECT_EQ(fixed.Dimension(), 1);
}

TEST(OperatorsTest, RepairKeepsValidSubspaceIntact) {
  Rng rng(7);
  const Subspace s = Subspace::FromIndices({2, 5});
  EXPECT_EQ(Repair(s, 10, 3, rng), s);
}

TEST(OperatorsTest, RandomSubspaceWithinBounds) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Subspace s = RandomSubspace(15, 4, rng);
    EXPECT_GE(s.Dimension(), 1);
    EXPECT_LE(s.Dimension(), 4);
  }
}

// -------------------------------------------- BatchSparsityObjectives ----

class ObjectivesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // 200 clustered points in dims {0,1}; dim 2 uniform noise. A lone point
    // sits far away in dim 0: subspace {0} should score it sparse.
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      data_.push_back({0.2 + 0.02 * rng.NextGaussian(),
                       0.7 + 0.02 * rng.NextGaussian(), rng.NextDouble()});
    }
    data_.push_back({0.95, 0.7, 0.5});  // projected outlier in {0}
    partition_ = std::make_unique<Partition>(3, 10, 0.0, 1.0);
  }

  std::vector<std::vector<double>> data_;
  std::unique_ptr<Partition> partition_;
};

TEST_F(ObjectivesFixture, OutlierSubspaceScoresSparser) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  const double score_outlying = obj.SparsityScore(Subspace::FromIndices({0}));
  const double score_normal = obj.SparsityScore(Subspace::FromIndices({1}));
  EXPECT_LT(score_outlying, score_normal);
}

TEST_F(ObjectivesFixture, ObjectiveVectorLayout) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  const ObjectiveVector v = obj.Evaluate(Subspace::FromIndices({0, 2}));
  ASSERT_EQ(v.values.size(), 3u);
  EXPECT_DOUBLE_EQ(v.values[2], 2.0);  // f3 = |s|
  EXPECT_GE(v.values[0], 0.0);
  EXPECT_GE(v.values[1], 0.0);
}

TEST_F(ObjectivesFixture, MemoizationCountsDistinctOnly) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  obj.Evaluate(Subspace::FromIndices({0}));
  obj.Evaluate(Subspace::FromIndices({0}));
  obj.Evaluate(Subspace::FromIndices({1}));
  EXPECT_EQ(obj.evaluation_count(), 2u);
}

TEST_F(ObjectivesFixture, DefaultTargetsAreAllPoints) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  // Mean RD over all points is well-defined and positive.
  const ObjectiveVector v = obj.Evaluate(Subspace::FromIndices({1}));
  EXPECT_GT(v.values[0], 0.0);
}

// ------------------------------- kernel vs the unordered_map reference ----

// The objective kernel as it was before the batch was binned once and cells
// slotted through a FlatIndex: every evaluation re-bins each row into an
// unordered_map of per-cell vectors. Kept verbatim as the reference the
// kernel must match bit for bit.
struct ReferenceCellHash {
  std::size_t operator()(const CellCoords& c) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t v : c) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

ObjectiveVector ReferenceObjectives(
    const Partition& partition, const std::vector<std::vector<double>>& data,
    std::vector<std::size_t> targets, const Subspace& s) {
  if (targets.empty()) {
    targets.resize(data.size());
    for (std::size_t i = 0; i < targets.size(); ++i) targets[i] = i;
  }
  const std::vector<int> dims = s.Indices();
  struct CellAgg {
    double count = 0.0;
    std::vector<double> ls;
    std::vector<double> ss;
  };
  std::unordered_map<CellCoords, CellAgg, ReferenceCellHash> hist;

  std::vector<CellCoords> point_cells;
  point_cells.reserve(data.size());
  for (const auto& row : data) {
    CellCoords coords;
    coords.reserve(dims.size());
    for (int d : dims) {
      coords.push_back(
          partition.IntervalIndex(d, row[static_cast<std::size_t>(d)]));
    }
    auto [cit, inserted] = hist.try_emplace(coords);
    CellAgg& cell = cit->second;
    if (inserted) {
      cell.ls.assign(dims.size(), 0.0);
      cell.ss.assign(dims.size(), 0.0);
    }
    cell.count += 1.0;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      const double v = row[static_cast<std::size_t>(dims[i])];
      cell.ls[i] += v;
      cell.ss[i] += v * v;
    }
    point_cells.push_back(std::move(coords));
  }

  const double total = static_cast<double>(data.size());
  double sumsq = 0.0;
  for (const auto& [coords, cell] : hist) sumsq += cell.count * cell.count;
  if (sumsq <= 0.0) sumsq = 1.0;
  double rd_sum = 0.0;
  double irsd_sum = 0.0;
  for (std::size_t t : targets) {
    const CellAgg& cell = hist.at(point_cells[t]);
    rd_sum += cell.count * total / sumsq;
    if (cell.count >= 2.0) {
      double acc = 0.0;
      for (std::size_t i = 0; i < dims.size(); ++i) {
        const double mean = cell.ls[i] / cell.count;
        const double var = cell.ss[i] / cell.count - mean * mean;
        const double sigma = var > 0.0 ? std::sqrt(var) : 0.0;
        const double su = partition.CellWidth(dims[i]) / std::sqrt(12.0);
        const double ratio = su / (sigma + 0.01 * su);
        acc += ratio > Pcs::kIrsdCap ? Pcs::kIrsdCap : ratio;
      }
      irsd_sum += acc / static_cast<double>(dims.size());
    }
  }
  const double n_targets = static_cast<double>(targets.size());

  ObjectiveVector obj;
  obj.values = {rd_sum / n_targets, irsd_sum / n_targets,
                static_cast<double>(s.Dimension())};
  return obj;
}

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Evaluates every subspace of up to 5 dims with `obj` and with the
// reference; returns how many objective values differ in any bit, and
// describes the first in `first`.
std::size_t CountMismatches(BatchSparsityObjectives* obj,
                            const Partition& partition,
                            const std::vector<std::vector<double>>& data,
                            const std::vector<std::size_t>& targets,
                            std::string* first) {
  std::size_t mismatches = 0;
  const int max_dim = std::min(5, partition.num_dims());
  for (const Subspace& s : EnumerateLattice(partition.num_dims(), max_dim)) {
    const ObjectiveVector got = obj->Evaluate(s);
    const ObjectiveVector want =
        ReferenceObjectives(partition, data, targets, s);
    for (std::size_t i = 0; i < 3; ++i) {
      if (Bits(got.values[i]) == Bits(want.values[i])) continue;
      if (mismatches++ == 0) {
        *first = s.ToString() + " objective " + std::to_string(i) + ": " +
                 std::to_string(got.values[i]) + " vs reference " +
                 std::to_string(want.values[i]);
      }
    }
  }
  return mismatches;
}

// Rows in [0, 0.55): `n` of them, half uniform and half in a tight
// Gaussian clump, and one exact duplicate; then two rows past every other
// in every attribute (0.75 and the last, 0.95), which sit alone in their
// cell of every subspace when cells are at most 0.2 wide.
std::vector<std::vector<double>> KernelRows(int dims, int n,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(static_cast<std::size_t>(dims));
    for (double& v : row) {
      v = i % 2 == 0 ? rng.NextDouble(0.0, 0.55)
                     : std::clamp(rng.NextGaussian(0.3, 0.03), 0.0, 0.54);
    }
    rows.push_back(std::move(row));
  }
  rows.push_back(rows[5]);
  rows.emplace_back(static_cast<std::size_t>(dims), 0.75);
  rows.emplace_back(static_cast<std::size_t>(dims), 0.95);
  return rows;
}

// The three target sets every setup runs: the last row only, seven
// scattered rows with one repeated, and all rows.
std::vector<std::vector<std::size_t>> KernelTargets(std::size_t n) {
  return {{n - 1}, {3, 17, 17, n / 3, n / 2, n - 9, n - 2}, {}};
}

// A reference for every group of a shared table: the row sets of
// KernelTargets over `data`, then each appended row over data + row.
struct SharedGroups {
  std::vector<TargetGroup> groups;
  std::vector<std::vector<std::vector<double>>> batches;  // per group
  std::vector<std::vector<std::size_t>> targets;          // per group
  std::vector<std::string> labels;
};

std::string TargetsLabel(const std::vector<std::size_t>& targets) {
  return targets.empty() ? std::string("all rows")
                         : std::to_string(targets.size()) + " target(s)";
}

SharedGroups KernelGroups(const std::vector<std::vector<double>>& data,
                          const std::vector<std::vector<double>>& appended) {
  SharedGroups out;
  for (const std::vector<std::size_t>& targets : KernelTargets(data.size())) {
    out.groups.push_back({targets, nullptr});
    out.batches.push_back(data);
    out.targets.push_back(targets);
    out.labels.push_back(TargetsLabel(targets));
  }
  for (std::size_t i = 0; i < appended.size(); ++i) {
    out.groups.push_back({{}, &appended[i]});
    std::vector<std::vector<double>> batch = data;
    batch.push_back(appended[i]);
    out.targets.push_back({batch.size() - 1});
    out.batches.push_back(std::move(batch));
    out.labels.push_back("appended row " + std::to_string(i));
  }
  return out;
}

void ExpectKernelMatchesReference(const Partition& partition,
                                  const std::vector<std::vector<double>>& data) {
  for (const std::vector<std::size_t>& targets : KernelTargets(data.size())) {
    SCOPED_TRACE(TargetsLabel(targets));
    BatchSparsityObjectives obj(&partition, &data, targets);
    std::string first;
    EXPECT_EQ(CountMismatches(&obj, partition, data, targets, &first), 0u)
        << first;
  }
  // The targeted constructor against the reference on the copied batch
  // (sample, then target), once with the last row as the target and once
  // with a row from the bulk of the data.
  const std::vector<std::vector<double>> sample(data.begin(), data.end() - 1);
  for (const std::vector<double>* target :
       {&data.back(), &data[data.size() / 2]}) {
    std::vector<std::vector<double>> batch = sample;
    batch.push_back(*target);
    BatchSparsityObjectives targeted(&partition, &sample, target);
    std::string first;
    EXPECT_EQ(CountMismatches(&targeted, partition, batch,
                              {batch.size() - 1}, &first),
              0u)
        << "targeted constructor: " << first;
  }

  // One table shared by every target set above plus two appended rows: the
  // last row (its copy is in the data, so its cell is never empty) and a
  // row taking its odd attributes from the second-to-last row (alone
  // wherever that mix is new). Each group's search object starts in turn,
  // so every group meets some subspaces first (the pass) and the rest as
  // table hits, and one pass serves every subspace.
  std::vector<std::vector<double>> appended = {data.back(), data.back()};
  for (std::size_t d = 1; d < appended[1].size(); d += 2) {
    appended[1][d] = data[data.size() - 2][d];
  }
  const SharedGroups shared = KernelGroups(data, appended);
  SparsityTable table(&partition, &data, shared.groups);
  std::vector<std::unique_ptr<BatchSparsityObjectives>> searches;
  for (std::size_t g = 0; g < shared.groups.size(); ++g) {
    searches.push_back(std::make_unique<BatchSparsityObjectives>(&table, g));
  }
  const std::vector<Subspace> lattice =
      EnumerateLattice(partition.num_dims(), std::min(5, partition.num_dims()));
  std::vector<std::size_t> mismatches(searches.size(), 0);
  std::vector<std::string> first(searches.size());
  for (std::size_t j = 0; j < lattice.size(); ++j) {
    const Subspace& s = lattice[j];
    for (std::size_t k = 0; k < searches.size(); ++k) {
      const std::size_t g = (j + k) % searches.size();
      const ObjectiveVector got = searches[g]->Evaluate(s);
      const ObjectiveVector want = ReferenceObjectives(
          partition, shared.batches[g], shared.targets[g], s);
      for (std::size_t i = 0; i < 3; ++i) {
        if (Bits(got.values[i]) == Bits(want.values[i])) continue;
        if (mismatches[g]++ == 0) {
          first[g] = s.ToString() + " objective " + std::to_string(i) +
                     ": " + std::to_string(got.values[i]) +
                     " vs reference " + std::to_string(want.values[i]);
        }
      }
    }
  }
  for (std::size_t g = 0; g < searches.size(); ++g) {
    EXPECT_EQ(mismatches[g], 0u)
        << "shared table, " << shared.labels[g] << ": " << first[g];
    EXPECT_EQ(searches[g]->evaluation_count(), lattice.size());
  }
  EXPECT_EQ(table.pass_count(), lattice.size());
  EXPECT_EQ(table.stored_subspaces(), lattice.size());
}

TEST(ObjectivesKernelTest, MatchesReferenceAtEightDimsFiveCells) {
  // Keys of 1-3 dims are direct-addressed (<= 125 cells), 4-5 hashed.
  ExpectKernelMatchesReference(Partition(8, 5, 0.0, 1.0),
                               KernelRows(8, 300, 11));
}

TEST(ObjectivesKernelTest, MatchesReferenceAtTwelveDimsTenCells) {
  // Keys of 1-2 dims are direct-addressed (<= 100 cells), 3 and up hashed.
  ExpectKernelMatchesReference(Partition(12, 10, 0.0, 1.0),
                               KernelRows(12, 200, 12));
}

TEST(ObjectivesKernelTest, MatchesReferenceOnFittedPartition) {
  // Attribute widths differ (each its own scale), attribute 5 is constant,
  // and the partition is fitted to the first 150 rows only, so later rows
  // fall outside its range and clamp into the boundary intervals.
  Rng rng(13);
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 200; ++i) {
    const double stretch = i < 150 ? 1.0 : 1.6;
    std::vector<double> row;
    for (int d = 0; d < 5; ++d) {
      row.push_back(stretch * (d + 1) * (rng.NextDouble() - 0.3));
    }
    row.push_back(3.0);
    data.push_back(std::move(row));
  }
  const Partition partition = Partition::FitToData(
      std::vector<std::vector<double>>(data.begin(), data.begin() + 150), 6);
  ExpectKernelMatchesReference(partition, data);
}

TEST(ObjectivesKernelTest, TargetsAloneInTheirCellsScoreZeroIrsd) {
  // The last two rows sit alone in every subspace (count < 2), so their
  // IRSD contribution is 0 everywhere, as in the reference.
  const std::vector<std::vector<double>> data = KernelRows(8, 300, 11);
  const Partition partition(8, 5, 0.0, 1.0);
  const std::vector<std::size_t> targets = {data.size() - 2,
                                            data.size() - 1};
  BatchSparsityObjectives obj(&partition, &data, targets);
  for (const Subspace& s : EnumerateLattice(8, 5)) {
    EXPECT_EQ(Bits(obj.Evaluate(s).values[1]), Bits(0.0)) << s.ToString();
  }
  std::string first;
  EXPECT_EQ(CountMismatches(&obj, partition, data, targets, &first), 0u)
      << first;
}

TEST(ObjectivesKernelTest, EvaluationMakesNoAllocationPerRow) {
  // 50 distinct subspaces of 1-5 dims over 5000 rows: keys of 1-3 dims are
  // direct-addressed, 4-5 hashed. The kernel reuses its cell index and
  // per-cell arrays, and the objective values live inside the memo entry,
  // so after their first growth an evaluation allocates only that entry
  // (and the memo table's rehashes); one allocation per row would read
  // over 5000.
  Rng rng(14);
  std::vector<std::vector<double>> data(5000, std::vector<double>(8));
  for (auto& row : data) {
    for (double& v : row) v = rng.NextDouble();
  }
  const Partition partition(8, 5, 0.0, 1.0);
  BatchSparsityObjectives obj(&partition, &data);
  const std::vector<Subspace> subspaces = SampleLattice(8, 5, 50, rng);
  ASSERT_EQ(subspaces.size(), 50u);
  t_allocations = 0;
  for (const Subspace& s : subspaces) {
    t_count_allocations = true;
    obj.Evaluate(s);
    t_count_allocations = false;
  }
  EXPECT_EQ(obj.evaluation_count(), 50u);
  EXPECT_LE(t_allocations, 8u * 50u);
}

// ------------------------------------------------------- SparsityTable ----

// The search object a group would get if it had no table to share: a
// one-group table of its own over the same sample.
std::unique_ptr<BatchSparsityObjectives> PrivateObjectives(
    const Partition& partition, const std::vector<std::vector<double>>& data,
    const TargetGroup& group) {
  if (group.appended != nullptr) {
    return std::make_unique<BatchSparsityObjectives>(&partition, &data,
                                                     group.appended);
  }
  return std::make_unique<BatchSparsityObjectives>(&partition, &data,
                                                   group.rows);
}

// Every (subspace, score) of a search archive, sorted by subspace.
std::vector<std::pair<std::uint64_t, std::uint64_t>> ArchiveOf(
    const BatchSparsityObjectives& obj) {
  std::vector<std::pair<Subspace, double>> archive;
  obj.AppendEvaluated(&archive);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [subspace, score] : archive) {
    out.emplace_back(subspace.bits(), Bits(score));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SparsityTableTest, SearchesShareOnePassPerSubspace) {
  // A Learn and a feedback round in one: 403 rows of 8 dims at 5 cells
  // and learn-bound's search budget (population 16, up to 4 dims), with
  // the whole batch, six single rows (two of them alone in every cell) and
  // two appended rows as the groups. The first search to meet a subspace
  // pays its one pass; every later one reads the stored value, and still
  // archives and returns exactly what a search of its own would.
  const Partition partition(8, 5, 0.0, 1.0);
  const std::vector<std::vector<double>> data = KernelRows(8, 400, 21);
  const std::vector<std::vector<double>> examples = {
      std::vector<double>(8, 0.9), data[7]};
  std::vector<TargetGroup> groups(1);
  for (std::size_t row : {0, 50, 100, 150, 401, 402}) {
    groups.push_back({{row}, nullptr});
  }
  for (const auto& example : examples) groups.push_back({{}, &example});
  SparsityTable table(&partition, &data, groups);
  Nsga2Config cfg;
  cfg.num_dims = 8;
  cfg.max_dimension = 4;
  cfg.population_size = 16;
  cfg.generations = 8;
  std::set<std::uint64_t> visited;  // the union of the archives
  std::size_t evaluations = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    cfg.seed = 100 + g;
    BatchSparsityObjectives shared(&table, g);
    const std::vector<ScoredSubspace> got = FindTopSparse(&shared, cfg, 6);
    const auto own = PrivateObjectives(partition, data, groups[g]);
    const std::vector<ScoredSubspace> want = FindTopSparse(own.get(), cfg, 6);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].subspace, want[i].subspace) << i;
      EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << i;
    }
    const auto archive = ArchiveOf(shared);
    EXPECT_EQ(archive, ArchiveOf(*own));
    EXPECT_EQ(shared.evaluation_count(), own->evaluation_count());
    evaluations += shared.evaluation_count();
    for (const auto& entry : archive) visited.insert(entry.first);
  }
  EXPECT_EQ(table.pass_count(), visited.size());
  EXPECT_EQ(table.stored_subspaces(), visited.size());
  EXPECT_LT(table.pass_count(), evaluations);
  RecordProperty("passes", static_cast<int>(table.pass_count()));
  RecordProperty("evaluations", static_cast<int>(evaluations));
}

TEST(SparsityTableTest, PastTheCapValuesStayExactAndTheTableStopsGrowing) {
  // 33 groups (the whole batch, 31 single rows and one appended row) over
  // the 4943 subspaces of up to 5 of 15 dims: the table has room for
  // kMaxTableValues / 33 of them. The groups evaluate one after another,
  // so the first fills the table and each later one reads the stored
  // subspaces and makes a pass of its own for every other.
  const Partition partition(15, 4, 0.0, 1.0);
  const std::vector<std::vector<double>> data = KernelRows(15, 40, 22);
  const std::vector<double> example(15, 0.9);
  std::vector<TargetGroup> groups(1);
  for (std::size_t row = 0; row < 31; ++row) groups.push_back({{row}, nullptr});
  groups.push_back({{}, &example});
  ASSERT_EQ(groups.size(), 33u);
  std::vector<std::vector<double>> with_example = data;
  with_example.push_back(example);

  SparsityTable table(&partition, &data, groups);
  const std::vector<Subspace> lattice = EnumerateLattice(15, 5);
  const std::size_t room = kMaxTableValues / groups.size();
  ASSERT_LT(room, lattice.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    BatchSparsityObjectives shared(&table, g);
    const auto own = PrivateObjectives(partition, data, groups[g]);
    std::size_t mismatches = 0;
    for (const Subspace& s : lattice) {
      const ObjectiveVector got = shared.Evaluate(s);
      const ObjectiveVector want = own->Evaluate(s);
      for (std::size_t i = 0; i < 3; ++i) {
        if (Bits(got.values[i]) != Bits(want.values[i])) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    // Past the cap, against the reference kernel as well.
    for (std::size_t j = room; j < lattice.size(); j += 97) {
      const ObjectiveVector got = shared.Evaluate(lattice[j]);
      const ObjectiveVector want =
          groups[g].appended != nullptr
              ? ReferenceObjectives(partition, with_example,
                                    {with_example.size() - 1}, lattice[j])
              : ReferenceObjectives(partition, data, groups[g].rows,
                                    lattice[j]);
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(Bits(got.values[i]), Bits(want.values[i]))
            << lattice[j].ToString() << " objective " << i;
      }
    }
    EXPECT_EQ(table.stored_subspaces(), room);
  }
  EXPECT_EQ(table.pass_count(),
            lattice.size() + (groups.size() - 1) * (lattice.size() - room));
}

// --------------------------------------------------------------- Nsga2 ----

TEST_F(ObjectivesFixture, Nsga2FindsThePlantedSubspace) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 20;
  cfg.generations = 15;
  cfg.seed = 5;
  Nsga2 nsga2(cfg, &obj);
  const auto pop = nsga2.Run();
  ASSERT_EQ(pop.size(), 20u);
  // The singleton {0} must appear in the final Pareto front.
  const auto front = Nsga2::ParetoFront(pop);
  bool found = false;
  for (const auto& ind : front) {
    if (ind.subspace == Subspace::FromIndices({0})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ObjectivesFixture, Nsga2RespectsDimensionCap) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 1;
  cfg.population_size = 10;
  cfg.generations = 5;
  Nsga2 nsga2(cfg, &obj);
  for (const auto& ind : nsga2.Run()) {
    EXPECT_EQ(ind.subspace.Dimension(), 1);
  }
}

TEST_F(ObjectivesFixture, Nsga2SeedsSurviveWhenGood) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 12;
  cfg.generations = 3;
  Nsga2 nsga2(cfg, &obj);
  const auto pop = nsga2.Run({Subspace::FromIndices({0})});
  bool present = false;
  for (const auto& ind : pop) {
    if (ind.subspace == Subspace::FromIndices({0})) present = true;
  }
  EXPECT_TRUE(present);
}

TEST_F(ObjectivesFixture, ParetoFrontDeduplicates) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  std::vector<Individual> pop(4);
  pop[0].subspace = Subspace::FromIndices({0});
  pop[0].rank = 0;
  pop[1].subspace = Subspace::FromIndices({0});
  pop[1].rank = 0;
  pop[2].subspace = Subspace::FromIndices({1});
  pop[2].rank = 0;
  pop[3].subspace = Subspace::FromIndices({2});
  pop[3].rank = 1;
  const auto front = Nsga2::ParetoFront(pop);
  EXPECT_EQ(front.size(), 2u);
}

// ------------------------------------------------------- FindTopSparse ----

TEST_F(ObjectivesFixture, MogaMatchesExhaustiveTopChoice) {
  const std::vector<std::size_t> target = {data_.size() - 1};
  BatchSparsityObjectives obj(partition_.get(), &data_, target);
  const auto exhaustive = ExhaustiveTopSparse(&obj, 3, 2, 3);
  ASSERT_FALSE(exhaustive.empty());

  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 16;
  cfg.generations = 10;
  cfg.seed = 77;
  const auto top = FindTopSparse(&obj, cfg, 3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().subspace, exhaustive.front().subspace);
  EXPECT_NEAR(top.front().score, exhaustive.front().score, 1e-12);
}

TEST_F(ObjectivesFixture, FindTopSparseOrderedAndBounded) {
  BatchSparsityObjectives obj(partition_.get(), &data_);
  Nsga2Config cfg;
  cfg.num_dims = 3;
  cfg.max_dimension = 2;
  cfg.population_size = 16;
  cfg.generations = 5;
  const auto top = FindTopSparse(&obj, cfg, 4);
  EXPECT_LE(top.size(), 4u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i - 1].score, top[i].score);
  }
}

TEST(FindTopSparseTest, LearnBoundShapedSearchAllocationsBounded) {
  // The supervised search of the learn-bound workload (FastTestConfig): a
  // 512-row sample plus one target, 8 dims at 5 cells, population 16, 6
  // generations, up to 4 dims. Objective values are held by value in the
  // memo table, the population and every copy of either, so what a search
  // allocates is NSGA-II's own bookkeeping (the fronts, the per-generation
  // population copies), the memo entries and the ranking: 1055.7 per search
  // over these 20 seeds, against 1628.9 when every objective vector was a
  // heap buffer (about 61 distinct evaluations per search either way).
  const Partition partition(8, 5, 0.0, 1.0);
  const int kSearches = 20;
  std::size_t evaluations = 0;
  t_allocations = 0;
  for (int seed = 1; seed <= kSearches; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<std::vector<double>> sample(512, std::vector<double>(8));
    for (auto& row : sample) {
      for (double& v : row) v = rng.NextDouble();
    }
    std::vector<double> target(8);
    for (double& v : target) v = rng.NextDouble();
    BatchSparsityObjectives obj(&partition, &sample, &target);
    Nsga2Config cfg;
    cfg.num_dims = 8;
    cfg.max_dimension = 4;
    cfg.population_size = 16;
    cfg.generations = 6;
    cfg.seed = rng.NextUint64();
    t_count_allocations = true;
    const std::vector<ScoredSubspace> top = FindTopSparse(&obj, cfg, 4);
    t_count_allocations = false;
    EXPECT_EQ(top.size(), 4u);
    evaluations += obj.evaluation_count();
  }
  const double per_search =
      static_cast<double>(t_allocations) / static_cast<double>(kSearches);
  EXPECT_GT(evaluations, 50u * kSearches);
  EXPECT_LE(per_search, 1250.0) << t_allocations << " allocations over "
                                << kSearches << " searches";
  RecordProperty("allocations_per_search", static_cast<int>(per_search));
}

TEST(MogaLargeTest, RecoversPlantedSubspaceInTwentyDims) {
  // 20-dim stream with outliers planted in a fixed 2-dim subspace; MOGA
  // over the batch (targeted at a planted outlier) should recover it.
  stream::SyntheticConfig scfg;
  scfg.dimension = 20;
  scfg.outlier_probability = 0.0;
  scfg.seed = 123;
  stream::GaussianStream gen(scfg);
  auto batch = ValuesOf(Take(gen, 400));
  // Plant one outlier anomalous exactly in dims {4, 9}.
  std::vector<double> outlier = batch.front();
  outlier[4] = 0.999;
  outlier[9] = 0.001;
  batch.push_back(outlier);

  const Partition part(20, 10, 0.0, 1.0);
  BatchSparsityObjectives obj(&part, &batch, {batch.size() - 1});
  Nsga2Config cfg;
  cfg.num_dims = 20;
  cfg.max_dimension = 3;
  cfg.population_size = 40;
  cfg.generations = 25;
  cfg.seed = 9;
  const auto top = FindTopSparse(&obj, cfg, 8);
  ASSERT_FALSE(top.empty());
  // Some top subspace must involve dim 4 or dim 9.
  bool involves_planted = false;
  for (const auto& ss : top) {
    if (ss.subspace.Contains(4) || ss.subspace.Contains(9)) {
      involves_planted = true;
      break;
    }
  }
  EXPECT_TRUE(involves_planted);
}

}  // namespace
}  // namespace spot
