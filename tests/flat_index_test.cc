// Unit tests of the flat open-addressing synapse index (grid/flat_index.h):
// rehash across the load-factor boundary, backward-shift deletion keeping
// probe chains intact, collision-heavy keys, the interaction with the
// ProjectedGrid slab free list, and a randomized differential check of the
// hashed and the direct-addressed index against std::unordered_map.

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/decay.h"
#include "grid/flat_index.h"
#include "grid/partition.h"
#include "grid/projected_grid.h"
#include "subspace/subspace.h"

namespace spot {
namespace {

CellCoords Key1(std::uint32_t a) { return CellCoords{a}; }
CellCoords Key3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return CellCoords{a, b, c};
}

// ------------------------------------------------------------- basics ----

TEST(FlatIndexTest, InsertFindEraseRoundTrip) {
  FlatIndex index(3);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(Key3(1, 2, 3)), FlatIndex::kNoValue);

  EXPECT_TRUE(index.Insert(Key3(1, 2, 3), 7).second);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.Find(Key3(1, 2, 3)), 7u);

  // Duplicate insert keeps the existing value and reports no insertion.
  const auto [value, inserted] = index.Insert(Key3(1, 2, 3), 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(index.size(), 1u);

  EXPECT_TRUE(index.Erase(Key3(1, 2, 3)));
  EXPECT_FALSE(index.Erase(Key3(1, 2, 3)));
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.Find(Key3(1, 2, 3)), FlatIndex::kNoValue);
}

TEST(FlatIndexTest, AssignOverwritesOnlyExistingKeys) {
  FlatIndex index(1);
  index.Insert(Key1(5), 10);
  EXPECT_TRUE(index.Assign(Key1(5).data(), FlatIndex::Hash(Key1(5).data(), 1),
                           20));
  EXPECT_EQ(index.Find(Key1(5)), 20u);
  EXPECT_FALSE(index.Assign(Key1(6).data(),
                            FlatIndex::Hash(Key1(6).data(), 1), 30));
  EXPECT_EQ(index.size(), 1u);
}

// ------------------------------------------------- load-factor growth ----

TEST(FlatIndexTest, GrowsAcrossLoadFactorBoundaryAndKeepsAllKeys) {
  FlatIndex index(1);
  const std::size_t initial_buckets = index.bucket_count();
  EXPECT_EQ(initial_buckets & (initial_buckets - 1), 0u);  // power of two

  // N buckets at max load 3/4 hold 3N/4 entries; the next insert rehashes.
  const std::uint32_t fit =
      static_cast<std::uint32_t>(initial_buckets * 3 / 4);
  for (std::uint32_t i = 0; i < fit; ++i) {
    ASSERT_TRUE(index.Insert(Key1(i), i).second);
  }
  EXPECT_EQ(index.bucket_count(), initial_buckets);
  ASSERT_TRUE(index.Insert(Key1(fit), fit).second);
  EXPECT_GT(index.bucket_count(), initial_buckets);

  // Every key must survive the rehash, through repeated doublings.
  for (std::uint32_t i = fit + 1; i < 5000; ++i) {
    ASSERT_TRUE(index.Insert(Key1(i), i).second);
  }
  EXPECT_EQ(index.size(), 5000u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(index.Find(Key1(i)), i) << "key " << i << " lost in rehash";
  }
  // Power-of-two capacity, never past max load.
  const std::size_t buckets = index.bucket_count();
  EXPECT_EQ(buckets & (buckets - 1), 0u);
  EXPECT_LE(index.size() * 4, buckets * 3);
}

TEST(FlatIndexTest, ReservePreventsMidInsertionRehash) {
  FlatIndex index(2);
  index.Reserve(1000);
  const std::size_t buckets = index.bucket_count();
  EXPECT_GE(buckets * 3, 1000u * 4 / 4 * 3);  // holds 1000 under 3/4 load
  for (std::uint32_t i = 0; i < 1000; ++i) {
    index.Insert(CellCoords{i, i + 1}, i);
  }
  EXPECT_EQ(index.bucket_count(), buckets);
  EXPECT_EQ(index.size(), 1000u);
}

// -------------------------------------------- backward-shift deletion ----

/// Keys whose home bucket (hash & mask at the index's CURRENT capacity) is
/// the same — erasing from the middle of such a chain is exactly the case
/// backward-shift deletion must repair.
std::vector<CellCoords> CollidingKeys(const FlatIndex& index,
                                      std::size_t want) {
  std::vector<CellCoords> out;
  const std::size_t mask = index.bucket_count() - 1;
  const std::uint32_t probe0 = 12345;
  const std::size_t target =
      FlatIndex::Hash(&probe0, 1) & mask;
  for (std::uint32_t k = probe0; out.size() < want; ++k) {
    if ((FlatIndex::Hash(&k, 1) & mask) == target) out.push_back(Key1(k));
  }
  return out;
}

TEST(FlatIndexTest, BackwardShiftErasePreservesProbeChains) {
  FlatIndex index(1);
  const std::size_t buckets_before = index.bucket_count();
  // Three keys sharing one home bucket: they occupy home, home+1, home+2.
  const std::vector<CellCoords> chain = CollidingKeys(index, 3);
  for (std::uint32_t i = 0; i < chain.size(); ++i) {
    ASSERT_TRUE(index.Insert(chain[i], 100 + i).second);
  }
  ASSERT_EQ(index.bucket_count(), buckets_before)
      << "grew: chain construction invalid";

  // Erase the chain HEAD: the displaced successors must shift back so they
  // remain reachable (a tombstone-free table has no marker to skip over).
  EXPECT_TRUE(index.Erase(chain[0]));
  EXPECT_EQ(index.Find(chain[1]), 101u);
  EXPECT_EQ(index.Find(chain[2]), 102u);

  // Re-insert and erase the MIDDLE of the chain.
  ASSERT_TRUE(index.Insert(chain[0], 100).second);
  EXPECT_TRUE(index.Erase(chain[2]));
  EXPECT_EQ(index.Find(chain[0]), 100u);
  EXPECT_EQ(index.Find(chain[1]), 101u);
  EXPECT_EQ(index.Find(chain[2]), FlatIndex::kNoValue);
  EXPECT_EQ(index.size(), 2u);
}

TEST(FlatIndexTest, EraseDoesNotDisturbIndependentChains) {
  FlatIndex index(1);
  index.Reserve(64);  // fixed capacity for the whole test
  const std::vector<CellCoords> chain = CollidingKeys(index, 4);
  std::vector<CellCoords> others;
  for (std::uint32_t k = 900000; others.size() < 20; ++k) {
    const CellCoords key = Key1(k);
    if (std::find(chain.begin(), chain.end(), key) == chain.end()) {
      others.push_back(key);
    }
  }
  for (std::uint32_t i = 0; i < chain.size(); ++i) {
    index.Insert(chain[i], i);
  }
  for (std::uint32_t i = 0; i < others.size(); ++i) {
    index.Insert(others[i], 1000 + i);
  }
  // Erase the colliding chain one head at a time; unrelated keys must stay
  // reachable after every single backward shift.
  for (std::size_t e = 0; e < chain.size(); ++e) {
    ASSERT_TRUE(index.Erase(chain[e]));
    for (std::size_t i = e + 1; i < chain.size(); ++i) {
      ASSERT_EQ(index.Find(chain[i]), i);
    }
    for (std::uint32_t i = 0; i < others.size(); ++i) {
      ASSERT_EQ(index.Find(others[i]), 1000 + i);
    }
  }
}

// --------------------------------------------- collision-heavy coords ----

TEST(FlatIndexTest, CollisionHeavySequentialCoords) {
  // Dense sequential coordinates in a tiny box: the regime the FNV-era
  // index clustered on. Every key must stay reachable through growth and
  // interleaved deletion.
  FlatIndex index(3);
  std::vector<CellCoords> keys;
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (std::uint32_t b = 0; b < 16; ++b) {
      for (std::uint32_t c = 0; c < 16; ++c) {
        keys.push_back(Key3(a, b, c));
      }
    }
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(index.Insert(keys[i], i).second);
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Find(keys[i]), i);
  }
  // Erase every other key; the rest must remain reachable.
  for (std::uint32_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(index.Erase(keys[i]));
  }
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Find(keys[i]),
              i % 2 == 0 ? FlatIndex::kNoValue : i);
  }
  EXPECT_EQ(index.size(), keys.size() / 2);
}

// ------------------------------------------------------- iteration -------

TEST(FlatIndexTest, ForEachVisitsEveryEntryExactlyOnce) {
  FlatIndex index(2);
  std::set<std::pair<std::uint32_t, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < 500; ++i) {
    index.Insert(CellCoords{i, i * 3}, i);
    expected.insert({i, i * 3});
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  index.ForEach([&](const std::uint32_t* key, std::uint32_t value) {
    EXPECT_EQ(key[1], key[0] * 3);
    EXPECT_EQ(value, key[0]);
    EXPECT_TRUE(seen.insert({key[0], key[1]}).second) << "visited twice";
  });
  EXPECT_EQ(seen, expected);
}

// ------------------------------------- slab free-list interaction --------

TEST(FlatIndexTest, ProjectedGridCompactionRecyclesSlabSlotsThroughIndex) {
  // Erase (via Compact) then reinsert: the index forgets the cell, the slab
  // slot goes on the free list, and the next distinct cell reuses it
  // instead of growing the arena.
  const Partition part(2, 10, 0.0, 1.0);
  // Aggressive decay: omega=10, epsilon=0.1 — points are far below any
  // sane prune threshold a few hundred ticks later.
  ProjectedGrid grid(Subspace::FromIndices({0, 1}), &part,
                     DecayModel(10, 0.1), /*prune_threshold=*/1e-3,
                     /*compaction_period=*/0);
  grid.Add({0.05, 0.05}, 0);
  grid.Add({0.15, 0.15}, 1);
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  EXPECT_EQ(grid.SlabSlots(), 2u);
  EXPECT_EQ(grid.FreeSlots(), 0u);

  // Decay both cells to dust and sweep them out.
  EXPECT_EQ(grid.Compact(500), 2u);
  EXPECT_EQ(grid.PopulatedCells(), 0u);
  EXPECT_EQ(grid.SlabSlots(), 2u);   // the slab itself never shrinks
  EXPECT_EQ(grid.FreeSlots(), 2u);

  // Two new, different cells reuse the freed slots — no slab growth.
  grid.Add({0.55, 0.55}, 501);
  grid.Add({0.65, 0.65}, 502);
  EXPECT_EQ(grid.PopulatedCells(), 2u);
  EXPECT_EQ(grid.SlabSlots(), 2u);
  EXPECT_EQ(grid.FreeSlots(), 0u);

  // A third cell has no free slot left and must grow the slab.
  grid.Add({0.75, 0.75}, 503);
  EXPECT_EQ(grid.SlabSlots(), 3u);
  EXPECT_EQ(grid.FreeSlots(), 0u);

  // The recycled cells answer queries like any other.
  const Pcs pcs = grid.Query({0.55, 0.55}, 10.0);
  EXPECT_GT(pcs.count, 0.0);
}

// ------------------------------------------------ differential test ------

TEST(FlatIndexTest, RandomizedDifferentialAgainstUnorderedMap) {
  // Once hashed (unbounded key words over a 12^3 universe), once
  // direct-addressed (radix 6: a 216-key space, under kDirectMaxCells).
  for (const std::uint32_t radix : {0u, 6u}) {
    SCOPED_TRACE(radix == 0 ? "hashed" : "direct");
    Rng rng(20260730);
    FlatIndex index(3, radix);
    ASSERT_EQ(index.direct(), radix != 0);
    const std::size_t buckets = index.bucket_count();
    std::unordered_map<CellCoords, std::uint32_t, CellCoordsHash> reference;

    // Small coordinate universe so inserts, re-inserts, misses and erases
    // all happen frequently; value is a running counter so stale entries
    // are detectable.
    const std::uint64_t universe = radix == 0 ? 12 : radix;
    auto random_key = [&rng, universe]() {
      return Key3(static_cast<std::uint32_t>(rng.NextUint64(universe)),
                  static_cast<std::uint32_t>(rng.NextUint64(universe)),
                  static_cast<std::uint32_t>(rng.NextUint64(universe)));
    };

    for (std::uint32_t step = 0; step < 50000; ++step) {
      const CellCoords key = random_key();
      const std::size_t op = rng.NextUint64(10);
      if (op < 5) {  // insert-if-absent
        const auto [value, inserted] = index.Insert(key, step);
        const auto [it, ref_inserted] = reference.try_emplace(key, step);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(value, it->second);
      } else if (op < 8) {  // find
        const std::uint32_t value = index.Find(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          ASSERT_EQ(value, FlatIndex::kNoValue);
        } else {
          ASSERT_EQ(value, it->second);
        }
      } else {  // erase
        const bool erased = index.Erase(key);
        ASSERT_EQ(erased, reference.erase(key) == 1u);
      }
      ASSERT_EQ(index.size(), reference.size());
      // A direct table holds its whole key space from the start.
      if (radix != 0) {
        ASSERT_EQ(index.bucket_count(), buckets);
      }
    }

    // Erase then re-insert a live key: the new value is the one found.
    ASSERT_FALSE(reference.empty());
    const CellCoords key = reference.begin()->first;
    ASSERT_TRUE(index.Erase(key));
    EXPECT_EQ(index.Find(key), FlatIndex::kNoValue);
    EXPECT_TRUE(index.Insert(key, 777777).second);
    EXPECT_EQ(index.Find(key), 777777u);
    reference[key] = 777777;

    // A key outside a direct key space is absent and is never stored.
    if (radix != 0) {
      const CellCoords outside = Key3(0, radix, 0);
      EXPECT_EQ(index.Find(outside), FlatIndex::kNoValue);
      EXPECT_FALSE(index.Erase(outside));
      EXPECT_EQ(index.Insert(outside, 1),
                std::make_pair(FlatIndex::kNoValue, false));
      EXPECT_EQ(index.size(), reference.size());
    }

    // Final sweep: identical contents, both directions, visited in
    // ascending key order.
    std::size_t visited = 0;
    CellCoords previous;
    index.ForEach([&](const std::uint32_t* key, std::uint32_t value) {
      const CellCoords coords(key, key + 3);
      const auto it = reference.find(coords);
      ASSERT_NE(it, reference.end());
      ASSERT_EQ(value, it->second);
      if (visited > 0) {
        ASSERT_LT(previous, coords);
      }
      previous = coords;
      ++visited;
    });
    EXPECT_EQ(visited, reference.size());
  }
}

}  // namespace
}  // namespace spot
