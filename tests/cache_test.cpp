//===- tests/cache_test.cpp - Access-cache unit tests ---------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Section 4 runtime optimizer: direct-mapped lookup,
/// conflict eviction, acquisition-tagged eviction on lock release (LIFO and
/// not), and the forced eviction used by the ownership interaction
/// (Section 7.2).  A randomized differential test checks every hit,
/// displaced key and eviction count against a model that remembers, for
/// each resident key, the acquisition it was inserted under.
///
//===----------------------------------------------------------------------===//

#include "detect/AccessCache.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace herd;

namespace {

LocationKey keyOf(uint32_t Obj, uint32_t Field = 0) {
  return LocationKey::forField(ObjectId(Obj), FieldId(Field));
}

TEST(AccessCacheTest, MissThenHit) {
  AccessCache Cache;
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
  Cache.insert(keyOf(1));
  EXPECT_TRUE(Cache.lookup(keyOf(1)));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(AccessCacheTest, DistinctKeysAreIndependent) {
  AccessCache Cache;
  Cache.insert(keyOf(1));
  EXPECT_FALSE(Cache.lookup(keyOf(2)));
  EXPECT_FALSE(Cache.lookup(keyOf(1, 1)));
}

TEST(AccessCacheTest, LockReleaseEvictsEntriesInsertedUnderIt) {
  AccessCache Cache;
  Cache.insert(keyOf(3)); // lock-free: survives releases
  Cache.acquire();
  Cache.insert(keyOf(1));
  Cache.insert(keyOf(2));
  EXPECT_TRUE(Cache.lookup(keyOf(1)));
  Cache.release(1);
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
  EXPECT_FALSE(Cache.lookup(keyOf(2)));
  EXPECT_TRUE(Cache.lookup(keyOf(3)));
  EXPECT_EQ(Cache.evictions(), 2u);
  // A later acquisition at the same depth does not revive them.
  Cache.acquire();
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
}

TEST(AccessCacheTest, ReleasingOtherLockKeepsEntries) {
  AccessCache Cache;
  Cache.acquire();
  Cache.insert(keyOf(1));
  Cache.acquire(); // a second lock, taken and released with no access
  Cache.release(2);
  EXPECT_TRUE(Cache.lookup(keyOf(1)));
  EXPECT_EQ(Cache.evictions(), 0u);
}

TEST(AccessCacheTest, NestedLocksEvictInnermostDepthOnly) {
  // LIFO discipline: an entry made while {outer, inner} were held is tagged
  // with inner's acquisition; releasing inner must evict it, because its
  // lockset would otherwise stop being a subset of the held locks.
  AccessCache Cache;
  Cache.acquire();
  Cache.insert(keyOf(5)); // under {outer} only
  Cache.acquire();
  Cache.insert(keyOf(1)); // under {outer, inner}
  Cache.release(2);       // inner released
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
  EXPECT_TRUE(Cache.lookup(keyOf(5)));
  Cache.release(1);
  EXPECT_FALSE(Cache.lookup(keyOf(5)));
  EXPECT_EQ(Cache.evictions(), 2u);
}

TEST(AccessCacheTest, OutOfOrderReleaseEvictsFromItsDepthUp) {
  // {a, b} acquired in that order and a released first: entries made under
  // {a} or {a, b} held a, so both go; b moves to depth 1 with a fresh
  // acquisition, and entries made from then on survive until b goes.
  AccessCache Cache;
  Cache.insert(keyOf(9));
  Cache.acquire();
  Cache.insert(keyOf(1));
  Cache.acquire();
  Cache.insert(keyOf(2));
  Cache.release(1);
  EXPECT_EQ(Cache.depth(), 1u);
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
  EXPECT_FALSE(Cache.lookup(keyOf(2)));
  EXPECT_TRUE(Cache.lookup(keyOf(9)));
  EXPECT_EQ(Cache.evictions(), 2u);
  Cache.insert(keyOf(3)); // under {b}
  EXPECT_TRUE(Cache.lookup(keyOf(3)));
  Cache.release(1);
  EXPECT_FALSE(Cache.lookup(keyOf(3)));
  EXPECT_EQ(Cache.evictions(), 3u);
  EXPECT_TRUE(Cache.checkInvariants());
}

/// A key that shares \p Of's slot in \p Cache.
LocationKey colliderOf(const AccessCache &Cache, LocationKey Of) {
  for (uint32_t Obj = 1;; ++Obj)
    if (keyOf(Obj) != Of && Cache.slotOf(keyOf(Obj)) == Cache.slotOf(Of))
      return keyOf(Obj);
}

TEST(AccessCacheTest, ConflictEvictionThenReleaseCountsEachEntryOnce) {
  AccessCache Cache;
  LocationKey First = keyOf(0);
  LocationKey Collider = colliderOf(Cache, First);
  Cache.acquire();
  Cache.insert(First);
  EXPECT_EQ(Cache.insert(Collider), First); // displaces First, reuses the slot
  EXPECT_TRUE(Cache.lookup(Collider));
  EXPECT_FALSE(Cache.lookup(First));
  EXPECT_EQ(Cache.evictions(), 1u);
  // Releasing the lock evicts only the live entry.
  Cache.release(1);
  EXPECT_FALSE(Cache.lookup(Collider));
  EXPECT_EQ(Cache.evictions(), 2u);
}

TEST(AccessCacheTest, EvictKeyRemovesSingleEntry) {
  AccessCache Cache;
  Cache.acquire();
  Cache.insert(keyOf(1));
  Cache.insert(keyOf(2));
  Cache.evictKey(keyOf(1));
  EXPECT_FALSE(Cache.lookup(keyOf(1)));
  EXPECT_TRUE(Cache.lookup(keyOf(2)));
  // The release counts only the entry still resident.
  Cache.release(1);
  EXPECT_FALSE(Cache.lookup(keyOf(2)));
  EXPECT_EQ(Cache.evictions(), 2u);
}

TEST(AccessCacheTest, EvictKeyOnAbsentKeyIsANoOp) {
  AccessCache Cache;
  Cache.insert(keyOf(1));
  Cache.evictKey(keyOf(2));
  EXPECT_TRUE(Cache.lookup(keyOf(1)));
  EXPECT_EQ(Cache.evictions(), 0u);
}

TEST(AccessCacheTest, ClearEmptiesEverything) {
  AccessCache Cache;
  for (uint32_t Obj = 0; Obj != 100; ++Obj) {
    if (Obj % 30 == 0)
      Cache.acquire();
    Cache.insert(keyOf(Obj));
  }
  Cache.clear();
  EXPECT_EQ(Cache.depth(), 4u) << "clear() keeps the held locks";
  EXPECT_TRUE(Cache.checkInvariants());
  for (uint32_t Obj = 0; Obj != 100; ++Obj)
    EXPECT_FALSE(Cache.lookup(keyOf(Obj)));
}

TEST(AccessCacheTest, ManyInsertionsUnderManyLocksStayConsistent) {
  // Interleave insertions at five depths with conflict evictions, then
  // release the locks innermost first.
  AccessCache Cache;
  for (uint32_t Lock = 0; Lock != 5; ++Lock) {
    Cache.acquire();
    for (uint32_t Round = 0; Round != 8; ++Round)
      for (uint32_t Obj = 0; Obj != 120; ++Obj)
        Cache.insert(keyOf(Obj * 5 + Lock + Round));
    ASSERT_TRUE(Cache.checkInvariants());
  }
  for (uint32_t Depth = 5; Depth != 0; --Depth)
    Cache.release(Depth);
  ASSERT_TRUE(Cache.checkInvariants());
  for (uint32_t Obj = 0; Obj != 700; ++Obj)
    EXPECT_FALSE(Cache.lookup(keyOf(Obj)));
}

/// The reference semantics of the cache: each resident key with the
/// acquisition it was inserted under (0: no releasable lock held), and the
/// thread's held acquisitions, outermost first.  A release evicts every key
/// made under the released acquisition or one above it, and the
/// acquisitions above it are renewed.
class CacheModel {
public:
  explicit CacheModel(const AccessCache &Shape) : Shape(Shape) {}

  bool lookup(LocationKey Key) {
    auto It = Residents.find(Shape.slotOf(Key));
    bool Hit = It != Residents.end() && It->second.Key == Key;
    Hits += Hit;
    return Hit;
  }

  LocationKey insert(LocationKey Key) {
    LocationKey Displaced;
    auto It = Residents.find(Shape.slotOf(Key));
    if (It != Residents.end()) {
      ++Evictions;
      if (It->second.Key != Key)
        Displaced = It->second.Key;
    }
    Residents[Shape.slotOf(Key)] = {Key, Held.empty() ? 0 : Held.back()};
    return Displaced;
  }

  void evictKey(LocationKey Key) {
    auto It = Residents.find(Shape.slotOf(Key));
    if (It != Residents.end() && It->second.Key == Key) {
      Residents.erase(It);
      ++Evictions;
    }
  }

  void acquire() { Held.push_back(++LastAcquisition); }

  void release(size_t Depth) {
    std::vector<uint64_t> Gone(Held.begin() + (Depth - 1), Held.end());
    for (auto It = Residents.begin(); It != Residents.end();) {
      if (std::count(Gone.begin(), Gone.end(), It->second.Acquisition)) {
        ++Evictions;
        It = Residents.erase(It);
      } else {
        ++It;
      }
    }
    Held.erase(Held.begin() + (Depth - 1));
    for (size_t I = Depth - 1; I < Held.size(); ++I)
      Held[I] = ++LastAcquisition;
  }

  size_t depth() const { return Held.size(); }

  uint64_t Hits = 0;
  uint64_t Evictions = 0;

private:
  struct Resident {
    LocationKey Key;
    uint64_t Acquisition;
  };

  const AccessCache &Shape; ///< only for slotOf
  std::map<uint32_t, Resident> Residents; ///< by slot
  std::vector<uint64_t> Held;
  uint64_t LastAcquisition = 0;
};

TEST(AccessCacheTest, RandomizedOperationsMatchTheAcquisitionModel) {
  // Random interleavings of every operation on 1-, 16- and 256-entry
  // caches: nested acquisitions up to depth 6, releases of the innermost
  // lock and of any other, inserts (resident keys included), lookups and
  // shared-transition evictions.  The key pool is twice the capacity plus
  // a few, so conflict evictions are frequent.
  uint64_t NonLifo = 0;
  for (uint32_t Entries : {1u, 16u, 256u}) {
    for (uint64_t Seed : {1ull, 7ull, 42ull, 1234ull}) {
      SCOPED_TRACE("entries " + std::to_string(Entries) + ", seed " +
                   std::to_string(Seed));
      AccessCache Cache(Entries);
      CacheModel Model(Cache);
      Rng R(Seed);
      uint32_t Keys = Entries * 2 + 3;
      for (int Step = 0; Step != 5000; ++Step) {
        LocationKey Key = keyOf(uint32_t(R.nextBelow(Keys)),
                                uint32_t(R.nextBelow(2)));
        uint64_t Op = R.nextBelow(100);
        if (Op < 12 && Model.depth() < 6) {
          Cache.acquire();
          Model.acquire();
        } else if (Op < 24 && Model.depth() != 0) {
          size_t Depth = R.nextChance(1, 2)
                             ? Model.depth()
                             : size_t(1 + R.nextBelow(Model.depth()));
          NonLifo += Depth != Model.depth();
          Cache.release(uint32_t(Depth));
          Model.release(Depth);
        } else if (Op < 60) {
          ASSERT_EQ(Cache.insert(Key), Model.insert(Key)) << "step " << Step;
        } else if (Op < 88) {
          bool Hit = Model.lookup(Key);
          ASSERT_EQ(Cache.provesRedundant(Key), Hit) << "step " << Step;
          ASSERT_EQ(Cache.lookup(Key), Hit) << "step " << Step;
        } else {
          Cache.evictKey(Key);
          Model.evictKey(Key);
        }
        ASSERT_EQ(Cache.depth(), Model.depth()) << "step " << Step;
        ASSERT_EQ(Cache.evictions(), Model.Evictions) << "step " << Step;
        ASSERT_EQ(Cache.hits(), Model.Hits) << "step " << Step;
        ASSERT_TRUE(Cache.checkInvariants()) << "step " << Step;
      }
    }
  }
  EXPECT_GE(NonLifo, 100u) << "the stream must release out of order";
}

} // namespace
