//===- tests/hotpath_test.cpp - Hot-path building blocks ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the allocation-lean detector hot path (docs/PERFORMANCE.md):
/// the LockSetInterner against a SortedIdSet oracle (including the >64-lock
/// inexact path), Arena index stability and runs, the TrieStore's
/// per-trie free lists and live count, the HistoryStore's block reuse and
/// chunk-spanning blocks, and differential replays proving the
/// interned/sharded paths produce the identical RaceReport stream as the
/// original handleAccess path.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "detect/AccessHistory.h"
#include "detect/AccessTrie.h"
#include "detect/Detector.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "runtime/Interpreter.h"
#include "support/Arena.h"
#include "support/LockSetInterner.h"
#include "support/Rng.h"
#include "support/TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace herd;

namespace {

//===----------------------------------------------------------------------===
// LockSetInterner vs the SortedIdSet oracle
//===----------------------------------------------------------------------===

LockSet makeSet(std::initializer_list<uint32_t> Locks) {
  LockSet S;
  for (uint32_t L : Locks)
    S.insert(LockId(L));
  return S;
}

TEST(LockSetInterner, CanonicalIds) {
  LockSetInterner I;
  EXPECT_EQ(I.intern(LockSet()), LockSetInterner::emptySet());

  LockSetId A = I.intern(makeSet({3, 7}));
  LockSetId B = I.intern(makeSet({7, 3})); // same set, insertion order moot
  LockSetId C = I.intern(makeSet({3}));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(I.size(), 3u); // empty, {3,7}, {3}

  // resolve() returns the canonical sorted set.
  const LockSet &Back = I.resolve(A);
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_TRUE(Back.contains(LockId(3)));
  EXPECT_TRUE(Back.contains(LockId(7)));
}

TEST(LockSetInterner, EmptySetQueries) {
  LockSetInterner I;
  LockSetId E = LockSetInterner::emptySet();
  LockSetId A = I.intern(makeSet({1}));
  EXPECT_TRUE(I.isSubsetOf(E, A));
  EXPECT_TRUE(I.isSubsetOf(E, E));
  EXPECT_FALSE(I.isSubsetOf(A, E));
  EXPECT_FALSE(I.intersects(E, A));
  EXPECT_FALSE(I.intersects(E, E));
}

/// Randomized subset/intersect agreement with the SortedIdSet oracle.
/// \p Universe controls whether sets stay inside the 64-dense-lock fast
/// path or spill into the memoized inexact path.
void checkAgainstOracle(uint32_t Universe, uint64_t Seed) {
  Rng R(Seed);
  LockSetInterner I;
  std::vector<std::pair<LockSetId, LockSet>> Sets;
  for (int N = 0; N != 200; ++N) {
    LockSet S;
    size_t Size = R.nextBelow(6);
    for (size_t J = 0; J != Size; ++J)
      S.insert(LockId(uint32_t(R.nextBelow(Universe))));
    Sets.push_back({I.intern(S), S});
  }
  for (int N = 0; N != 2000; ++N) {
    auto &[IdA, SetA] = Sets[R.nextBelow(Sets.size())];
    auto &[IdB, SetB] = Sets[R.nextBelow(Sets.size())];
    EXPECT_EQ(I.isSubsetOf(IdA, IdB), SetA.isSubsetOf(SetB));
    EXPECT_EQ(I.intersects(IdA, IdB), SetA.intersects(SetB));
    // Memoized answers must be stable on repeat queries.
    EXPECT_EQ(I.isSubsetOf(IdA, IdB), SetA.isSubsetOf(SetB));
  }
}

TEST(LockSetInterner, OracleSmallUniverse) {
  checkAgainstOracle(/*Universe=*/16, /*Seed=*/1);
}

TEST(LockSetInterner, OracleExactly64) {
  checkAgainstOracle(/*Universe=*/64, /*Seed=*/2);
}

TEST(LockSetInterner, OracleSpillsPast64Locks) {
  // 200 lock ids: most sets contain locks whose dense index lands >= 64,
  // exercising the inexact masks and the memoized fallback.
  checkAgainstOracle(/*Universe=*/200, /*Seed=*/3);
}

TEST(LockSetInterner, BoundedMemoOracleAcrossEvictions) {
  // The subset/intersect memo is a fixed-size 2-way table with round-robin
  // eviction.  Drive far more distinct inexact pairs through it than it
  // can hold, so entries are evicted and later re-computed, and check every
  // answer (first ask, memo hit, and post-eviction re-ask) against the
  // SortedIdSet oracle.
  LockSetInterner I;
  // Saturate the 64-slot dense universe so every test set below (built
  // from locks 100..399 only) is inexact — the memoized slow path.
  for (uint32_t L = 0; L != 64; ++L)
    I.intern(makeSet({L}));
  std::vector<std::pair<LockSetId, LockSet>> Sets;
  Rng R(17);
  for (int N = 0; N != 120; ++N) {
    LockSet S;
    size_t Size = 1 + R.nextBelow(5);
    for (size_t J = 0; J != Size; ++J)
      S.insert(LockId(uint32_t(100 + R.nextBelow(300))));
    Sets.push_back({I.intern(S), S});
  }
  // 120*120 = 14400 ordered pairs >> 512 sets * 2 ways = 1024 memo slots:
  // three sweeps guarantee evictions and post-eviction recomputation.
  // (Sequential sweeps alone cannot produce hits — each entry is evicted
  // before its next use — so the immediate re-ask below is what pins the
  // hit path: nothing can evict a subset-memo entry between back-to-back
  // queries of the same pair.)
  for (int Sweep = 0; Sweep != 3; ++Sweep)
    for (auto &[IdA, SetA] : Sets)
      for (auto &[IdB, SetB] : Sets) {
        ASSERT_EQ(I.isSubsetOf(IdA, IdB), SetA.isSubsetOf(SetB));
        ASSERT_EQ(I.intersects(IdA, IdB), SetA.intersects(SetB));
        ASSERT_EQ(I.isSubsetOf(IdA, IdB), SetA.isSubsetOf(SetB));
      }
  // The table is far smaller than the pair space, so the run must have
  // missed, hit (the immediate re-asks), and evicted.
  EXPECT_GT(I.memoMisses(), 1024u);
  EXPECT_GT(I.memoHits(), 0u);
  EXPECT_GT(I.memoEvictions(), 0u);
}

TEST(LockSetInterner, MixedExactAndInexact) {
  LockSetInterner I;
  // Fill the 64-slot dense universe first with 64 singleton sets.
  for (uint32_t L = 0; L != 64; ++L)
    I.intern(makeSet({L}));
  EXPECT_EQ(I.lockUniverse(), 64u);
  LockSetId Exact = I.intern(makeSet({1, 2}));
  LockSetId Inexact = I.intern(makeSet({1, 2, 900})); // 900 -> index 64
  LockSetId Other = I.intern(makeSet({900}));
  EXPECT_TRUE(I.isSubsetOf(Exact, Inexact));
  EXPECT_FALSE(I.isSubsetOf(Inexact, Exact));
  EXPECT_TRUE(I.intersects(Inexact, Other));
  EXPECT_FALSE(I.intersects(Exact, Other));
}

//===----------------------------------------------------------------------===
// Arena: index stability, runs
//===----------------------------------------------------------------------===

TEST(Arena, IndicesStableAcrossGrowth) {
  Arena<uint64_t> A;
  // Far more than one chunk, and keep checking early slots as it grows.
  const uint32_t N = Arena<uint64_t>::ChunkSize * 3 + 17;
  std::vector<uint32_t> Indices;
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t Idx = A.allocateRun(1).First;
    A[Idx] = uint64_t(I) * 0x9E3779B9u;
    Indices.push_back(Idx);
  }
  EXPECT_EQ(A.capacityUsed(), N);
  for (uint32_t I = 0; I != N; ++I)
    EXPECT_EQ(A[Indices[I]], uint64_t(I) * 0x9E3779B9u);
}

TEST(Arena, RunsDoNotAlias) {
  Arena<uint64_t> A;
  std::vector<uint32_t> Runs;
  for (uint32_t I = 0; I != 64; ++I) {
    Arena<uint64_t>::Run R = A.allocateRun(4);
    ASSERT_EQ(R.Slots, 4u);
    for (uint32_t J = 0; J != 4; ++J) {
      EXPECT_EQ(A[R.First + J], 0u); // fresh slots are default-constructed
      A[R.First + J] = I * 4 + J;
    }
    Runs.push_back(R.First);
  }
  for (uint32_t I = 0; I != 64; ++I)
    for (uint32_t J = 0; J != 4; ++J)
      EXPECT_EQ(A[Runs[I] + J], I * 4 + J);
}

TEST(Arena, RunsNeverStraddleChunks) {
  Arena<uint64_t> A;
  // Mixed run sizes: every run stays inside one chunk, follows the
  // previous one without a gap, and is short only at a chunk's end.
  Rng R(7);
  uint32_t End = 0;
  for (int I = 0; I != 3000; ++I) {
    uint32_t Want = 1 + uint32_t(R.nextBelow(TrieStore::RunSlots));
    Arena<uint64_t>::Run Run = A.allocateRun(Want);
    ASSERT_GE(Run.Slots, 1u);
    ASSERT_LE(Run.Slots, Want);
    EXPECT_EQ(Run.First, End);
    EXPECT_EQ(Run.First / Arena<uint64_t>::ChunkSize,
              (Run.First + Run.Slots - 1) / Arena<uint64_t>::ChunkSize);
    if (Run.Slots < Want) {
      EXPECT_EQ((Run.First + Run.Slots) % Arena<uint64_t>::ChunkSize, 0u);
    }
    End = Run.First + Run.Slots;
    // Touch both ends: would fault or corrupt a neighbour if misplaced.
    A[Run.First] = uint64_t(I);
    A[End - 1] = uint64_t(I);
  }
  EXPECT_GT(End, Arena<uint64_t>::ChunkSize * 2);
}

//===----------------------------------------------------------------------===
// TrieStore: per-trie free lists, the live count
//===----------------------------------------------------------------------===

TEST(TrieStore, FreedNodesAreReusedByTheirTrie) {
  TrieStore Store;
  AccessTrie A(Store), B(Store);
  LockSet Three, Empty, Other;
  for (uint32_t L : {1u, 2u, 3u})
    Three.insert(LockId(L));
  for (uint32_t L : {5u, 6u, 7u})
    Other.insert(LockId(L));

  A.process(ThreadId(1), Three, AccessKind::Write);
  EXPECT_EQ(A.nodeCount(), 4u); // root -> 1 -> 2 -> 3
  // A weaker write by the same thread prunes the whole chain: its three
  // nodes go on A's free list, not back to the store.
  A.process(ThreadId(1), Empty, AccessKind::Write);
  EXPECT_EQ(A.nodeCount(), 1u);
  size_t Used = Store.slotsUsed();

  // B cannot take A's freed nodes: it needs fresh slots.
  B.process(ThreadId(2), Three, AccessKind::Write);
  EXPECT_EQ(B.nodeCount(), 4u);
  EXPECT_GT(Store.slotsUsed(), Used);
  Used = Store.slotsUsed();

  // A grows again out of its own free list, and the recycled nodes start
  // out empty: only the new access is stored under them.
  A.process(ThreadId(2), Other, AccessKind::Read);
  EXPECT_EQ(A.nodeCount(), 4u);
  EXPECT_EQ(A.storedAccessCount(), 2u);
  EXPECT_EQ(Store.slotsUsed(), Used);
  EXPECT_EQ(Store.live(), A.nodeCount() + B.nodeCount());
  EXPECT_TRUE(A.checkInvariants());
  EXPECT_TRUE(B.checkInvariants());
}

TEST(TrieStore, LiveCountIsTheSumOverTries) {
  // Seeded streams over many tries on one store: growth, pruning and
  // reuse all move the store's live count exactly as the tries' own
  // counts move.  A trie that has seen no event holds no slot.
  Rng R(11);
  TrieStore Store;
  std::vector<AccessTrie> Tries;
  for (int I = 0; I != 200; ++I)
    Tries.emplace_back(Store);
  std::vector<bool> Touched(Tries.size(), false);
  for (int Step = 0; Step != 20000; ++Step) {
    size_t T = R.nextBelow(Tries.size());
    LockSet Locks;
    for (uint32_t L = 0; L != 6; ++L)
      if (R.nextChance(1, 3))
        Locks.insert(LockId(L));
    Tries[T].process(ThreadId(uint32_t(R.nextBelow(3))), Locks,
                     R.nextChance(1, 2) ? AccessKind::Write
                                        : AccessKind::Read);
    Touched[T] = true;
    if (Step % 1000 == 999) {
      size_t Sum = 0;
      for (size_t I = 0; I != Tries.size(); ++I)
        Sum += Touched[I] ? Tries[I].nodeCount() : 0;
      ASSERT_EQ(Store.live(), Sum) << "step " << Step;
      ASSERT_LE(Store.live(), Store.slotsUsed());
    }
  }
  for (const AccessTrie &Trie : Tries)
    EXPECT_TRUE(Trie.checkInvariants());
}

//===----------------------------------------------------------------------===
// HistoryStore: per-size free lists, blocks past a chunk
//===----------------------------------------------------------------------===

TEST(HistoryStore, OutgrownBlocksAreReused) {
  // Each history grows through blocks of 1, 2, 4 and 8 entries.  The
  // first takes all four fresh; every later one reuses the 1-, 2- and
  // 4-entry blocks its predecessor outgrew and takes only its 8 fresh.
  // So 100 histories fit one 1,024-entry chunk (15 + 99 * 8 entries),
  // where fresh blocks for every size would take 1,500.
  static_assert(HistoryStore::ChunkEntries == 1024);
  LockSetInterner Interner;
  HistoryStore Store;
  std::vector<AccessHistory> Histories(100);
  for (AccessHistory &H : Histories)
    for (uint32_t L = 0; L != 8; ++L)
      H.process(Store, Interner, ThreadId(1), Interner.intern(makeSet({L})),
                AccessKind::Write, SiteId(L));
  EXPECT_EQ(Store.reservedEntries(), size_t(HistoryStore::ChunkEntries));
  for (const AccessHistory &H : Histories) {
    EXPECT_EQ(H.storedAccessCount(), 8u);
    EXPECT_EQ(H.nodeCount(), 9u); // the root and one node per lock
    EXPECT_TRUE(H.checkInvariants(Store, Interner));
  }
  EXPECT_EQ(Store.live(), 100u * 9);
}

TEST(HistoryStore, BlocksPastAChunkKeepTheNodeCount) {
  // 4,500 distinct three-lock sets, no one a subset of another, inserted
  // in shuffled order: the history's block outgrows a chunk and takes
  // storage of its own, and its node count stays the trie's: the root
  // and one node per distinct prefix.
  LockSetInterner Interner;
  HistoryStore Store;
  AccessHistory Crowded;
  std::vector<LockSet> Sets;
  for (uint32_t A = 0; A != 40 && Sets.size() != 4500; ++A)
    for (uint32_t B = A + 1; B != 40 && Sets.size() != 4500; ++B)
      for (uint32_t C = B + 1; C != 40 && Sets.size() != 4500; ++C)
        Sets.push_back(makeSet({A, B, C}));
  Rng R(5);
  for (size_t I = Sets.size(); I > 1; --I)
    std::swap(Sets[I - 1], Sets[R.nextBelow(I)]);
  std::set<std::vector<LockId>> Prefixes;
  for (const LockSet &Set : Sets) {
    Crowded.process(Store, Interner, ThreadId(1), Interner.intern(Set),
                    AccessKind::Write, SiteId(1));
    for (size_t N = 1; N <= Set.size(); ++N)
      Prefixes.emplace(Set.begin(), Set.begin() + N);
  }
  EXPECT_EQ(Crowded.storedAccessCount(), Sets.size());
  EXPECT_GT(Crowded.storedAccessCount(), size_t(HistoryStore::ChunkEntries));
  EXPECT_EQ(Crowded.nodeCount(), 1 + Prefixes.size());
  EXPECT_TRUE(Crowded.checkInvariants(Store, Interner));

  // The bump range survives the large block: a second history still
  // takes fresh chunk storage.
  AccessHistory Small;
  Small.process(Store, Interner, ThreadId(2), Interner.intern(makeSet({1})),
                AccessKind::Read, SiteId(2));
  EXPECT_TRUE(Small.checkInvariants(Store, Interner));
  EXPECT_EQ(Store.live(), Crowded.nodeCount() + Small.nodeCount());
}

//===----------------------------------------------------------------------===
// Differential replays: one event stream, identical race reports
//===----------------------------------------------------------------------===

/// A RaceRecord as a comparable value (locksets resolved through its
/// reporter and flattened to index lists).
using RecordKey =
    std::tuple<uint64_t, uint32_t, int, std::vector<uint32_t>, uint32_t,
               bool, uint32_t, int, std::vector<uint32_t>>;

RecordKey keyOf(const RaceReporter &Reporter, const RaceRecord &R) {
  std::vector<uint32_t> Cur, Prior;
  for (LockId L : Reporter.locks(R.CurrentLocks))
    Cur.push_back(L.index());
  for (LockId L : Reporter.locks(R.PriorLocks))
    Prior.push_back(L.index());
  return {R.Location.raw(),
          R.CurrentThread.index(),
          int(R.CurrentAccess),
          std::move(Cur),
          R.CurrentSite.index(),
          R.PriorThreadKnown,
          R.PriorThreadKnown ? R.PriorThread.index() : 0,
          int(R.PriorAccess),
          std::move(Prior)};
}

std::vector<RecordKey> keysOf(const RaceReporter &Reporter) {
  std::vector<RecordKey> Keys;
  for (const RaceRecord &R : Reporter.records())
    Keys.push_back(keyOf(Reporter, R));
  return Keys;
}

/// Executes \p P once, streaming every event both to a live serial runtime
/// and to a trace file; then replays the trace through a second serial
/// runtime and through sharded runtimes.  The live run and the serial
/// replay must produce the byte-identical report stream (same records,
/// same order); the sharded runtimes must produce the same multiset of
/// records (shards interleave report emission, but each location's
/// detector sees the identical ordered event sequence).
void checkDifferential(const Program &P, uint64_t Seed) {
  TempPath TracePath("hotpath-diff");
  RaceRuntime Live;
  TraceWriter Writer;
  ASSERT_TRUE(Writer.open(TracePath).Ok);
  FanoutHooks Fanout{&Writer, &Live};

  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P, &Fanout, Opts);
  InterpResult R = Interp.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(Writer.close().Ok);

  std::vector<RecordKey> LiveKeys = keysOf(Live.reporter());

  {
    RaceRuntime Replayed;
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(TracePath).Ok);
    ASSERT_TRUE(Reader.replayInto(Replayed).Ok);
    Replayed.onRunEnd();
    EXPECT_EQ(keysOf(Replayed.reporter()), LiveKeys)
        << "serial replay diverged from the live run";
  }

  std::vector<RecordKey> SortedLive = LiveKeys;
  std::sort(SortedLive.begin(), SortedLive.end());
  for (uint32_t Shards : {1u, 2u, 4u}) {
    ShardedRuntimeOptions SOpts;
    SOpts.NumShards = Shards;
    ShardedRuntime Sharded(SOpts);
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(TracePath).Ok);
    ASSERT_TRUE(Reader.replayInto(Sharded).Ok);
    Sharded.onRunEnd();
    std::vector<RecordKey> Keys = keysOf(Sharded.reporter());
    std::sort(Keys.begin(), Keys.end());
    EXPECT_EQ(Keys, SortedLive)
        << "sharded replay (" << Shards << " shards) diverged";
  }
}

TEST(HotPathDifferential, HandWrittenPrograms) {
  // Figure 2 in both flavours (distinct locks = racy, same lock = clean)
  // and the Figure 3 loop.
  checkDifferential(testprogs::buildFigure2(/*SamePQ=*/false), 1);
  checkDifferential(testprogs::buildFigure2(/*SamePQ=*/true), 1);
  checkDifferential(testprogs::buildFig3Loop(16), 1);
}

TEST(HotPathDifferential, FuzzedPrograms) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Program P = fuzzprogs::generateProgram(Seed);
    checkDifferential(P, Seed);
  }
}

/// handleAccess (owning lockset) against handleEvent (pre-interned id):
/// the two ingestion paths of the standalone Detector must agree record
/// for record.
TEST(HotPathDifferential, HandleAccessVsHandleEvent) {
  Rng R(42);
  std::vector<AccessEvent> Events;
  for (int I = 0; I != 4000; ++I) {
    AccessEvent E;
    E.Location =
        LocationKey::forField(ObjectId(uint32_t(R.nextBelow(32))),
                              FieldId(uint32_t(R.nextBelow(2))));
    E.Thread = ThreadId(uint32_t(1 + R.nextBelow(4)));
    size_t Locks = R.nextBelow(3);
    for (size_t J = 0; J != Locks; ++J)
      E.Locks.insert(LockId(uint32_t(R.nextBelow(6))));
    E.Access = R.nextChance(1, 3) ? AccessKind::Write : AccessKind::Read;
    E.Site = SiteId(uint32_t(R.nextBelow(8)));
    Events.push_back(std::move(E));
  }

  RaceReporter ViaAccess, ViaEvent;
  Detector A(ViaAccess, {});
  Detector B(ViaEvent, {});
  for (const AccessEvent &E : Events) {
    A.handleAccess(E);
    DetectorEvent D;
    D.Location = E.Location;
    D.Thread = E.Thread;
    D.Locks = B.interner().intern(E.Locks);
    D.Access = E.Access;
    D.Site = E.Site;
    B.handleEvent(D);
  }
  EXPECT_EQ(keysOf(ViaAccess), keysOf(ViaEvent));
  EXPECT_EQ(A.stats().RacesReported, B.stats().RacesReported);
  EXPECT_EQ(A.stats().TrieNodes, B.stats().TrieNodes);
}

} // namespace
