//===- tests/hotpath_test.cpp - Hot-path building blocks ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the allocation-lean detector hot path (docs/PERFORMANCE.md):
/// the LockSetInterner's masks against a SortedIdSet oracle (including the
/// >64-lock inexact sets), the HistoryStore's block reuse and
/// chunk-spanning blocks, and differential replays proving the
/// interned/sharded paths produce the identical RaceReport stream as the
/// original handleAccess path.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "detect/AccessHistory.h"
#include "detect/Detector.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "runtime/Interpreter.h"
#include "support/LockSetInterner.h"
#include "support/Rng.h"
#include "support/TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

/// Randomized agreement of what the access history reads — mask() and
/// isExact() — with the SortedIdSet oracle.  \p Universe controls whether
/// sets stay inside the 64-dense-lock masks or spill past them.
void checkAgainstOracle(uint32_t Universe, uint64_t Seed) {
  Rng R(Seed);
  LockSetInterner I;
  std::vector<std::pair<LockSetId, LockSet>> Sets;
  for (int N = 0; N != 200; ++N) {
    LockSet S;
    size_t Size = R.nextBelow(6);
    for (size_t J = 0; J != Size; ++J)
      S.insert(LockId(uint32_t(R.nextBelow(Universe))));
    LockSetId Id = I.intern(S);
    // Each member's bit, read off its singleton set: interning one brings
    // no new lock into the universe, since S already did.
    uint64_t MemberBits = 0;
    bool EveryMemberHasABit = true;
    for (LockId Lock : S) {
      LockSetId One = I.intern(LockSet{Lock});
      MemberBits |= I.mask(One);
      EveryMemberHasABit &= I.isExact(One);
    }
    // Every mask bit is a member, and an exact mask has one per member.
    EXPECT_EQ(I.mask(Id), MemberBits);
    EXPECT_EQ(I.isExact(Id), EveryMemberHasABit);
    if (I.isExact(Id)) {
      EXPECT_EQ(size_t(std::popcount(I.mask(Id))), S.size());
    }
    Sets.push_back({Id, S});
  }
  // For two exact sets, ANDN and AND decide subset and intersection.
  for (int N = 0; N != 2000; ++N) {
    auto &[IdA, SetA] = Sets[R.nextBelow(Sets.size())];
    auto &[IdB, SetB] = Sets[R.nextBelow(Sets.size())];
    if (!I.isExact(IdA) || !I.isExact(IdB))
      continue;
    EXPECT_EQ((I.mask(IdA) & ~I.mask(IdB)) == 0, SetA.isSubsetOf(SetB));
    EXPECT_EQ((I.mask(IdA) & I.mask(IdB)) != 0, SetA.intersects(SetB));
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
  // exercising the inexact masks.
  checkAgainstOracle(/*Universe=*/200, /*Seed=*/3);
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
  EXPECT_TRUE(I.isExact(Exact));
  EXPECT_FALSE(I.isExact(Inexact));
  EXPECT_FALSE(I.isExact(Other));
  // The masks hold the members inside the universe, and only those.
  EXPECT_EQ(I.mask(Exact), uint64_t(0b110));
  EXPECT_EQ(I.mask(Inexact), uint64_t(0b110));
  EXPECT_EQ(I.mask(Other), 0u);
  EXPECT_TRUE(I.isExact(LockSetInterner::emptySet()));
  EXPECT_EQ(I.mask(LockSetInterner::emptySet()), 0u);
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
