//===- tests/hotpath_test.cpp - Hot-path building blocks ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the allocation-lean detector hot path (docs/PERFORMANCE.md):
/// the LockSetInterner's masks against a SortedIdSet oracle (including the
/// >64-lock inexact sets), its ids stepped by random acquires and
/// releases and queried against the sorted sets, with readers querying
/// published sets while the producer interns, the HistoryStore's block
/// reuse and
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
#include <atomic>
#include <bit>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
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

/// The mask bit each lock of \p Set holds, read off its singleton set, and
/// whether every member holds one.  Interning a singleton brings no new
/// lock into the mask universe when \p Set's locks were all seen before.
std::pair<uint64_t, bool> memberBits(LockSetInterner &I, const LockSet &Set) {
  uint64_t Bits = 0;
  bool Exact = true;
  for (LockId Lock : Set) {
    LockSetId One = I.intern(LockSet{Lock});
    Bits |= I.mask(One);
    Exact &= I.isExact(One);
  }
  return {Bits, Exact};
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
    auto [MemberBits, EveryMemberHasABit] = memberBits(I, S);
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
  EXPECT_TRUE(I.isExact(I.intern(makeSet({63})))); // the last bit
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

/// Random acquires and releases on a few threads, stepped through
/// withLock() and withoutLock(), against each thread's SortedIdSet: the
/// releases come innermost first or from anywhere in the stack, threads
/// start holding their own dummy lock, and joins add the joined thread's.
/// Every step must reach the id that interning the whole set gives.
/// Returns every (id, set) pair seen.
std::vector<std::pair<LockSetId, LockSet>>
stepThreads(LockSetInterner &I, uint32_t Universe, uint64_t Seed) {
  Rng R(Seed);
  constexpr uint32_t Threads = 4;
  std::vector<LockSetId> Ids(Threads, LockSetInterner::emptySet());
  std::vector<LockSet> Sets(Threads);
  std::vector<std::vector<LockId>> Stacks(Threads);
  std::vector<std::pair<LockSetId, LockSet>> Seen;
  auto Step = [&](uint32_t T, LockId Lock, bool Add) {
    Ids[T] = Add ? I.withLock(Ids[T], Lock) : I.withoutLock(Ids[T], Lock);
    if (Add)
      Sets[T].insert(Lock);
    else
      Sets[T].erase(Lock);
  };
  for (uint32_t T = 1; T != Threads; ++T)
    Step(T, RaceRuntime::dummyLockOf(ThreadId(T)), /*Add=*/true);
  for (int N = 0; N != 3000; ++N) {
    uint32_t T = uint32_t(R.nextBelow(Threads));
    std::vector<LockId> &Stack = Stacks[T];
    uint64_t Pick = R.nextBelow(16);
    if (Pick < 8 && Stack.size() < 24) {
      LockId Lock(uint32_t(R.nextBelow(Universe)));
      if (Sets[T].contains(Lock))
        continue;
      Step(T, Lock, /*Add=*/true);
      Stack.push_back(Lock);
    } else if (Pick < 14 && !Stack.empty()) {
      // Innermost first, or now and then from the middle of the stack.
      size_t At = R.nextChance(1, 3) ? R.nextBelow(Stack.size())
                                     : Stack.size() - 1;
      Step(T, Stack[At], /*Add=*/false);
      Stack.erase(Stack.begin() + long(At));
    } else if (Pick == 14) {
      Step(T, RaceRuntime::dummyLockOf(ThreadId(uint32_t(R.nextBelow(8)))),
           /*Add=*/true); // a join: held for the rest of the run
    } else {
      // A step that changes nothing: a lock not held, or one held again.
      LockId Lock(uint32_t(R.nextBelow(Universe)));
      LockSetId Before = Ids[T];
      bool Held = Sets[T].contains(Lock);
      Step(T, Lock, /*Add=*/Held);
      EXPECT_EQ(Ids[T], Before);
    }
    EXPECT_EQ(Ids[T], I.intern(Sets[T])) << "seed " << Seed << " step " << N;
    EXPECT_EQ(I.resolve(Ids[T]), Sets[T]);
    Seen.emplace_back(Ids[T], Sets[T]);
  }
  return Seen;
}

/// Every query the access history makes of two interned sets, against the
/// SortedIdSet answers.
::testing::AssertionResult sameAnswers(const LockSetInterner &I, LockSetId A,
                                       const LockSet &SetA, LockSetId B,
                                       const LockSet &SetB) {
  auto Differs = [&](const char *Query) {
    return ::testing::AssertionFailure()
           << Query << " differs on sets of " << SetA.size() << " and "
           << SetB.size() << " locks";
  };
  size_t Prefix = size_t(std::mismatch(SetA.begin(), SetA.end(),
                                       SetB.begin(), SetB.end())
                             .first -
                         SetA.begin());
  if (I.sizeOf(A) != SetA.size())
    return Differs("sizeOf");
  if (I.less(A, B) != (SetA < SetB))
    return Differs("less");
  if (I.commonPrefix(A, B) != Prefix)
    return Differs("commonPrefix");
  if (I.isSubsetOf(A, B) != SetA.isSubsetOf(SetB))
    return Differs("isSubsetOf");
  if (I.intersects(A, B) != SetA.intersects(SetB))
    return Differs("intersects");
  return ::testing::AssertionSuccess();
}

class ChainInternerTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ChainInternerTest, StepsAndQueriesMatchTheSortedSets) {
  // Universes of 16, 64 and 200 locks: past 64, sets lose mask bits and
  // the subset and disjointness tests walk both sets.
  const uint32_t Universe = GetParam();
  for (uint64_t Seed = 1; Seed != 4; ++Seed) {
    LockSetInterner I;
    std::vector<std::pair<LockSetId, LockSet>> Seen =
        stepThreads(I, Universe, Seed);
    ASSERT_FALSE(::testing::Test::HasFailure());
    bool SawInexact = false;
    for (const auto &[Id, Set] : Seen) {
      auto [Bits, Exact] = memberBits(I, Set);
      ASSERT_EQ(I.mask(Id), Bits);
      ASSERT_EQ(I.isExact(Id), Exact);
      SawInexact |= !Exact;
    }
    // 16 locks and at most 11 dummy locks fit the 64 mask bits; 200 do not.
    if (Universe < 32) {
      EXPECT_FALSE(SawInexact);
    }
    if (Universe > 64) {
      EXPECT_TRUE(SawInexact);
    }
    Rng R(Seed * 31);
    for (int N = 0; N != 4000; ++N) {
      size_t IA = R.nextBelow(Seen.size());
      // Half the pairs are a few steps apart, so long common prefixes and
      // subsets come up as well as unrelated sets.
      size_t IB = R.nextChance(1, 2)
                      ? R.nextBelow(Seen.size())
                      : std::min(Seen.size() - 1, IA + R.nextBelow(8));
      const auto &[A, SetA] = Seen[IA];
      const auto &[B, SetB] = Seen[IB];
      ASSERT_TRUE(sameAnswers(I, A, SetA, B, SetB)) << "seed " << Seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, ChainInternerTest,
                         ::testing::Values(16u, 64u, 200u));

TEST(LockSetInterner, ReadersWalkPublishedChainsWhileTheProducerInterns) {
  // The shard workers' contract: a set whose id reached a reader through a
  // mutex reads back whole while the producer goes on interning and grows
  // the store across chunks.  Built under TSan by the sanitize-sharded job.
  LockSetInterner I;
  std::mutex M;
  std::vector<std::pair<LockSetId, LockSet>> Published;
  std::atomic<bool> Done{false};
  auto Reader = [&](uint64_t Seed) {
    Rng R(Seed);
    size_t Checked = 0;
    while (!Done.load() || Checked < 2000) {
      std::pair<LockSetId, LockSet> A, B;
      {
        std::lock_guard<std::mutex> Lock(M);
        if (Published.empty())
          continue;
        A = Published[R.nextBelow(Published.size())];
        B = Published[R.nextBelow(Published.size())];
      }
      EXPECT_TRUE(sameAnswers(I, A.first, A.second, B.first, B.second));
      EXPECT_EQ(I.resolve(A.first), A.second);
      ++Checked;
    }
  };
  std::thread First(Reader, 1), Second(Reader, 2);
  Rng R(3);
  for (int N = 0; N != 6000; ++N) {
    LockSet Set;
    for (uint64_t Size = R.nextBelow(9); Set.size() != Size;)
      Set.insert(LockId(uint32_t(R.nextBelow(100))));
    LockSetId Id = I.intern(Set);
    std::lock_guard<std::mutex> Lock(M);
    Published.emplace_back(Id, std::move(Set));
  }
  Done.store(true);
  First.join();
  Second.join();
  EXPECT_GT(I.size(), size_t(4) * LockSetInterner::ChunkSize)
      << "the store stayed in few chunks";
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
