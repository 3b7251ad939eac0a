//===- tests/plan_test.cpp - DetectorPlan correctness and equivalence -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DetectorPlan layer's regression net.  Three concerns:
///
///  * Equivalence — a plan pre-sizes memory, it must never change what is
///    reported.  PlanMode::Off vs Auto vs Explicit must produce
///    byte-identical formatted race reports across serial/sharded and
///    live/replay on the hand-written test programs, the fuzz corpus and
///    the benchmark replicas.
///
///  * Reserve arithmetic — FlatTable::capacityFor and its reserve()
///    counterpart at the edges (zero, load-factor boundaries, saturation
///    at SIZE_MAX), and a reserved HistoryStore taking the entries it was
///    reserved for without another chunk.
///
///  * Plan arithmetic — clamped() caps, sized(), forShard() slicing.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "analysis/DetectorPlanner.h"
#include "detect/AccessHistory.h"
#include "herd/Pipeline.h"
#include "support/FlatTable.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;
using testprogs::buildFigure2;

namespace {

//===----------------------------------------------------------------------===
// Equivalence: plans never change reports
//===----------------------------------------------------------------------===

/// Runs \p P live under \p Config with every plan mode and expects
/// byte-identical formatted race reports; returns the unplanned reports.
TextLines expectPlanInvariantLive(const Program &P, ToolConfig Config) {
  Config.Plan = ToolConfig::PlanMode::Off;
  PipelineResult Off = runPipeline(P, Config);
  EXPECT_TRUE(Off.Run.Ok) << Off.Run.Error;

  Config.Plan = ToolConfig::PlanMode::Auto;
  PipelineResult Auto = runPipeline(P, Config);
  EXPECT_TRUE(Auto.Run.Ok) << Auto.Run.Error;
  EXPECT_EQ(Off.FormattedRaces, Auto.FormattedRaces);

  Config.Plan = ToolConfig::PlanMode::Explicit;
  Config.PlanLocations = 512;
  PipelineResult Explicit = runPipeline(P, Config);
  EXPECT_TRUE(Explicit.Run.Ok) << Explicit.Run.Error;
  EXPECT_EQ(Off.FormattedRaces, Explicit.FormattedRaces);
  return Off.FormattedRaces;
}

TEST(PlanEquivalence, HandWrittenProgramsSerialAndSharded) {
  for (bool SamePQ : {true, false}) {
    Program P = buildFigure2(SamePQ);
    for (uint32_t Shards : {0u, 3u}) {
      SCOPED_TRACE(std::string(SamePQ ? "samePQ" : "distinctPQ") + "/" +
                   std::to_string(Shards) + " shards");
      ToolConfig Config = ToolConfig::full();
      Config.Shards = Shards;
      expectPlanInvariantLive(P, Config);
    }
  }
}

TEST(PlanEquivalence, FuzzCorpusSerialAndSharded) {
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Program P = generateProgram(Seed);
    for (uint32_t Shards : {0u, 2u}) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + "/" +
                   std::to_string(Shards) + " shards");
      ToolConfig Config = ToolConfig::full();
      Config.Shards = Shards;
      Config.Seed = Seed;
      expectPlanInvariantLive(P, Config);
    }
  }
}

TEST(PlanEquivalence, WorkloadReplicas) {
  for (Workload &W : buildAllWorkloads(1)) {
    SCOPED_TRACE(W.Name);
    ToolConfig Config = ToolConfig::full();
    TextLines Races = expectPlanInvariantLive(W.P, Config);
    // The replicas' expected racy-object counts double-check that the
    // planned runs still report the full result set, not a truncation.
    (void)Races;
  }
}

TEST(PlanEquivalence, ReplayHonorsExplicitPlan) {
  // Record once (plan=auto live), then replay with plan off and with an
  // explicit plan: identical reports.  Replay has no analysis results, so
  // Auto degrades to no plan there — also checked.
  Program P = buildFigure2(/*SamePQ=*/true);
  TempPath Path("plan-test");
  ToolConfig Config = ToolConfig::full();
  Config.RecordTracePath = Path.str();
  PipelineResult Live = runPipeline(P, Config);
  ASSERT_TRUE(Live.Run.Ok) << Live.Run.Error;
  ASSERT_TRUE(Live.Trace.Ok) << Live.Trace.Error;
  Config.RecordTracePath.clear();

  for (uint32_t Shards : {0u, 2u}) {
    SCOPED_TRACE(std::to_string(Shards) + " shards");
    Config.Shards = Shards;
    Config.Plan = ToolConfig::PlanMode::Off;
    PipelineResult Off = replayTracePipeline(P, Config, Path);
    ASSERT_TRUE(Off.Run.Ok) << Off.Run.Error;
    // Replay formats objects without class names (the trace does not carry
    // allocation classes), so compare counts against live and bytes only
    // among replays.
    EXPECT_EQ(Off.FormattedRaces.size(), Live.FormattedRaces.size());

    Config.Plan = ToolConfig::PlanMode::Auto;
    PipelineResult Auto = replayTracePipeline(P, Config, Path);
    ASSERT_TRUE(Auto.Run.Ok) << Auto.Run.Error;
    EXPECT_EQ(Auto.FormattedRaces, Off.FormattedRaces);

    Config.Plan = ToolConfig::PlanMode::Explicit;
    Config.PlanLocations = 4096;
    PipelineResult Explicit = replayTracePipeline(P, Config, Path);
    ASSERT_TRUE(Explicit.Run.Ok) << Explicit.Run.Error;
    EXPECT_EQ(Explicit.FormattedRaces, Off.FormattedRaces);
  }
}

//===----------------------------------------------------------------------===
// FlatTable reserve arithmetic
//===----------------------------------------------------------------------===

using TestTable = LocationTable<uint32_t>;

TEST(FlatTableReserve, CapacityForEdges) {
  // Minimum table is 64 slots; grow keeps load <= 3/4.
  EXPECT_EQ(TestTable::capacityFor(0), 64u);
  EXPECT_EQ(TestTable::capacityFor(1), 64u);
  EXPECT_EQ(TestTable::capacityFor(48), 64u);  // 64 * 3/4 == 48 fits
  EXPECT_EQ(TestTable::capacityFor(49), 128u); // one past the boundary
  EXPECT_EQ(TestTable::capacityFor(96), 128u);
  EXPECT_EQ(TestTable::capacityFor(97), 256u);
  // Saturation: absurd requests return the largest power of two instead
  // of looping forever or overflowing.
  const size_t MaxPow2 = ~(~size_t(0) >> 1);
  EXPECT_EQ(TestTable::capacityFor(SIZE_MAX), MaxPow2);
  EXPECT_EQ(TestTable::capacityFor(MaxPow2), MaxPow2);
}

TEST(FlatTableReserve, ReserveThenFillDoesNotLoseEntries) {
  TestTable T;
  T.reserve(1000); // 2048 slots: 1000 <= 3/4 * 2048
  for (uint32_t I = 0; I != 1000; ++I) {
    LocationKey K = LocationKey::forField(ObjectId(I), FieldId(I % 7));
    *T.tryEmplace(K).first = I;
  }
  for (uint32_t I = 0; I != 1000; ++I) {
    LocationKey K = LocationKey::forField(ObjectId(I), FieldId(I % 7));
    uint32_t *V = T.find(K);
    ASSERT_NE(V, nullptr) << I;
    EXPECT_EQ(*V, I);
  }
}

TEST(FlatTableReserve, ReserveAfterInsertRehashesExisting) {
  TestTable T;
  for (uint32_t I = 0; I != 10; ++I)
    *T.tryEmplace(LocationKey::forField(ObjectId(I), FieldId(0))).first = I;
  T.reserve(5000);
  for (uint32_t I = 0; I != 10; ++I) {
    uint32_t *V = T.find(LocationKey::forField(ObjectId(I), FieldId(0)));
    ASSERT_NE(V, nullptr);
    EXPECT_EQ(*V, I);
  }
  // Shrinking reserve is a no-op, never a rehash down.
  T.reserve(0);
  EXPECT_NE(T.find(LocationKey::forField(ObjectId(3), FieldId(0))),
            nullptr);
}

//===----------------------------------------------------------------------===
// HistoryStore reserve
//===----------------------------------------------------------------------===

TEST(HistoryStoreReserve, ReserveCoversSubsequentBlocks) {
  // What Detector::applyPlan reserves: a history store reserved for 20000
  // entries takes 2500 histories of eight entries each without another
  // chunk.  Their blocks of 1, 2 and 4 entries are reused as each history
  // outgrows them, so the store hands out 8 fresh entries per history and
  // 7 more for the first: 20007 in all.
  LockSetInterner Interner;
  HistoryStore Store;
  Store.reserve(20000);
  size_t Reserved = Store.reservedEntries();
  EXPECT_GE(Reserved, 20000u);
  std::vector<AccessHistory> Histories(2500);
  for (AccessHistory &H : Histories)
    for (uint32_t L = 0; L != 8; ++L) {
      LockSet Single;
      Single.insert(LockId(L));
      H.process(Store, Interner, ThreadId(1), Interner.intern(Single),
                AccessKind::Write, SiteId(L));
    }
  EXPECT_EQ(Store.live(), 2500u * 9); // the root and one node per entry
  EXPECT_EQ(Store.reservedEntries(), Reserved);
  Store.reserve(100); // covered: no-op
  EXPECT_EQ(Store.reservedEntries(), Reserved);
}

//===----------------------------------------------------------------------===
// DetectorPlan arithmetic
//===----------------------------------------------------------------------===

TEST(DetectorPlanTest, EmptyAndSized) {
  DetectorPlan P;
  EXPECT_TRUE(P.empty());
  DetectorPlan S = DetectorPlan::sized(100);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S.ExpectedLocations, 100u);
  EXPECT_EQ(S.ExpectedSharedLocations, 100u);
  EXPECT_EQ(S.ExpectedTrieNodes, 200u);
  EXPECT_EQ(DetectorPlan::sized(0).ExpectedLocations, 0u);
}

TEST(DetectorPlanTest, ClampedCapsHostileValues) {
  DetectorPlan P;
  P.ExpectedLocations = ~uint64_t(0);
  P.ExpectedSharedLocations = ~uint64_t(0);
  P.ExpectedTrieNodes = ~uint64_t(0);
  P.ExpectedThreads = ~uint64_t(0);
  P.ExpectedLocksets = ~uint64_t(0);
  DetectorPlan C = P.clamped();
  EXPECT_EQ(C.ExpectedLocations, uint64_t(1) << 22);
  EXPECT_LE(C.ExpectedSharedLocations, C.ExpectedLocations);
  EXPECT_EQ(C.ExpectedTrieNodes, uint64_t(1) << 24);
  EXPECT_EQ(C.ExpectedThreads, uint64_t(MaxThreads));
  EXPECT_EQ(C.ExpectedLocksets, uint64_t(1) << 20);
  // sized() goes through clamped() already.
  EXPECT_EQ(DetectorPlan::sized(~uint64_t(0)).ExpectedLocations,
            uint64_t(1) << 22);
}

TEST(DetectorPlanTest, ForShardSlicesWithHeadroom) {
  DetectorPlan P = DetectorPlan::sized(1000);
  P.ExpectedThreads = 7;
  P.ExpectedLocksets = 99;
  DetectorPlan S = P.forShard(0, 4);
  // 5/4 headroom per shard: 4 shards jointly over-cover the total.
  EXPECT_GE(S.ExpectedLocations * 4, P.ExpectedLocations);
  EXPECT_LE(S.ExpectedLocations, P.ExpectedLocations);
  EXPECT_EQ(S.ExpectedThreads, 7u); // threads are global, not sliced
  // Interner-scoped fields are pool-level, not per shard.
  EXPECT_EQ(S.ExpectedLocksets, 0u);
  EXPECT_TRUE(S.PreinternLocksets.empty());
  // Degenerate shard counts.
  EXPECT_TRUE(P.forShard(0, 0).empty());
  DetectorPlan One = P.forShard(0, 1);
  EXPECT_GE(One.ExpectedLocations, P.ExpectedLocations);
}

//===----------------------------------------------------------------------===
// Lockset-depth heuristic: deep must-sync nesting widens the trie budget
//===----------------------------------------------------------------------===

TEST(PlannerDepthTest, TrieNodesPerLocationCurve) {
  // 2^(depth+1) — the +1 is the per-thread dummy join lock — clamped to
  // [TrieNodesPerLocation=2, MaxTrieNodesPerLocation=64].
  EXPECT_EQ(trieNodesPerLocationForDepth(0), 2u);
  EXPECT_EQ(trieNodesPerLocationForDepth(1), 4u);
  EXPECT_EQ(trieNodesPerLocationForDepth(2), 8u);
  EXPECT_EQ(trieNodesPerLocationForDepth(3), 16u);
  EXPECT_EQ(trieNodesPerLocationForDepth(4), 32u);
  EXPECT_EQ(trieNodesPerLocationForDepth(5), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(6), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(100), 64u);
  EXPECT_EQ(trieNodesPerLocationForDepth(UINT64_MAX), 64u); // no overflow
  // The clamp ends are tunable.
  DetectorPlannerOptions Wide;
  Wide.TrieNodesPerLocation = 16;
  Wide.MaxTrieNodesPerLocation = 1 << 10;
  EXPECT_EQ(trieNodesPerLocationForDepth(0, Wide), 16u);
  EXPECT_EQ(trieNodesPerLocationForDepth(8, Wide), 512u);
  EXPECT_EQ(trieNodesPerLocationForDepth(20, Wide), 1u << 10);
}

/// Two workers race on Shared.count; the first wraps its access in
/// \p Depth nested synchronized blocks (each on a distinct single-instance
/// lock object), the second accesses bare — so the pair survives the
/// common-sync filter while the deepest must-held lockset over the race
/// set is exactly \p Depth.
Program buildNestedSyncRace(uint64_t Depth) {
  Program P;
  IRBuilder B(P);
  ClassId Shared = B.makeClass("Shared");
  FieldId Count = B.makeField(Shared, "count");
  ClassId LockCls = B.makeClass("LockObj");

  ClassId Deep = B.makeClass("DeepWorker");
  FieldId DeepTarget = B.makeField(Deep, "target");
  std::vector<FieldId> LockFields;
  for (uint64_t I = 0; I != Depth; ++I)
    LockFields.push_back(
        B.makeField(Deep, ("lock" + std::to_string(I)).c_str()));
  B.startMethod(Deep, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), DeepTarget);
    std::function<void(uint64_t)> Nest = [&](uint64_t I) {
      if (I == Depth) {
        B.site("DEEP");
        RegId Cur = B.emitGetField(Obj, Count);
        RegId One = B.emitConst(1);
        B.emitPutField(Obj, Count,
                       B.emitBinOp(BinOpKind::Add, Cur, One));
        return;
      }
      RegId L = B.emitGetField(B.thisReg(), LockFields[I]);
      B.sync(L, [&] { Nest(I + 1); });
    };
    Nest(0);
    B.emitReturn();
  }

  ClassId Bare = B.makeClass("BareWorker");
  FieldId BareTarget = B.makeField(Bare, "target");
  B.startMethod(Bare, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), BareTarget);
    B.site("BARE");
    B.emitPutField(Obj, Count, B.emitConst(5));
    B.emitReturn();
  }

  B.startMain();
  RegId SharedObj = B.emitNew(Shared);
  RegId W1 = B.emitNew(Deep);
  RegId W2 = B.emitNew(Bare);
  B.emitPutField(W1, DeepTarget, SharedObj);
  B.emitPutField(W2, BareTarget, SharedObj);
  for (uint64_t I = 0; I != Depth; ++I)
    B.emitPutField(W1, LockFields[I], B.emitNew(LockCls));
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitReturn();
  return P;
}

TEST(PlannerDepthTest, NestedSyncScalesPlannedTrieBudget) {
  // End to end through SyncAnalysis: the per-location trie budget the
  // planner charges must follow the program's deepest must-held lockset.
  for (uint64_t Depth : {0ull, 1ull, 2ull, 3ull}) {
    SCOPED_TRACE("depth " + std::to_string(Depth));
    Program P = buildNestedSyncRace(Depth);
    StaticRaceAnalysis SRA(P);
    SRA.run();
    ASSERT_GT(SRA.raceSet().size(), 0u);
    DetectorPlan Plan = planDetector(P, SRA);
    ASSERT_GT(Plan.ExpectedSharedLocations, 0u);
    EXPECT_EQ(Plan.ExpectedTrieNodes,
              Plan.ExpectedSharedLocations *
                  trieNodesPerLocationForDepth(Depth));
  }
  // And a deep-lockset program really does get the 64-node ceiling.
  Program P = buildNestedSyncRace(6);
  StaticRaceAnalysis SRA(P);
  SRA.run();
  DetectorPlan Plan = planDetector(P, SRA);
  ASSERT_GT(Plan.ExpectedSharedLocations, 0u);
  EXPECT_EQ(Plan.ExpectedTrieNodes, Plan.ExpectedSharedLocations * 64);
}

TEST(PlannerDepthTest, DeepNestingStillReportsIdentically) {
  // The wider budget is a hint: plans must not change reports.
  Program P = buildNestedSyncRace(4);
  ToolConfig Config = ToolConfig::full();
  expectPlanInvariantLive(P, Config);
}

//===----------------------------------------------------------------------===
// Plan application: pre-sizing is observable, reports unchanged
//===----------------------------------------------------------------------===

TEST(PlanApplication, RuntimeHonorsPlanWithoutChangingStats) {
  // Same trace-free live run twice, with and without a generous plan: the
  // detector counters (events, races, nodes) must match exactly.
  Program P = buildFigure2(/*SamePQ=*/true);
  ToolConfig Config = ToolConfig::full();
  Config.Plan = ToolConfig::PlanMode::Off;
  PipelineResult Off = runPipeline(P, Config);
  Config.Plan = ToolConfig::PlanMode::Explicit;
  Config.PlanLocations = 1 << 14;
  PipelineResult On = runPipeline(P, Config);
  ASSERT_TRUE(Off.Run.Ok && On.Run.Ok);
  EXPECT_EQ(Off.Stats.EventsSeen, On.Stats.EventsSeen);
  EXPECT_EQ(Off.Stats.Detector.EventsIn, On.Stats.Detector.EventsIn);
  EXPECT_EQ(Off.Stats.Detector.RacesReported,
            On.Stats.Detector.RacesReported);
  EXPECT_EQ(Off.Stats.Detector.TrieNodes, On.Stats.Detector.TrieNodes);
}

} // namespace
