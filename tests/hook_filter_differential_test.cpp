//===- tests/hook_filter_differential_test.cpp - L0 filter on vs off ------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence lockdown for the hook-path fast path (docs/HOOKPATH.md):
/// `--hook-filter=off` is the reference semantics — every access event
/// travels the virtual RuntimeHooks path into the detection runtime — and
/// `--hook-filter=on` (the inline L0 access filter, devirtualized delivery
/// and batched sharded submission) must be observationally
/// indistinguishable from it.  Every program in the shared corpus plus a
/// slice of the fuzz generator runs with the filter on and off, under both
/// dispatch modes, serial and sharded, across schedule seeds, and must
/// produce byte-identical race reports, output, heaps, instruction counts
/// and recorded traces.  The L0 filter only ever suppresses events the
/// detector-side AccessCache would have absorbed, so even the detector's
/// input count must match exactly.
///
/// Also here: unit tests for detect/AccessFilter.h and the
/// AccessCache::provesRedundant predicate the filter's soundness leans on,
/// and the counter-reconciliation identity
/// (run.access_events == hook.filter_hits + runtime.events_seen) that
/// scripts/check_bench_gate.py enforces on benchmark artifacts.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "detect/AccessCache.h"
#include "detect/AccessFilter.h"
#include "herd/Pipeline.h"
#include "support/TempPath.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;
using testprogs::namedCorpus;
using testprogs::slurp;

namespace {

//===----------------------------------------------------------------------===
// AccessFilter unit tests
//===----------------------------------------------------------------------===

LocationKey locKey(uint32_t Obj, uint32_t Field) {
  return LocationKey::forField(ObjectId(Obj), FieldId(Field));
}

TEST(AccessFilterTest, MissThenHitPerKind) {
  AccessFilter F;
  LocationKey K = locKey(1, 2);
  EXPECT_FALSE(F.probe(K, AccessKind::Read));
  F.insert(K, AccessKind::Read);
  EXPECT_TRUE(F.probe(K, AccessKind::Read));
  // Same location, other kind: the filter is exact per access kind, so a
  // write probe misses until a write is inserted.
  EXPECT_FALSE(F.probe(K, AccessKind::Write));
  F.insert(K, AccessKind::Write);
  EXPECT_TRUE(F.probe(K, AccessKind::Write));
  // The kind is folded into the slot index, so the write insert did not
  // displace the read entry: a load-then-store loop on one hot field keeps
  // both entries resident instead of thrashing a single slot.
  EXPECT_TRUE(F.probe(K, AccessKind::Read));
  EXPECT_EQ(F.hits(), 3u);
  EXPECT_EQ(F.misses(), 2u);
}

TEST(AccessFilterTest, EpochBumpInvalidatesEverything) {
  AccessFilter F;
  LocationKey A = locKey(1, 0), B = locKey(2, 0);
  F.insert(A, AccessKind::Read);
  F.insert(B, AccessKind::Write);
  ASSERT_TRUE(F.probe(A, AccessKind::Read));
  ASSERT_TRUE(F.probe(B, AccessKind::Write));
  F.bumpEpoch();
  EXPECT_FALSE(F.probe(A, AccessKind::Read));
  EXPECT_FALSE(F.probe(B, AccessKind::Write));
  EXPECT_EQ(F.epochBumps(), 1u);
  // Re-inserting after the bump works at the new epoch.
  F.insert(A, AccessKind::Read);
  EXPECT_TRUE(F.probe(A, AccessKind::Read));
}

TEST(AccessFilterTest, InvalidateKeyIsSurgical) {
  AccessFilter F;
  LocationKey A = locKey(1, 0), B = locKey(2, 0);
  F.insert(A, AccessKind::Read);
  F.insert(B, AccessKind::Read);
  F.invalidateKey(A);
  EXPECT_FALSE(F.probe(A, AccessKind::Read));
  EXPECT_TRUE(F.probe(B, AccessKind::Read));
  EXPECT_EQ(F.keyInvalidations(), 1u);
  // Invalidating a key the filter does not hold is a no-op.
  F.invalidateKey(locKey(99, 9));
  EXPECT_EQ(F.keyInvalidations(), 1u);
  // Both kind slots of a key drop together (one counted invalidation):
  // detector-side evictions are what trigger this, and they must never
  // leave a stale hit behind for either kind.
  F.insert(A, AccessKind::Read);
  F.insert(A, AccessKind::Write);
  F.invalidateKey(A);
  EXPECT_FALSE(F.holds(A, AccessKind::Read));
  EXPECT_FALSE(F.holds(A, AccessKind::Write));
  EXPECT_EQ(F.keyInvalidations(), 2u);
}

TEST(AccessCacheTest, ProvesRedundantHasNoSideEffects) {
  AccessCache C(16);
  LocationKey K = locKey(3, 1);
  EXPECT_FALSE(C.provesRedundant(K));
  EXPECT_EQ(C.hits() + C.misses(), 0u) << "the predicate must not count";
  C.insert(K);
  EXPECT_TRUE(C.provesRedundant(K));
  EXPECT_EQ(C.hits() + C.misses(), 0u);
  // lookup() agrees with the predicate and is the one that counts.
  EXPECT_TRUE(C.lookup(K));
  EXPECT_EQ(C.hits(), 1u);
}

TEST(AccessCacheTest, InsertReportsTheDisplacedKey) {
  AccessCache C(1); // every distinct key collides in a one-entry cache
  LocationKey A = locKey(1, 0), B = locKey(2, 0);
  EXPECT_EQ(C.insert(A), LocationKey()) << "an empty slot displaces none";
  EXPECT_EQ(C.insert(B), A);
  // Re-inserting the resident key displaces nothing.
  EXPECT_EQ(C.insert(B), LocationKey());
  // Neither does inserting over an entry a release evicted.
  C.acquire();
  C.insert(A);
  C.release(1);
  EXPECT_EQ(C.insert(B), LocationKey());
}

//===----------------------------------------------------------------------===
// Pipeline-level equivalence: filter on vs off
//===----------------------------------------------------------------------===

/// Asserts that a filter-on run is indistinguishable from the filter-off
/// reference.  Everything observable must match — including the detector's
/// own input count, because the L0 filter may only suppress events the
/// detector-side cache would have absorbed anyway.  Cache hit counters are
/// deliberately NOT compared: absorbed events migrate from the cache to
/// the filter, which is the point of the optimization.
void expectSameRun(const PipelineResult &Ref, const PipelineResult &Got,
                   const std::string &What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(Ref.Run.Ok, Got.Run.Ok) << Got.Run.Error;
  EXPECT_EQ(Ref.Run.Error, Got.Run.Error);
  EXPECT_EQ(Ref.FormattedRaces, Got.FormattedRaces);
  EXPECT_EQ(Ref.FormattedDeadlocks, Got.FormattedDeadlocks);
  EXPECT_EQ(Ref.Run.Output, Got.Run.Output);
  EXPECT_EQ(Ref.Run.InstructionsExecuted, Got.Run.InstructionsExecuted);
  EXPECT_EQ(Ref.Run.AccessEvents, Got.Run.AccessEvents);
  EXPECT_EQ(Ref.Run.ContextSwitches, Got.Run.ContextSwitches);
  EXPECT_EQ(Ref.Run.ThreadsCreated, Got.Run.ThreadsCreated);
  EXPECT_EQ(Ref.Stats.Detector.EventsIn, Got.Stats.Detector.EventsIn);
  EXPECT_EQ(Ref.Stats.Detector.RacesReported,
            Got.Stats.Detector.RacesReported);
  EXPECT_EQ(Ref.Stats.Detector.OwnedFiltered,
            Got.Stats.Detector.OwnedFiltered);
  EXPECT_EQ(Ref.Stats.Detector.WeakerFiltered,
            Got.Stats.Detector.WeakerFiltered);
}

/// The counter-reconciliation identity for a filter-on run: every access
/// the interpreter emitted either hit the L0 filter or reached the
/// detection runtime.  Nothing is dropped, nothing is double-counted.
void expectCountersReconcile(const PipelineResult &R,
                             const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_TRUE(R.Stats.Hook.FilterEnabled);
  EXPECT_EQ(R.Run.AccessEvents,
            R.Stats.Hook.FilterHits + R.Stats.EventsSeen);
  EXPECT_EQ(R.Stats.Hook.FilterHits + R.Stats.Hook.FilterMisses,
            R.Run.AccessEvents)
      << "every emitted access must be probed exactly once";
}

/// Runs \p P with the filter off (reference) and on, in both dispatch
/// modes, and asserts equivalence along every axis.  Returns the total L0
/// hits so callers can assert the fast path actually engaged.
uint64_t runBothFilters(const Program &P, ToolConfig Config,
                        const std::string &What) {
  uint64_t FilterHits = 0;
  for (DispatchMode Mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    Config.Dispatch = Mode;
    std::string Tag =
        What + (Mode == DispatchMode::Switch ? " [switch]" : " [threaded]");

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    EXPECT_FALSE(Ref.Stats.Hook.FilterEnabled);
    EXPECT_EQ(Ref.Stats.Hook.FilterHits, 0u);

    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Tag);
    if (Config.Instrument && Config.UseCache)
      expectCountersReconcile(On, Tag);
    FilterHits += On.Stats.Hook.FilterHits;
  }
  return FilterHits;
}

TEST(HookFilterDifferentialTest, NamedProgramsAllConfigs) {
  uint64_t FilterHits = 0;
  for (auto &[Name, P] : namedCorpus()) {
    for (uint64_t Seed : {1u, 13u}) {
      for (uint32_t Shards : {0u, 3u}) {
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        FilterHits += runBothFilters(
            P, Full,
            Name + " full seed=" + std::to_string(Seed) +
                " shards=" + std::to_string(Shards));
      }
      // NoStatic: instrument every access and keep the in-loop traces, so
      // redundant accesses actually recur at runtime — this is where the
      // L0 filter earns its keep (the full config statically removes most
      // provably-redundant traces before the runtime ever sees them).
      ToolConfig NoStatic = ToolConfig::noStatic();
      NoStatic.StaticWeakerThan = false;
      NoStatic.LoopPeeling = false;
      NoStatic.Seed = Seed;
      FilterHits += runBothFilters(
          P, NoStatic, Name + " nostatic seed=" + std::to_string(Seed));

      // NoCache: the L0 filter loses its oracle and must disarm itself —
      // the run degenerates to devirtualized delivery only.
      ToolConfig NoCache = ToolConfig::noCache();
      NoCache.Seed = Seed;
      runBothFilters(P, NoCache,
                     Name + " nocache seed=" + std::to_string(Seed));
    }
  }
  EXPECT_GT(FilterHits, 0u)
      << "the corpus never engaged the L0 filter; the fast path went "
         "untested";
}

TEST(HookFilterDifferentialTest, MultiSinkConfigsDisableDevirtButAgree) {
  // With the deadlock detector attached the detection runtime is no longer
  // the sole sink, so the pipeline must fall back to (lazy) fanout
  // delivery — and results still match the filter-off reference.
  for (auto &[Name, P] : namedCorpus()) {
    ToolConfig Config = ToolConfig::full();
    Config.Seed = 7;
    Config.DetectDeadlocks = true;

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Name + " deadlocks");
    // Access events bypass onAccessFast entirely on the fanout path, so
    // the L0 filter never fires.
    EXPECT_EQ(On.Stats.Hook.FilterHits, 0u);
  }
}

class HookFilterFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HookFilterFuzzTest, GeneratedProgramsAgree) {
  Program P = generateProgram(GetParam());
  for (uint64_t Seed : {1u, 13u}) {
    ToolConfig Full = ToolConfig::full();
    Full.Seed = Seed;
    runBothFilters(P, Full, "fuzz full seed=" + std::to_string(Seed));
  }
  ToolConfig Sharded = ToolConfig::full();
  Sharded.Seed = 7;
  Sharded.Shards = 3;
  runBothFilters(P, Sharded, "fuzz sharded");
}

INSTANTIATE_TEST_SUITE_P(Programs, HookFilterFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===
// Quantum edges: batching must never change a schedule
//===----------------------------------------------------------------------===

TEST(HookFilterDifferentialTest, QuantumEdgesStayIdentical) {
  // MaxQuantum=1 and 2 maximize flush pressure: the sharded runtime's
  // staging buffer sees a quantum boundary after nearly every event, so
  // any accounting drift between the staged and direct submit paths would
  // surface here.  The schedule itself is decided before events are
  // staged, so instruction counts and context switches must match the
  // unbatched reference exactly.
  uint64_t BatchedEvents = 0;
  for (auto &[Name, P] : namedCorpus()) {
    for (uint32_t MaxQ : {1u, 2u}) {
      for (uint32_t Shards : {0u, 2u}) {
        ToolConfig Config = ToolConfig::full();
        Config.Seed = 13;
        Config.MaxQuantum = MaxQ;
        Config.Shards = Shards;
        runBothFilters(P, Config,
                       Name + " maxq=" + std::to_string(MaxQ) +
                           " shards=" + std::to_string(Shards));
        Config.HookFilter = true;
        BatchedEvents += runPipeline(P, Config).Stats.Hook.BatchedEvents;
      }
    }
  }
  EXPECT_GT(BatchedEvents, 0u)
      << "no sharded run ever staged an event; the batch path went "
         "untested";
}

//===----------------------------------------------------------------------===
// Record/replay interop
//===----------------------------------------------------------------------===

TEST(HookFilterDifferentialTest, RecordedTracesKeepEveryEvent) {
  // Filtering applies to detector delivery, never to `--record`: with a
  // trace recorder attached the runtime is not the sole sink, so every
  // event travels the fanout path and the recorded bytes are identical
  // with the filter on and off.
  for (auto &[Name, P] : namedCorpus()) {
    TempPath OnPath("hookfilter-on-" + Name);
    TempPath OffPath("hookfilter-off-" + Name);

    ToolConfig Rec = ToolConfig::full();
    Rec.Seed = 21;
    Rec.HookFilter = true;
    Rec.RecordTracePath = OnPath.str();
    PipelineResult On = runPipeline(P, Rec);
    ASSERT_TRUE(On.Run.Ok && On.Trace.Ok) << On.Run.Error << On.Trace.Error;
    EXPECT_EQ(On.Stats.Hook.FilterHits, 0u)
        << "recording must disable the L0 filter so the trace is complete";

    Rec.HookFilter = false;
    Rec.RecordTracePath = OffPath.str();
    PipelineResult Off = runPipeline(P, Rec);
    ASSERT_TRUE(Off.Run.Ok && Off.Trace.Ok);

    EXPECT_EQ(On.TraceRecords, Off.TraceRecords);
    EXPECT_EQ(slurp(OnPath), slurp(OffPath))
        << Name << ": recorded traces differ with the filter on vs off";

    // Replaying the filter-on recording re-detects identically with the
    // filter on and off, serial and sharded (replay delivers events over
    // the virtual path; sharded replay still exercises batching).
    for (uint32_t Shards : {0u, 2u}) {
      ToolConfig Re = ToolConfig::full();
      Re.Seed = 99; // ignored: the trace is the event source
      Re.Shards = Shards;
      Re.HookFilter = false;
      PipelineResult RefReplay = replayTracePipeline(P, Re, OnPath);
      Re.HookFilter = true;
      PipelineResult OnReplay = replayTracePipeline(P, Re, OnPath);
      expectSameRun(RefReplay, OnReplay,
                    Name + " replay shards=" + std::to_string(Shards));
      // Replay has no heap, so formatted reports degrade to object
      // indices; the detected race set itself must match the live run.
      EXPECT_EQ(RefReplay.Stats.Detector.RacesReported,
                On.Stats.Detector.RacesReported)
          << Name << ": replay must reproduce the live run's races";
      EXPECT_EQ(RefReplay.FormattedRaces.size(), On.FormattedRaces.size());
    }
  }
}

} // namespace
