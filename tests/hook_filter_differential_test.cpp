//===- tests/hook_filter_differential_test.cpp - Hook path on vs off ------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence lockdown for the hook-path fast path (docs/HOOKPATH.md):
/// the virtual lane (ToolConfig::HookFilter = false) is the reference
/// semantics — every access event travels the virtual RuntimeHooks path
/// into the detection runtime — and the devirtualized lane (the inline
/// Section 4 cache probe and devirtualized delivery) must be
/// observationally indistinguishable from it.  Every program in the shared
/// corpus plus a slice of the fuzz generator runs in both lanes, under
/// both dispatch modes, serial and sharded, across schedule seeds, and
/// must produce byte-identical race reports, output, heaps, instruction
/// counts and recorded traces, and identical runtime counters: the inline
/// probe is the cache's own lookup, so it counts what onAccess counts.
/// Sharded, both lanes submit every cache miss straight to the shard pool,
/// so each shard ingests the same events in the same batches.
///
/// Also here: the counter identities a run obeys on every path, live or
/// replayed (run.access_events == runtime.events_seen ==
/// cache_hits + detector.events_in), which scripts/check_schema.py checks
/// on herd-stats documents.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "herd/Pipeline.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

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
// Pipeline-level equivalence: fast path on vs off
//===----------------------------------------------------------------------===

void expectSameDetectorCounters(const DetectorStats &A,
                                const DetectorStats &B) {
  EXPECT_EQ(A.EventsIn, B.EventsIn);
  EXPECT_EQ(A.OwnedFiltered, B.OwnedFiltered);
  EXPECT_EQ(A.WeakerFiltered, B.WeakerFiltered);
  EXPECT_EQ(A.RacesReported, B.RacesReported);
  EXPECT_EQ(A.LocationsTracked, B.LocationsTracked);
  EXPECT_EQ(A.LocationsShared, B.LocationsShared);
  EXPECT_EQ(A.TrieNodes, B.TrieNodes);
  EXPECT_EQ(A.LocksetMemoHits, B.LocksetMemoHits);
  EXPECT_EQ(A.LocksetMemoMisses, B.LocksetMemoMisses);
}

/// Every RaceRuntimeStats counter.
void expectSameCounters(const RaceRuntimeStats &Ref,
                        const RaceRuntimeStats &Got) {
  EXPECT_EQ(Ref.EventsSeen, Got.EventsSeen);
  EXPECT_EQ(Ref.CacheHits, Got.CacheHits);
  EXPECT_EQ(Ref.CacheMisses, Got.CacheMisses);
  EXPECT_EQ(Ref.CacheEvictions, Got.CacheEvictions);
  EXPECT_EQ(Ref.Hook.FilterHits, Got.Hook.FilterHits);
  EXPECT_EQ(Ref.Hook.FilterMisses, Got.Hook.FilterMisses);
  EXPECT_EQ(Ref.Hook.EpochBumps, Got.Hook.EpochBumps);
  expectSameDetectorCounters(Ref.Detector, Got.Detector);
  ASSERT_EQ(Ref.PerThreadCache.size(), Got.PerThreadCache.size());
  for (size_t I = 0; I != Ref.PerThreadCache.size(); ++I) {
    const ThreadCacheStats &X = Ref.PerThreadCache[I],
                           &Y = Got.PerThreadCache[I];
    EXPECT_EQ(X.Thread, Y.Thread);
    EXPECT_EQ(X.ReadHits, Y.ReadHits);
    EXPECT_EQ(X.ReadMisses, Y.ReadMisses);
    EXPECT_EQ(X.WriteHits, Y.WriteHits);
    EXPECT_EQ(X.WriteMisses, Y.WriteMisses);
  }
}

/// Asserts that a fast-path run is indistinguishable from the reference:
/// everything observable, every runtime counter included.
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
  expectSameCounters(Ref.Stats, Got.Stats);
  // Each shard ingests the same events in the same batches.  The queue's
  // high-water mark depends on worker timing, so it is left out.
  ASSERT_EQ(Ref.ShardBreakdown.size(), Got.ShardBreakdown.size());
  for (size_t I = 0; I != Ref.ShardBreakdown.size(); ++I) {
    SCOPED_TRACE("shard " + std::to_string(I));
    const ShardStats &X = Ref.ShardBreakdown[I], &Y = Got.ShardBreakdown[I];
    EXPECT_EQ(X.EventsIngested, Y.EventsIngested);
    EXPECT_EQ(X.BatchesIngested, Y.BatchesIngested);
    expectSameDetectorCounters(X.Detector, Y.Detector);
  }
}

/// The counter identities: every access the program emitted reached the
/// detection runtime, and each one was a cache hit or went to the
/// detector.  Nothing is dropped, nothing is double-counted.
void expectCountersReconcile(const PipelineResult &R,
                             const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(R.Stats.EventsSeen, R.Run.AccessEvents);
  EXPECT_EQ(R.Stats.EventsSeen, R.Stats.CacheHits + R.Stats.Detector.EventsIn);
}

/// Runs \p P in the virtual lane (reference) and the devirtualized lane,
/// in both dispatch modes, and asserts equivalence along every axis.
/// Returns the fast path's cache hits, each one an inline probe hit, so
/// callers can assert that the probe engaged.
uint64_t runBothFilters(const Program &P, ToolConfig Config,
                        const std::string &What) {
  uint64_t CacheHits = 0;
  for (DispatchMode Mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    Config.Dispatch = Mode;
    std::string Tag =
        What + (Mode == DispatchMode::Switch ? " [switch]" : " [threaded]");

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Tag);
    expectCountersReconcile(On, Tag);
    CacheHits += On.Stats.CacheHits;
  }
  return CacheHits;
}

TEST(HookFilterDifferentialTest, NamedProgramsAllConfigs) {
  uint64_t ProbeHits = 0;
  for (auto &[Name, P] : namedCorpus()) {
    for (uint64_t Seed : {1u, 13u}) {
      for (uint32_t Shards : {0u, 3u}) {
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        ProbeHits += runBothFilters(
            P, Full,
            Name + " full seed=" + std::to_string(Seed) +
                " shards=" + std::to_string(Shards));
      }
      // NoStatic: instrument every access and keep the in-loop traces, so
      // redundant accesses actually recur at runtime — this is where the
      // inline probe earns its keep (the full config statically removes
      // most provably-redundant traces before the runtime ever sees them).
      ToolConfig NoStatic = ToolConfig::noStatic();
      NoStatic.StaticWeakerThan = false;
      NoStatic.LoopPeeling = false;
      NoStatic.Seed = Seed;
      ProbeHits += runBothFilters(
          P, NoStatic, Name + " nostatic seed=" + std::to_string(Seed));

      // NoCache: nothing to hoist, so the run degenerates to
      // devirtualized delivery only.
      ToolConfig NoCache = ToolConfig::noCache();
      NoCache.Seed = Seed;
      runBothFilters(P, NoCache,
                     Name + " nocache seed=" + std::to_string(Seed));
    }
  }
  EXPECT_GT(ProbeHits, 0u)
      << "the corpus never hit the inline probe; the fast path went "
         "untested";
}

TEST(HookFilterDifferentialTest, MultiSinkConfigsDisableDevirtButAgree) {
  // With the deadlock detector attached the detection runtime is no longer
  // the sole sink, so the pipeline must fall back to (lazy) fanout
  // delivery — and results still match the virtual-lane reference.
  for (auto &[Name, P] : namedCorpus()) {
    ToolConfig Config = ToolConfig::full();
    Config.Seed = 7;
    Config.DetectDeadlocks = true;

    Config.HookFilter = false;
    PipelineResult Ref = runPipeline(P, Config);
    Config.HookFilter = true;
    PipelineResult On = runPipeline(P, Config);
    expectSameRun(Ref, On, Name + " deadlocks");
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
// Quantum edges: the hoisted probe must never change a schedule
//===----------------------------------------------------------------------===

TEST(HookFilterDifferentialTest, QuantumEdgesStayIdentical) {
  // MaxQuantum=1 and 2 maximize quantum boundaries: the interpreter
  // re-hoists the running thread's caches after nearly every step, and
  // fused access+trace pairs split across slices, so any drift between
  // the inline probe and the virtual lane would surface here.
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
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Record/replay interop
//===----------------------------------------------------------------------===

TEST(HookFilterDifferentialTest, RecordedTracesKeepEveryEvent) {
  // The inline probe applies to detector delivery, never to `--record`:
  // with a trace recorder attached the runtime is not the sole sink, so
  // every event travels the fanout path and the recorded bytes are
  // identical with the fast path on and off.
  for (auto &[Name, P] : namedCorpus()) {
    TempPath OnPath("hookfilter-on-" + Name);
    TempPath OffPath("hookfilter-off-" + Name);

    ToolConfig Rec = ToolConfig::full();
    Rec.Seed = 21;
    Rec.HookFilter = true;
    Rec.RecordTracePath = OnPath.str();
    PipelineResult On = runPipeline(P, Rec);
    ASSERT_TRUE(On.Run.Ok && On.Trace.Ok) << On.Run.Error << On.Trace.Error;

    Rec.HookFilter = false;
    Rec.RecordTracePath = OffPath.str();
    PipelineResult Off = runPipeline(P, Rec);
    ASSERT_TRUE(Off.Run.Ok && Off.Trace.Ok);

    EXPECT_EQ(On.TraceRecords, Off.TraceRecords);
    EXPECT_EQ(slurp(OnPath), slurp(OffPath))
        << Name << ": recorded traces differ with the fast path on vs off";

    // Replaying the fast-path recording re-detects identically with the
    // fast path on and off, serial and sharded (replay delivers events
    // over the virtual path).
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

TEST(HookFilterDifferentialTest, LiveReplayAndFilterOffCountersAgree) {
  // The inline probe is the cache's own lookup, so a live run counts what
  // its virtual-lane twin, its recorded twin and the replay of that
  // recording count, each seeing exactly the run's access events.
  // Recording leaves the schedule alone, so all four see one stream.
  std::vector<std::pair<std::string, Program>> Programs = namedCorpus();
  for (Workload &W : buildAllWorkloads())
    Programs.emplace_back(W.Name, std::move(W.P));
  uint64_t ProbeHits = 0;
  for (auto &[Name, P] : Programs) {
    for (uint32_t Shards : {0u, 2u}) {
      std::string Tag = Name + " shards=" + std::to_string(Shards);
      SCOPED_TRACE(Tag);
      TempPath Trace("counters-" + Name);
      ToolConfig Config = ToolConfig::full();
      Config.Shards = Shards;
      PipelineResult Live = runPipeline(P, Config);
      Config.HookFilter = false;
      PipelineResult Off = runPipeline(P, Config);
      Config.HookFilter = true;
      Config.RecordTracePath = Trace.str();
      PipelineResult Recorded = runPipeline(P, Config);
      Config.RecordTracePath.clear();
      PipelineResult Replay = replayTracePipeline(P, Config, Trace.str());
      ASSERT_TRUE(Live.Run.Ok && Off.Run.Ok && Recorded.Trace.Ok &&
                  Replay.Trace.Ok)
          << Live.Run.Error << Off.Run.Error << Replay.Trace.Error;
      for (const PipelineResult *R : {&Live, &Off, &Recorded, &Replay}) {
        expectCountersReconcile(*R, Tag);
        EXPECT_EQ(R->Stats.EventsSeen, Live.Stats.EventsSeen);
        EXPECT_EQ(R->Stats.CacheHits, Live.Stats.CacheHits);
        EXPECT_EQ(R->Stats.CacheMisses, Live.Stats.CacheMisses);
        EXPECT_EQ(R->Stats.Detector.EventsIn, Live.Stats.Detector.EventsIn);
      }
      ProbeHits += Live.Stats.CacheHits;
    }
  }
  EXPECT_GT(ProbeHits, 0u) << "no live run ever hit the inline probe";
}

} // namespace
