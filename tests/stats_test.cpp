//===- tests/stats_test.cpp - DetectorStats observability tests -----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact-value tests for the observability layer: every DetectorStats
/// counter on a hand-written event trace, the serial-equals-sharded
/// aggregation invariant across shard counts, the consistency of the
/// per-shard breakdown surfaced by `herd --stats`, the metrics registry
/// (support/Metrics.h) and interpreter profiler, golden-file tests for the
/// Chrome trace JSON and `--stats=json` serializations under a virtual
/// clock, and the reports-are-byte-identical guarantee with observability
/// on vs off.
///
/// Golden files live in tests/golden/; regenerate with
/// `HERD_UPDATE_GOLDEN=1 ./stats_test` after an intentional format change.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "RaceRecords.h"
#include "TestPrograms.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "herd/Pipeline.h"
#include "herd/StatsJson.h"
#include "runtime/InterpProfiler.h"
#include "support/Metrics.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace herd;
using testprogs::canonicalRecords;

namespace {

constexpr AccessKind WR = AccessKind::Write;

/// The hand-written trace all exact-value tests share.  Location L, no
/// locks held anywhere:
///
///   1. T1 writes L   — cache miss; detector sees it; T1 owns L, filtered.
///   2. T1 writes L   — cache hit; never reaches the detector.
///   3. T2 writes L   — cache miss; L goes shared, which evicts T1's
///                      cached entry (the Section 7.2 fix); the event
///                      enters the trie (root node, no race yet).
///   4. T1 writes L   — cache miss again (step 3 evicted it); conflicts
///                      with T2's write, disjoint (empty) locksets: race.
template <typename Hooks> void playTrace(Hooks &H) {
  const LocationKey L = LocationKey::forField(ObjectId(5), FieldId(0));
  const ThreadId T1(1), T2(2);
  H.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  H.onThreadCreate(T1, ThreadId(0), ObjectId(1));
  H.onThreadCreate(T2, ThreadId(0), ObjectId(2));
  H.onAccess(T1, L, WR, SiteId());
  H.onAccess(T1, L, WR, SiteId());
  H.onAccess(T2, L, WR, SiteId());
  H.onAccess(T1, L, WR, SiteId());
}

void expectTraceStats(const RaceRuntimeStats &S) {
  EXPECT_EQ(S.EventsSeen, 4u);
  EXPECT_EQ(S.CacheHits, 1u);
  EXPECT_EQ(S.CacheMisses, 3u);
  EXPECT_EQ(S.CacheEvictions, 1u);
  EXPECT_EQ(S.Detector.EventsIn, 3u);
  EXPECT_EQ(S.Detector.OwnedFiltered, 1u);
  EXPECT_EQ(S.Detector.WeakerFiltered, 0u);
  EXPECT_EQ(S.Detector.RacesReported, 1u);
  EXPECT_EQ(S.Detector.LocationsTracked, 1u);
  EXPECT_EQ(S.Detector.LocationsShared, 1u);
  // No program locks are held, but each thread carries its own dummy join
  // lock S_j (Section 2.3), so the trie is a root plus one node per
  // thread's singleton lockset {S_1} and {S_2}.
  EXPECT_EQ(S.Detector.TrieNodes, 3u);
}

void expectEqualStats(const RaceRuntimeStats &A, const RaceRuntimeStats &B) {
  EXPECT_EQ(A.EventsSeen, B.EventsSeen);
  EXPECT_EQ(A.CacheHits, B.CacheHits);
  EXPECT_EQ(A.CacheMisses, B.CacheMisses);
  EXPECT_EQ(A.CacheEvictions, B.CacheEvictions);
  EXPECT_EQ(A.Detector.EventsIn, B.Detector.EventsIn);
  EXPECT_EQ(A.Detector.OwnedFiltered, B.Detector.OwnedFiltered);
  EXPECT_EQ(A.Detector.WeakerFiltered, B.Detector.WeakerFiltered);
  EXPECT_EQ(A.Detector.RacesReported, B.Detector.RacesReported);
  EXPECT_EQ(A.Detector.LocationsTracked, B.Detector.LocationsTracked);
  EXPECT_EQ(A.Detector.LocationsShared, B.Detector.LocationsShared);
  EXPECT_EQ(A.Detector.TrieNodes, B.Detector.TrieNodes);
}

TEST(StatsTest, SerialCountersExactOnHandWrittenTrace) {
  RaceRuntime RT;
  playTrace(RT);
  expectTraceStats(RT.stats());
  EXPECT_EQ(RT.reporter().size(), 1u);
}

TEST(StatsTest, ShardedCountersExactAndEqualToSerial) {
  RaceRuntime Serial;
  playTrace(Serial);
  for (uint32_t Shards : {1u, 2u, 4u}) {
    ShardedRuntimeOptions Opts;
    Opts.NumShards = Shards;
    ShardedRuntime RT(Opts);
    playTrace(RT);
    RT.finish();
    expectTraceStats(RT.stats());
    expectEqualStats(Serial.stats(), RT.stats());

    // Ingest accounting: exactly the post-cache, post-ownership events
    // reach the shards (steps 3 and 4), all on the one shard L hashes to.
    std::vector<ShardStats> Breakdown = RT.shardStats();
    ASSERT_EQ(Breakdown.size(), size_t(Shards));
    uint64_t Ingested = 0, Batches = 0;
    for (const ShardStats &S : Breakdown) {
      Ingested += S.EventsIngested;
      Batches += S.BatchesIngested;
    }
    EXPECT_EQ(Ingested, 2u);
    EXPECT_GE(Batches, 1u);
  }
}

TEST(StatsTest, CountersMonotonicAsTraceGrows) {
  RaceRuntime RT;
  const LocationKey L = LocationKey::forField(ObjectId(5), FieldId(0));
  RT.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  RT.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(2));
  RaceRuntimeStats Prev = RT.stats();
  for (int I = 0; I != 20; ++I) {
    RT.onAccess(ThreadId(1 + uint32_t(I % 2)), L, WR, SiteId());
    RaceRuntimeStats Now = RT.stats();
    EXPECT_GE(Now.EventsSeen, Prev.EventsSeen);
    EXPECT_GE(Now.CacheHits, Prev.CacheHits);
    EXPECT_GE(Now.CacheMisses, Prev.CacheMisses);
    EXPECT_GE(Now.Detector.EventsIn, Prev.Detector.EventsIn);
    EXPECT_GE(Now.Detector.RacesReported, Prev.Detector.RacesReported);
    EXPECT_GE(Now.Detector.LocationsTracked, Prev.Detector.LocationsTracked);
    Prev = Now;
  }
  EXPECT_EQ(Prev.EventsSeen, 20u);
}

/// expectEqualStats plus everything else both runtimes count the same way:
/// the per-thread caches.
void expectSameFrontEndStats(const RaceRuntimeStats &A,
                             const RaceRuntimeStats &B) {
  expectEqualStats(A, B);
  ASSERT_EQ(A.PerThreadCache.size(), B.PerThreadCache.size());
  for (size_t I = 0; I != A.PerThreadCache.size(); ++I) {
    const ThreadCacheStats &X = A.PerThreadCache[I], &Y = B.PerThreadCache[I];
    EXPECT_EQ(X.Thread, Y.Thread);
    EXPECT_EQ(X.ReadHits, Y.ReadHits);
    EXPECT_EQ(X.ReadMisses, Y.ReadMisses);
    EXPECT_EQ(X.WriteHits, Y.WriteHits);
    EXPECT_EQ(X.WriteMisses, Y.WriteMisses);
  }
}

/// The per-shard breakdown must be consistent with the aggregate.
void expectBreakdownAddsUp(const PipelineResult &R, uint32_t Shards) {
  ASSERT_EQ(R.ShardBreakdown.size(), size_t(Shards));
  uint64_t Ingested = 0, Races = 0;
  size_t TrieNodes = 0;
  for (const ShardStats &S : R.ShardBreakdown) {
    Ingested += S.EventsIngested;
    Races += S.Detector.RacesReported;
    TrieNodes += S.Detector.TrieNodes;
  }
  EXPECT_EQ(Ingested,
            R.Stats.Detector.EventsIn - R.Stats.Detector.OwnedFiltered);
  EXPECT_EQ(Races, R.Stats.Detector.RacesReported);
  EXPECT_EQ(TrieNodes, R.Stats.Detector.TrieNodes);
  EXPECT_EQ(Races, R.Reports.size());
}

TEST(StatsTest, PipelineStatsAgreeAcrossShardCounts) {
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  ToolConfig SerialCfg = ToolConfig::full();
  SerialCfg.Seed = 5;
  PipelineResult Serial = runPipeline(P, SerialCfg);
  ASSERT_TRUE(Serial.Run.Ok) << Serial.Run.Error;
  EXPECT_TRUE(Serial.ShardBreakdown.empty());

  for (uint32_t Shards : {1u, 2u, 4u, 8u}) {
    ToolConfig Cfg = SerialCfg;
    Cfg.Shards = Shards;
    PipelineResult R = runPipeline(P, Cfg);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    expectSameFrontEndStats(Serial.Stats, R.Stats);
    EXPECT_EQ(Serial.Reports.size(), R.Reports.size());
    expectBreakdownAddsUp(R, Shards);
  }

  // Every runtime-knob combination, with and without the static phase, on
  // programs that exercise locks, joins, loops and field merging: the
  // serial and sharded runtimes share one per-thread front end, so every
  // front-end counter and the race-record set must agree exactly.
  std::vector<std::pair<std::string, Program>> Programs;
  Programs.emplace_back("figure2", testprogs::buildFigure2(/*SamePQ=*/false));
  Programs.emplace_back("counter", std::move(P));
  Programs.emplace_back("fig3-loop", testprogs::buildFig3Loop(40));
  for (uint64_t Seed : {2u, 5u, 11u})
    Programs.emplace_back("fuzz" + std::to_string(Seed),
                          fuzzprogs::generateProgram(Seed));
  for (const auto &[Name, Prog] : Programs) {
    for (bool NoStatic : {false, true}) {
      for (unsigned Knobs = 0; Knobs != 32; ++Knobs) {
        ToolConfig Cfg = NoStatic ? ToolConfig::noStatic() : ToolConfig::full();
        Cfg.Seed = 5;
        Cfg.UseCache = Knobs & 1;
        Cfg.UseOwnership = Knobs & 2;
        Cfg.FieldsMerged = Knobs & 4;
        Cfg.ModelJoin = Knobs & 8;
        Cfg.HookFilter = Knobs & 16;
        SCOPED_TRACE(Name + (NoStatic ? " nostatic" : " full") + " knobs " +
                     std::to_string(Knobs));
        PipelineResult S = runPipeline(Prog, Cfg);
        Cfg.Shards = 3;
        PipelineResult R = runPipeline(Prog, Cfg);
        ASSERT_TRUE(S.Run.Ok && R.Run.Ok) << S.Run.Error << R.Run.Error;
        EXPECT_EQ(canonicalRecords(S.Reports), canonicalRecords(R.Reports));
        expectSameFrontEndStats(S.Stats, R.Stats);
        expectBreakdownAddsUp(R, 3);
      }
    }
  }
}

TEST(StatsTest, QueueDepthHighWaterMarkIsBounded) {
  // Tiny batches, no producer-side filtering, and a deep trace: batches
  // must actually flow, and the queue high-water mark must never exceed
  // the configured backpressure bound.
  ShardedRuntimeOptions Opts;
  Opts.NumShards = 2;
  Opts.BatchCapacity = 4;
  Opts.QueueDepthBatches = 3;
  Opts.UseCache = false;
  Opts.UseOwnership = false;
  ShardedRuntime RT(Opts);
  RT.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  RT.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  RT.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(2));
  for (int I = 0; I != 400; ++I)
    RT.onAccess(ThreadId(1 + uint32_t(I % 2)),
                LocationKey::forField(ObjectId(uint32_t(I % 16)), FieldId(0)),
                WR, SiteId());
  RT.finish();
  uint64_t Batches = 0;
  for (const ShardStats &S : RT.shardStats()) {
    EXPECT_LE(S.MaxQueueDepthBatches, Opts.QueueDepthBatches);
    Batches += S.BatchesIngested;
  }
  EXPECT_GT(Batches, 0u);
}

//===----------------------------------------------------------------------===
// Metrics registry: exact values
//===----------------------------------------------------------------------===

TEST(MetricsTest, CounterExactValues) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("events");
  EXPECT_EQ(C.value(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  // Same name -> same counter; new name -> fresh counter.
  Reg.counter("events").add(8);
  EXPECT_EQ(C.value(), 50u);
  EXPECT_EQ(Reg.counter("other").value(), 0u);
}

TEST(MetricsTest, SnapshotsAreNameSorted) {
  MetricsRegistry Reg;
  Reg.counter("zebra").add(1);
  Reg.counter("alpha").add(2);
  auto Counters = Reg.counterValues();
  ASSERT_EQ(Counters.size(), 2u);
  EXPECT_EQ(Counters[0].first, "alpha");
  EXPECT_EQ(Counters[0].second, 2u);
  EXPECT_EQ(Counters[1].first, "zebra");
}

TEST(MetricsTest, SpanRecordsVirtualTime) {
  VirtualClock Clock(/*TickNanos=*/7);
  MetricsRegistry Reg(&Clock);
  {
    Span S(&Reg, "phase-a", "phase");
    // ctor read 0 (now 7); dtor reads 7 (now 14).
  }
  {
    Span S(&Reg, "phase-b", "analysis", /*Tid=*/3);
    S.end();
    S.end(); // idempotent: must not record a second event
  }
  auto Events = Reg.traceEvents();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Name, "phase-a");
  EXPECT_EQ(Events[0].Phase, 'X');
  EXPECT_EQ(Events[0].StartNanos, 0u);
  EXPECT_EQ(Events[0].DurNanos, 7u);
  EXPECT_EQ(Events[0].Tid, 0u);
  EXPECT_EQ(Events[1].Name, "phase-b");
  EXPECT_EQ(Events[1].Category, "analysis");
  EXPECT_EQ(Events[1].Tid, 3u);
  EXPECT_EQ(Events[1].StartNanos, 14u);
}

TEST(MetricsTest, NullRegistrySpanIsANoOp) {
  Span S(nullptr, "nothing");
  S.end(); // must not dereference anything
}

TEST(MetricsTest, CounterSamplesAndThreadNames) {
  VirtualClock Clock(/*TickNanos=*/10);
  MetricsRegistry Reg(&Clock);
  Reg.nameThread(1, "shard 0");
  Reg.recordCounterSample("queue_depth", 1, 2);
  Reg.recordCounterSample("queue_depth", 1, 5);
  auto Events = Reg.traceEvents();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Phase, 'M');
  EXPECT_EQ(Events[0].Name, "shard 0");
  EXPECT_EQ(Events[1].Phase, 'C');
  EXPECT_EQ(Events[1].Value, 2);
  EXPECT_EQ(Events[1].StartNanos, 0u);
  EXPECT_EQ(Events[2].Value, 5);
  EXPECT_EQ(Events[2].StartNanos, 10u);
}

//===----------------------------------------------------------------------===
// Interpreter profiler
//===----------------------------------------------------------------------===

TEST(ProfilerTest, DispatchCountsExactAndSamplingCadence) {
  VirtualClock Clock;
  InterpProfiler Prof(&Clock, /*SampleEvery=*/4);
  int Sampled = 0;
  for (int I = 0; I != 10; ++I)
    if (Prof.onDispatch(Opcode::GetField))
      ++Sampled;
  EXPECT_EQ(Sampled, 2); // dispatches 4 and 8
  EXPECT_EQ(Prof.totalDispatches(), 10u);
  EXPECT_EQ(Prof.counts(Opcode::GetField).Dispatches, 10u);
  Prof.onDispatch(Opcode::Trace);
  EXPECT_EQ(Prof.instrumentedDispatches(), 1u);
}

TEST(ProfilerTest, SampleAttributionSplitsHookTime) {
  VirtualClock Clock;
  InterpProfiler Prof(&Clock, /*SampleEvery=*/1); // sample everything
  ASSERT_TRUE(Prof.onDispatch(Opcode::PutField));
  Prof.beginSample();
  EXPECT_TRUE(Prof.samplingActive());
  Prof.addHookNanos(30);
  Prof.endSample(Opcode::PutField, /*StepNanos=*/100);
  EXPECT_FALSE(Prof.samplingActive());
  const InterpProfiler::OpcodeCounts &C = Prof.counts(Opcode::PutField);
  EXPECT_EQ(C.Samples, 1u);
  EXPECT_EQ(C.StepNanos, 100u);
  EXPECT_EQ(C.HookNanos, 30u);
  EXPECT_EQ(Prof.totalSampledNanos(), 100u);
  EXPECT_EQ(Prof.totalHookNanos(), 30u);
}

TEST(ProfilerTest, RankedRowsOrderBySampledTime) {
  VirtualClock Clock;
  InterpProfiler Prof(&Clock, /*SampleEvery=*/1);
  auto Feed = [&](Opcode Op, uint64_t Nanos) {
    Prof.onDispatch(Op);
    Prof.beginSample();
    Prof.endSample(Op, Nanos);
  };
  Feed(Opcode::GetField, 10);
  Feed(Opcode::PutField, 200);
  Feed(Opcode::Call, 50);
  auto Rows = Prof.rankedRows();
  ASSERT_EQ(Rows.size(), 3u);
  EXPECT_EQ(Rows[0].Op, Opcode::PutField);
  EXPECT_EQ(Rows[1].Op, Opcode::Call);
  EXPECT_EQ(Rows[2].Op, Opcode::GetField);
  EXPECT_EQ(Rows[0].EstimatedNanos, 200u); // SampleEvery=1: estimate == raw
  std::string Table = renderProfileTable(Prof);
  EXPECT_NE(Table.find("putfield"), std::string::npos);
  EXPECT_NE(Table.find("getfield"), std::string::npos);
}

//===----------------------------------------------------------------------===
// Golden files: trace JSON and stats JSON under a virtual clock
//===----------------------------------------------------------------------===

/// Compares \p Actual against tests/golden/<name>; HERD_UPDATE_GOLDEN=1
/// rewrites the file instead (then check the diff in).
void expectMatchesGolden(const std::string &Name, const std::string &Actual) {
  std::string Path = std::string(HERD_GOLDEN_DIR) + "/" + Name;
  if (std::getenv("HERD_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Actual;
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    return;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with HERD_UPDATE_GOLDEN=1 to create)";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Actual)
      << "golden mismatch for " << Path
      << "; regenerate with HERD_UPDATE_GOLDEN=1 if intentional";
}

TEST(GoldenTest, ChromeTraceJson) {
  VirtualClock Clock(/*TickNanos=*/500);
  MetricsRegistry Reg(&Clock);
  Reg.nameThread(1, "shard 0");
  {
    Span Parse(&Reg, "parse", "frontend");
    Span Inner(&Reg, "lex", "frontend");
  }
  {
    Span Batch(&Reg, "batch", "shard", /*Tid=*/1);
  }
  Reg.recordCounterSample("shard0.queue_depth", 1, 3);
  Reg.counter("run.instructions").add(1234);
  expectMatchesGolden("trace_timeline.json", renderChromeTraceJson(Reg));
}

TEST(GoldenTest, StatsJsonDocument) {
  // A hand-built PipelineResult with every section populated, so the
  // golden pins the envelope, the key order and the number formats
  // without depending on wall-clock timings.
  PipelineResult R;
  R.Run.Ok = true;
  R.Run.InstructionsExecuted = 1000;
  R.Run.AccessEvents = 64;
  R.Run.ContextSwitches = 12;
  R.Run.ThreadsCreated = 3;
  R.Run.Output = {7, -2};
  R.AnalysisSeconds = 0.125;
  R.ExecSeconds = 0.5;
  R.Static.ReachableAccessStatements = 20;
  R.Static.ThreadLocalFiltered = 4;
  R.Static.SameThreadFiltered = 3;
  R.Static.CommonSyncFiltered = 2;
  R.Static.RaceSetSize = 11;
  R.Static.MayRacePairs = 9;
  R.Instr.TracesInserted = 11;
  R.Instr.TracesRemoved = 1;
  R.Instr.LoopsPeeled = 2;
  R.Stats.EventsSeen = 64;
  R.Stats.CacheHits = 40;
  R.Stats.CacheMisses = 24;
  R.Stats.Detector.EventsIn = 24;
  R.Stats.Detector.RacesReported = 1;
  R.Stats.Detector.LocationsTracked = 5;
  R.Stats.Detector.LocationsShared = 2;
  R.Stats.Detector.TrieNodes = 7;
  ThreadCacheStats TC;
  TC.Thread = 1;
  TC.ReadHits = 10;
  TC.ReadMisses = 2;
  TC.WriteHits = 30;
  TC.WriteMisses = 22;
  R.Stats.PerThreadCache.push_back(TC);
  ShardStats Shard;
  Shard.EventsIngested = 24;
  Shard.BatchesIngested = 2;
  Shard.MaxQueueDepthBatches = 1;
  Shard.Detector.EventsIn = 24;
  Shard.Detector.RacesReported = 1;
  R.ShardBreakdown.push_back(Shard);
  R.FormattedRaces.push_back("race on \"quoted\" field");
  R.Trace.Ok = true;
  R.Dispatch = DispatchMode::Threaded;
  R.Fusion.ConstBinOpSites = 3;
  R.Fusion.ConstPutFieldSites = 1;
  R.Fusion.GetBinPutSites = 2;
  R.Fusion.BinOpBranchSites = 4;
  R.Fusion.GetFieldBinOpSites = 2;
  R.Fusion.BinOpPutFieldSites = 1;
  R.Fusion.BinOpMoveSites = 1;
  R.Fusion.AccessTraceSites = 5;
  R.Fusion.BatchBlocks = 6;
  R.Fusion.BatchSteps = 21;
  R.Run.Fused.ConstBinOp = 30;
  R.Run.Fused.ConstPutField = 5;
  R.Run.Fused.GetBinPut = 12;
  R.Run.Fused.BinOpBranch = 40;
  R.Run.Fused.GetFieldBinOp = 8;
  R.Run.Fused.BinOpPutField = 3;
  R.Run.Fused.BinOpMove = 2;
  R.Run.Fused.AccessTrace = 17;
  R.Run.BlockRetireHits = 9;
  R.Run.BlockRetiredSteps = 27;

  VirtualClock Clock(/*TickNanos=*/100);
  MetricsRegistry Reg(&Clock);
  Reg.counter("run.instructions").add(1000);

  InterpProfiler Prof(&Clock, /*SampleEvery=*/4);
  for (int I = 0; I != 8; ++I)
    if (Prof.onDispatch(Opcode::PutField)) {
      Prof.beginSample();
      Prof.addHookNanos(25);
      Prof.endSample(Opcode::PutField, 75);
    }
  Prof.onDispatch(Opcode::Trace);

  expectMatchesGolden("stats_document.json",
                      renderStatsJson(R, &Reg, &Prof));
}

TEST(GoldenTest, StatsJsonSchemaEnvelopeIsStable) {
  // The schema pair is a compatibility contract with
  // scripts/check_schema.py — bumping it is an intentional act.
  EXPECT_STREQ(StatsSchemaName, "herd-stats");
  EXPECT_EQ(StatsSchemaVersion, 3);
  PipelineResult Empty;
  std::string Doc = renderStatsJson(Empty);
  EXPECT_EQ(Doc.find("{\"schema\":\"herd-stats\",\"version\":3,"), 0u);
  EXPECT_EQ(Doc.back(), '\n');
}

//===----------------------------------------------------------------------===
// Observability must not change results
//===----------------------------------------------------------------------===

TEST(ObservabilityTest, ReportsByteIdenticalOnVsOff) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  for (uint32_t Shards : {0u, 3u}) {
    SCOPED_TRACE(std::to_string(Shards) + " shards");
    ToolConfig Off = ToolConfig::full();
    Off.Seed = 11;
    Off.Shards = Shards;
    PipelineResult ROff = runPipeline(P, Off);
    ASSERT_TRUE(ROff.Run.Ok) << ROff.Run.Error;

    MetricsRegistry Reg;
    InterpProfiler Prof;
    ToolConfig On = Off;
    On.Metrics = &Reg;
    On.Profiler = &Prof;
    PipelineResult ROn = runPipeline(P, On);
    ASSERT_TRUE(ROn.Run.Ok) << ROn.Run.Error;

    EXPECT_EQ(ROff.FormattedRaces, ROn.FormattedRaces);
    EXPECT_EQ(ROff.FormattedDeadlocks, ROn.FormattedDeadlocks);
    EXPECT_EQ(ROff.Run.Output, ROn.Run.Output);
    EXPECT_EQ(ROff.Run.InstructionsExecuted, ROn.Run.InstructionsExecuted);
    EXPECT_EQ(ROff.Run.ContextSwitches, ROn.Run.ContextSwitches);
    expectEqualStats(ROff.Stats, ROn.Stats);

    // And the observability run actually observed something.
    EXPECT_EQ(Prof.totalDispatches(), ROn.Run.InstructionsExecuted);
    EXPECT_FALSE(Reg.traceEvents().empty());
    EXPECT_EQ(Reg.counter("run.instructions").value(),
              ROn.Run.InstructionsExecuted);
    if (Shards != 0) {
      // Per-shard rows: a batch span on some shard tid >= 1.
      bool SawShardSpan = false;
      for (const TraceEvent &E : Reg.traceEvents())
        if (E.Phase == 'X' && E.Tid >= 1 && E.Name == "batch")
          SawShardSpan = true;
      EXPECT_TRUE(SawShardSpan);
    }
  }
}

TEST(ObservabilityTest, PipelinePhaseSpansAllPresent) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  MetricsRegistry Reg;
  ToolConfig Config = ToolConfig::full();
  Config.Metrics = &Reg;
  // The "fuse" span is a threaded-dispatch phase; pin the mode so this
  // holds in builds that default to switch dispatch.
  Config.Dispatch = DispatchMode::Threaded;
  PipelineResult R = runPipeline(P, Config);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  std::set<std::string> Names;
  for (const TraceEvent &E : Reg.traceEvents())
    if (E.Phase == 'X')
      Names.insert(E.Name);
  for (const char *Phase :
       {"static-race", "points-to", "single-instance", "thread-analysis",
        "sync-analysis", "escape", "race-pairs", "plan", "instrument",
        "fuse", "execute", "detect-drain", "format-reports"})
    EXPECT_TRUE(Names.count(Phase)) << Phase;

  // A replay runs the same detection core after its own source span: on
  // the pipeline row, replay, detect-drain and format-reports follow one
  // another without overlapping, serial and sharded alike.
  TempPath Path("phase-spans");
  ToolConfig Record = ToolConfig::full();
  Record.RecordTracePath = Path.str();
  ASSERT_TRUE(runPipeline(P, Record).Trace.Ok);
  for (uint32_t Shards : {0u, 3u}) {
    SCOPED_TRACE(std::to_string(Shards) + " shards");
    MetricsRegistry ReplayReg;
    ToolConfig Replay = ToolConfig::full();
    Replay.Metrics = &ReplayReg;
    Replay.Shards = Shards;
    ASSERT_TRUE(replayTracePipeline(P, Replay, Path).Run.Ok);
    std::vector<TraceEvent> Row;
    for (const TraceEvent &E : ReplayReg.traceEvents())
      if (E.Phase == 'X' && E.Tid == 0)
        Row.push_back(E);
    std::sort(Row.begin(), Row.end(),
              [](const TraceEvent &A, const TraceEvent &B) {
                return A.StartNanos < B.StartNanos;
              });
    std::vector<std::string> Order;
    for (const TraceEvent &E : Row)
      Order.push_back(E.Name);
    EXPECT_EQ(Order, (std::vector<std::string>{"replay", "detect-drain",
                                               "format-reports"}));
    for (size_t I = 1; I < Row.size(); ++I)
      EXPECT_LE(Row[I - 1].StartNanos + Row[I - 1].DurNanos,
                Row[I].StartNanos)
          << Row[I - 1].Name << " overlaps " << Row[I].Name;
  }
}

TEST(ObservabilityTest, ReplayRunStatsMatchTheRecordedLiveRun) {
  // A replay knows from the trace how many accesses and thread creations
  // the live run had; sync records count as neither.  It records the same
  // run.* counters, with instructions and context switches 0 (nothing is
  // interpreted).
  struct Case {
    const char *Name;
    Program P;
  };
  Case Cases[] = {{"mtrt", buildMtrt().P},
                  {"figure2", testprogs::buildFigure2(/*SamePQ=*/false)}};
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    TempPath Path(std::string("stats-parity-") + C.Name);
    MetricsRegistry LiveReg;
    ToolConfig Live = ToolConfig::full();
    Live.Metrics = &LiveReg;
    Live.RecordTracePath = Path.str();
    PipelineResult L = runPipeline(C.P, Live);
    ASSERT_TRUE(L.Run.Ok && L.Trace.Ok) << L.Run.Error << L.Trace.Error;

    MetricsRegistry ReplayReg;
    ToolConfig Replay = ToolConfig::full();
    Replay.Metrics = &ReplayReg;
    PipelineResult R = replayTracePipeline(C.P, Replay, Path);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;

    EXPECT_GT(L.TraceRecords, L.Run.AccessEvents) << "sync records expected";
    EXPECT_EQ(R.Run.AccessEvents, L.Run.AccessEvents);
    EXPECT_EQ(R.Run.ThreadsCreated, L.Run.ThreadsCreated);
    EXPECT_GT(R.Run.ThreadsCreated, 1u);
    EXPECT_EQ(R.Run.InstructionsExecuted, 0u);
    EXPECT_EQ(R.Run.ContextSwitches, 0u);

    std::map<std::string, uint64_t> LiveRun, ReplayRun;
    for (const auto &[Name, Value] : LiveReg.counterValues())
      if (Name.rfind("run.", 0) == 0)
        LiveRun[Name] = Value;
    for (const auto &[Name, Value] : ReplayReg.counterValues())
      if (Name.rfind("run.", 0) == 0)
        ReplayRun[Name] = Value;
    ASSERT_EQ(ReplayRun.size(), 4u);
    ASSERT_EQ(LiveRun.size(), 4u);
    EXPECT_EQ(ReplayRun["run.access_events"], LiveRun["run.access_events"]);
    EXPECT_EQ(ReplayRun["run.races"], LiveRun["run.races"]);
    EXPECT_GT(ReplayRun["run.races"], 0u);
    EXPECT_EQ(ReplayRun["run.instructions"], 0u);
    EXPECT_EQ(ReplayRun["run.context_switches"], 0u);
  }
}

} // namespace
