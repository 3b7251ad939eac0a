//===- tests/dispatch_differential_test.cpp - Switch vs threaded ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence lockdown for the interpreter fast path
/// (docs/INTERPRETER.md): switch dispatch is the reference semantics, and
/// threaded dispatch — computed goto, superinstruction shadow code, the
/// compiled-out no-hook lane — must be observationally indistinguishable
/// from it.  Every program in the shared corpus (TestPrograms.h plus the
/// fuzz generator) runs under both modes and must produce byte-identical
/// race reports, output, instruction counts, context switches and runtime
/// event streams, with hooks on and off, serial and sharded, across
/// schedule seeds.  Record/replay must also interoperate: a schedule
/// recorded under one mode replays exactly under the other.
///
/// The access+trace family (an instrumented access fused with its Trace,
/// which probes the hoisted Section 4 cache inline) gets its own lockdown
/// at the end: fusion on, fusion off and switch dispatch on the five
/// replicas and per access kind, at quantum edges, serial and sharded,
/// with recording on (no cache hoisted) — schedules, reports, traces and
/// access-event counts must match.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "TestPrograms.h"
#include "herd/Pipeline.h"
#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace herd;
using fuzzprogs::generateProgram;
using testprogs::namedCorpus;
using testprogs::slurp;

namespace {

//===----------------------------------------------------------------------===
// Pipeline-level equivalence
//===----------------------------------------------------------------------===

/// Asserts that two pipeline results describe the same execution.  The
/// fused-execution counters are deliberately NOT compared: they describe
/// how the work was dispatched, not what the program did.
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
  EXPECT_EQ(Ref.Stats.EventsSeen, Got.Stats.EventsSeen);
  EXPECT_EQ(Ref.Stats.CacheHits, Got.Stats.CacheHits);
  EXPECT_EQ(Ref.Stats.CacheMisses, Got.Stats.CacheMisses);
  EXPECT_EQ(Ref.Stats.Detector.EventsIn, Got.Stats.Detector.EventsIn);
  EXPECT_EQ(Ref.Stats.Detector.RacesReported,
            Got.Stats.Detector.RacesReported);
  EXPECT_EQ(Ref.TraceRecords, Got.TraceRecords);
}

/// Runs \p P under switch and threaded dispatch with otherwise-identical
/// configs and asserts equivalence; also pins that fusion itself is
/// transparent (threaded with Superinstructions off matches too).  With
/// \p Record, each run also records a trace, and the three recordings
/// must be byte-identical.  Returns the threaded run with fusion on.
PipelineResult runBothModes(const Program &P, ToolConfig Config,
                            const std::string &What, bool Record = false) {
  TempPath RefTrace("dispatch-switch"), ThrTrace("dispatch-threaded"),
      NoFuseTrace("dispatch-nofuse");
  Config.Dispatch = DispatchMode::Switch;
  if (Record)
    Config.RecordTracePath = RefTrace.str();
  PipelineResult Ref = runPipeline(P, Config);

  Config.Dispatch = DispatchMode::Threaded;
  if (Record)
    Config.RecordTracePath = ThrTrace.str();
  PipelineResult Thr = runPipeline(P, Config);
  expectSameRun(Ref, Thr, What + " [threaded]");
  EXPECT_EQ(Thr.Dispatch, DispatchMode::Threaded);

  Config.Superinstructions = false;
  if (Record)
    Config.RecordTracePath = NoFuseTrace.str();
  PipelineResult NoFuse = runPipeline(P, Config);
  expectSameRun(Ref, NoFuse, What + " [threaded, no fusion]");
  EXPECT_EQ(NoFuse.Fusion.sites(), 0u);
  EXPECT_EQ(NoFuse.Run.Fused.total(), 0u);

  if (Record) {
    EXPECT_TRUE(Ref.Trace.Ok && Thr.Trace.Ok && NoFuse.Trace.Ok) << What;
    std::string RefBytes = slurp(RefTrace.str());
    EXPECT_FALSE(RefBytes.empty()) << What;
    EXPECT_EQ(RefBytes, slurp(ThrTrace.str())) << What << " [threaded]";
    EXPECT_EQ(RefBytes, slurp(NoFuseTrace.str()))
        << What << " [threaded, no fusion]";
  }
  // Each fused access+trace execution delivered one access event.
  EXPECT_LE(Thr.Run.Fused.AccessTrace, Thr.Run.AccessEvents) << What;
  return Thr;
}

TEST(DispatchDifferentialTest, NamedProgramsAllConfigs) {
  for (auto &[Name, P] : namedCorpus()) {
    for (uint64_t Seed : {1u, 13u}) {
      for (uint32_t Shards : {0u, 3u}) {
        // Full pipeline: Trace-instrumented hooks (the production path).
        ToolConfig Full = ToolConfig::full();
        Full.Seed = Seed;
        Full.Shards = Shards;
        runBothModes(P, Full,
                     Name + " full seed=" + std::to_string(Seed) +
                         " shards=" + std::to_string(Shards));
      }
      // Base: uninstrumented, so the no-hook lane carries every step.
      ToolConfig Base = ToolConfig::base();
      Base.Seed = Seed;
      runBothModes(P, Base, Name + " base seed=" + std::to_string(Seed));
    }
  }
}

class DispatchFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DispatchFuzzTest, GeneratedProgramsAgree) {
  Program P = generateProgram(GetParam());
  for (uint64_t Seed : {1u, 13u}) {
    ToolConfig Full = ToolConfig::full();
    Full.Seed = Seed;
    runBothModes(P, Full, "fuzz full seed=" + std::to_string(Seed));
  }
  ToolConfig Sharded = ToolConfig::full();
  Sharded.Seed = 7;
  Sharded.Shards = 3;
  runBothModes(P, Sharded, "fuzz sharded");
  ToolConfig Base = ToolConfig::base();
  Base.Seed = 7;
  runBothModes(P, Base, "fuzz base");
}

INSTANTIATE_TEST_SUITE_P(Programs, DispatchFuzzTest,
                         ::testing::Range<uint64_t>(1, 41));

//===----------------------------------------------------------------------===
// Raw-interpreter equivalence: the exact hook event stream
//===----------------------------------------------------------------------===

/// Serializes every RuntimeHooks callback into one line, so two runs can
/// be compared event-for-event (order included).
class EventLog : public RuntimeHooks {
public:
  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId Obj,
                      SiteId = SiteId::invalid()) override {
    add("create", Child.index(), Parent.isValid() ? Parent.index() : ~0u,
        Obj.isValid() ? Obj.index() : ~0u);
  }
  void onThreadExit(ThreadId Dying) override {
    add("exit", Dying.index(), 0, 0);
  }
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override {
    add("join", Joiner.index(), Joined.index(), 0);
  }
  void onMonitorEnter(ThreadId T, LockId L, bool Recursive,
                      SiteId = SiteId::invalid()) override {
    add("enter", T.index(), L.index(), Recursive);
  }
  void onMonitorExit(ThreadId T, LockId L, bool StillHeld) override {
    add("leave", T.index(), L.index(), StillHeld);
  }
  void onAccess(ThreadId T, LocationKey Loc, AccessKind Kind,
                SiteId Site) override {
    std::ostringstream S;
    S << "access t" << T.index() << " loc" << Loc.raw()
      << (Kind == AccessKind::Write ? " W" : " R") << " s"
      << (Site.isValid() ? int64_t(Site.index()) : -1);
    Lines.push_back(S.str());
  }
  void onRunEnd() override { Lines.push_back("end"); }

  const std::vector<std::string> &lines() const { return Lines; }

private:
  void add(const char *Kind, uint64_t A, uint64_t B, uint64_t C) {
    std::ostringstream S;
    S << Kind << ' ' << A << ' ' << B << ' ' << C;
    Lines.push_back(S.str());
  }
  std::vector<std::string> Lines;
};

struct RawRun {
  InterpResult R;
  std::vector<std::string> Events;
  std::string HeapDigest;
  ScheduleTrace Recorded;
};

/// Renders the final heap — every object's identity and slot values — as
/// text, so cross-mode runs can assert end-state equality.
std::string digestHeap(const Heap &H) {
  std::ostringstream S;
  for (uint32_t Id = 0; Id != H.size(); ++Id) {
    const HeapObject &O = H.object(ObjectId(Id));
    S << 'o' << Id << (O.IsArray ? " arr" : "") << ':';
    for (const Value &V : O.Slots) {
      if (V.isRef())
        S << " r" << (V.isNull() ? -1 : int64_t(V.asRef().index()));
      else
        S << ' ' << V.asInt();
    }
    S << '\n';
  }
  return S.str();
}

RawRun runRaw(const Program &P, DispatchMode Mode, uint64_t Seed,
              bool TraceEveryAccess, const ThreadedCode *Fused,
              const ScheduleTrace *Replay = nullptr,
              uint32_t MaxQuantum = 40) {
  RawRun Out;
  EventLog Log;
  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxQuantum = MaxQuantum;
  Opts.TraceEveryAccess = TraceEveryAccess;
  Opts.Dispatch = Mode;
  Opts.Fused = Mode == DispatchMode::Threaded ? Fused : nullptr;
  Opts.Record = Replay ? nullptr : &Out.Recorded;
  Opts.Replay = Replay;
  Interpreter Interp(P, &Log, Opts);
  Out.R = Interp.run();
  Out.Events = Log.lines();
  Out.HeapDigest = digestHeap(Interp.heap());
  return Out;
}

TEST(DispatchDifferentialTest, EventStreamsAndHeapsIdentical) {
  for (auto &[Name, Plain] : namedCorpus()) {
    // Instrumented variant: Trace instructions drive the hooks, and the
    // superinstruction pass must respect the instrumented-access
    // boundaries the instrumenter created.
    Program Instrumented = Plain;
    InstrumenterOptions IOpts;
    IOpts.UseStaticRaceSet = false;
    IOpts.StaticWeakerThan = false;
    IOpts.LoopPeeling = false;
    instrumentProgram(Instrumented, IOpts, nullptr);
    ASSERT_TRUE(verifyProgram(Instrumented).empty());

    struct Variant {
      const char *Label;
      const Program *P;
      bool EmitAll;
    } Variants[] = {
        {"no hooks", &Plain, false},
        {"trace-every-access", &Plain, true},
        {"instrumented", &Instrumented, false},
    };
    for (const Variant &V : Variants) {
      ThreadedCode TC = buildThreadedCode(*V.P);
      for (uint64_t Seed : {1u, 13u, 21u}) {
        SCOPED_TRACE(Name + " " + V.Label + " seed=" +
                     std::to_string(Seed));
        RawRun Ref = runRaw(*V.P, DispatchMode::Switch, Seed, V.EmitAll,
                            nullptr);
        RawRun Thr = runRaw(*V.P, DispatchMode::Threaded, Seed, V.EmitAll,
                            &TC);
        ASSERT_EQ(Ref.R.Ok, Thr.R.Ok) << Thr.R.Error;
        EXPECT_EQ(Ref.Events, Thr.Events);
        EXPECT_EQ(Ref.HeapDigest, Thr.HeapDigest);
        EXPECT_EQ(Ref.R.Output, Thr.R.Output);
        EXPECT_EQ(Ref.R.InstructionsExecuted, Thr.R.InstructionsExecuted);
        EXPECT_EQ(Ref.R.ContextSwitches, Thr.R.ContextSwitches);

        // The scheduler's decisions — slice by slice — must be identical:
        // this is what keeps seeds, recordings and reports portable
        // across dispatch modes.
        ASSERT_EQ(Ref.Recorded.Slices.size(), Thr.Recorded.Slices.size());
        for (size_t I = 0; I != Ref.Recorded.Slices.size(); ++I) {
          EXPECT_EQ(Ref.Recorded.Slices[I].ThreadIndex,
                    Thr.Recorded.Slices[I].ThreadIndex)
              << "slice " << I;
          EXPECT_EQ(Ref.Recorded.Slices[I].Steps,
                    Thr.Recorded.Slices[I].Steps)
              << "slice " << I;
        }
      }
    }
  }
}

TEST(DispatchDifferentialTest, RecordReplayInteroperates) {
  // A schedule recorded under one dispatch mode must replay exactly under
  // the other — in both directions.
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P);
    RawRun RecSwitch =
        runRaw(P, DispatchMode::Switch, 21, /*TraceEveryAccess=*/true,
               nullptr);
    RawRun RecThreaded =
        runRaw(P, DispatchMode::Threaded, 21, /*TraceEveryAccess=*/true,
               &TC);
    ASSERT_TRUE(RecSwitch.R.Ok) << RecSwitch.R.Error;

    RawRun ReplayThr =
        runRaw(P, DispatchMode::Threaded, 99, /*TraceEveryAccess=*/true,
               &TC, &RecSwitch.Recorded);
    RawRun ReplaySw =
        runRaw(P, DispatchMode::Switch, 99, /*TraceEveryAccess=*/true,
               nullptr, &RecThreaded.Recorded);
    SCOPED_TRACE(Name);
    ASSERT_TRUE(ReplayThr.R.Ok) << ReplayThr.R.Error;
    ASSERT_TRUE(ReplaySw.R.Ok) << ReplaySw.R.Error;
    EXPECT_EQ(RecSwitch.Events, ReplayThr.Events);
    EXPECT_EQ(RecSwitch.HeapDigest, ReplayThr.HeapDigest);
    EXPECT_EQ(RecSwitch.Events, ReplaySw.Events);
    EXPECT_EQ(RecSwitch.HeapDigest, ReplaySw.HeapDigest);
    EXPECT_EQ(RecSwitch.R.Output, ReplayThr.R.Output);
    EXPECT_EQ(RecSwitch.R.Output, ReplaySw.R.Output);
  }
}

/// Compares a switch run and a threaded run step-for-step: events, heap,
/// output, counts, and the recorded schedule slice by slice.
void expectRawEqual(const RawRun &Ref, const RawRun &Thr) {
  ASSERT_EQ(Ref.R.Ok, Thr.R.Ok) << Thr.R.Error;
  EXPECT_EQ(Ref.R.Error, Thr.R.Error);
  EXPECT_EQ(Ref.Events, Thr.Events);
  EXPECT_EQ(Ref.HeapDigest, Thr.HeapDigest);
  EXPECT_EQ(Ref.R.Output, Thr.R.Output);
  EXPECT_EQ(Ref.R.InstructionsExecuted, Thr.R.InstructionsExecuted);
  EXPECT_EQ(Ref.R.ContextSwitches, Thr.R.ContextSwitches);
  ASSERT_EQ(Ref.Recorded.Slices.size(), Thr.Recorded.Slices.size());
  for (size_t I = 0; I != Ref.Recorded.Slices.size(); ++I) {
    EXPECT_EQ(Ref.Recorded.Slices[I].ThreadIndex,
              Thr.Recorded.Slices[I].ThreadIndex)
        << "slice " << I;
    EXPECT_EQ(Ref.Recorded.Slices[I].Steps, Thr.Recorded.Slices[I].Steps)
        << "slice " << I;
  }
}

TEST(DispatchDifferentialTest, QuantumEdgesStayIdentical) {
  // MaxQuantum=1 and 2 are the nastiest cases for the fast path: every
  // superinstruction has more constituents than the remaining quantum, so
  // the threaded loop must take the fall-back-to-plain lane on virtually
  // every fused site, and block batches can almost never fit.  The
  // schedule, events and accounting must still match the per-step switch
  // interpreter byte for byte.
  uint64_t FusedSites = 0;
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P);
    FusedSites += TC.Stats.sites();
    for (uint32_t MaxQ : {1u, 2u}) {
      for (uint64_t Seed : {1u, 13u}) {
        SCOPED_TRACE(Name + " maxq=" + std::to_string(MaxQ) +
                     " seed=" + std::to_string(Seed));
        RawRun Ref = runRaw(P, DispatchMode::Switch, Seed,
                            /*TraceEveryAccess=*/true, nullptr, nullptr,
                            MaxQ);
        RawRun Thr = runRaw(P, DispatchMode::Threaded, Seed,
                            /*TraceEveryAccess=*/true, &TC, nullptr, MaxQ);
        expectRawEqual(Ref, Thr);
      }
    }
  }
  EXPECT_GT(FusedSites, 0u) << "corpus must exercise fused fall-back lanes";
}

TEST(DispatchDifferentialTest, ForcedBatchesStayIdentical) {
  // The default MinBatchLen leaves short blocks unbatched, so the batch
  // runtime path would go untested on small corpus programs.  Force it:
  // with MinBatchLen=2 every eligible prefix is planned, and the threaded
  // run must both take the batch path (hits > 0) and stay byte-identical
  // to switch dispatch — including at quantum edges where batches only
  // sometimes fit in the remaining quantum.
  SuperinstrOptions SOpts;
  SOpts.MinBatchLen = 2;
  bool SawBatches = false;
  for (auto &[Name, P] : namedCorpus()) {
    ThreadedCode TC = buildThreadedCode(P, SOpts);
    for (uint32_t MaxQ : {1u, 2u, 5u, 40u}) {
      for (uint64_t Seed : {1u, 13u}) {
        SCOPED_TRACE(Name + " maxq=" + std::to_string(MaxQ) +
                     " seed=" + std::to_string(Seed));
        RawRun Ref = runRaw(P, DispatchMode::Switch, Seed,
                            /*TraceEveryAccess=*/true, nullptr, nullptr,
                            MaxQ);
        RawRun Thr = runRaw(P, DispatchMode::Threaded, Seed,
                            /*TraceEveryAccess=*/true, &TC, nullptr, MaxQ);
        expectRawEqual(Ref, Thr);
        if (Thr.R.BlockRetireHits > 0) {
          SawBatches = true;
          EXPECT_GE(Thr.R.BlockRetiredSteps, Thr.R.BlockRetireHits);
        }
      }
    }
  }
  EXPECT_TRUE(SawBatches)
      << "no run ever entered a batch; the batch path went untested";
}

TEST(DispatchDifferentialTest, FusionActuallyFires) {
  // Guard against the differential suite silently passing because nothing
  // fused: the counter program's increment is the canonical
  // GetField;Const;BinOp;PutField sequence.
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_GT(TC.Stats.sites(), 0u);
  RawRun Thr = runRaw(P, DispatchMode::Threaded, 1,
                      /*TraceEveryAccess=*/false, &TC);
  ASSERT_TRUE(Thr.R.Ok) << Thr.R.Error;
  EXPECT_GT(Thr.R.Fused.total(), 0u);

  // And under switch dispatch the counters stay zero.
  RawRun Ref = runRaw(P, DispatchMode::Switch, 1,
                      /*TraceEveryAccess=*/false, &TC);
  EXPECT_EQ(Ref.R.Fused.total(), 0u);
}

//===----------------------------------------------------------------------===
// The access+trace family: fusion on vs off vs switch dispatch
//===----------------------------------------------------------------------===

/// The named corpus plus the five replicas, where instrumented accesses
/// recur and the inline cache probe actually hits.
std::vector<std::pair<std::string, Program>> replicaCorpus() {
  std::vector<std::pair<std::string, Program>> Out = namedCorpus();
  for (Workload &W : buildAllWorkloads())
    Out.emplace_back(W.Name, std::move(W.P));
  return Out;
}

/// Every access instrumented and every in-loop trace kept, so the same
/// instrumented access recurs and the inline probe hits it.
ToolConfig everyTraceKept() {
  ToolConfig Config = ToolConfig::noStatic();
  Config.StaticWeakerThan = false;
  Config.LoopPeeling = false;
  return Config;
}

TEST(AccessTraceFusionTest, ReplicasAgreeThreeWays) {
  // Fusion on, fusion off and switch dispatch, on the production config
  // and on the every-trace config, serial and with two shards, at the
  // quantum edges where a pair splits across slices (MaxQuantum 1 and 2)
  // and at the default quantum.
  uint64_t FusedExecs = 0, ProbeHits = 0;
  for (auto &[Name, P] : replicaCorpus()) {
    for (bool Full : {true, false}) {
      for (uint32_t MaxQ : {1u, 2u, 40u}) {
        for (uint32_t Shards : {0u, 2u}) {
          ToolConfig Config = Full ? ToolConfig::full() : everyTraceKept();
          Config.Seed = MaxQ == 40 ? 1 : 13;
          Config.MaxQuantum = MaxQ;
          Config.Shards = Shards;
          PipelineResult Thr = runBothModes(
              P, Config,
              Name + (Full ? " full" : " every-trace") +
                  " maxq=" + std::to_string(MaxQ) +
                  " shards=" + std::to_string(Shards));
          FusedExecs += Thr.Run.Fused.AccessTrace;
          ProbeHits += Thr.Stats.CacheHits;
        }
      }
    }
  }
  EXPECT_GT(FusedExecs, 0u) << "no access+trace pair ever ran fused";
  EXPECT_GT(ProbeHits, 0u) << "the inline cache probe never hit";
}

TEST(AccessTraceFusionTest, RecordingHoistsNoFilterAndAgrees) {
  // With a recorder attached the runtime is not the sole sink, so no
  // cache is hoisted and every fused Trace takes emitAccess; the
  // recorded traces must still match byte for byte, and the runtime
  // still sees every access.
  uint64_t FusedExecs = 0;
  for (auto &[Name, P] : replicaCorpus()) {
    for (uint32_t MaxQ : {2u, 40u}) {
      ToolConfig Config = ToolConfig::full();
      Config.Seed = 21;
      Config.MaxQuantum = MaxQ;
      PipelineResult Thr =
          runBothModes(P, Config,
                       Name + " record maxq=" + std::to_string(MaxQ),
                       /*Record=*/true);
      EXPECT_EQ(Thr.Stats.EventsSeen, Thr.Run.AccessEvents);
      FusedExecs += Thr.Run.Fused.AccessTrace;
    }
  }
  EXPECT_GT(FusedExecs, 0u);
}

TEST_P(DispatchFuzzTest, AccessTraceFusionAgreesAtQuantumEdges) {
  Program P = generateProgram(GetParam());
  for (uint32_t MaxQ : {1u, 2u}) {
    for (uint32_t Shards : {0u, 2u}) {
      ToolConfig Config = everyTraceKept();
      Config.Seed = 13;
      Config.MaxQuantum = MaxQ;
      Config.Shards = Shards;
      runBothModes(P, Config,
                   "fuzz maxq=" + std::to_string(MaxQ) +
                       " shards=" + std::to_string(Shards));
    }
  }
}

/// A raw run with the serial runtime as the devirtualized sink, the
/// configuration that hoists the caches: threaded dispatch over fused
/// shadow code then runs every fused Trace's probe inline.
struct SinkRun {
  InterpResult R;
  ScheduleTrace Schedule;
  RaceRuntimeStats Stats;
};

SinkRun runWithSink(const Program &P, DispatchMode Mode,
                    const ThreadedCode *Shadow, uint64_t Seed,
                    uint32_t MaxQuantum) {
  SinkRun Out;
  RaceRuntime Runtime;
  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxQuantum = MaxQuantum;
  Opts.Dispatch = Mode;
  Opts.Fused = Mode == DispatchMode::Threaded ? Shadow : nullptr;
  Opts.Record = &Out.Schedule;
  Opts.SerialSink = &Runtime;
  Interpreter Interp(P, &Runtime, Opts);
  Out.R = Interp.run();
  Out.Stats = Runtime.stats();
  return Out;
}

void expectSameSinkRun(const SinkRun &Ref, const SinkRun &Got,
                       const std::string &What) {
  SCOPED_TRACE(What);
  ASSERT_EQ(Ref.R.Ok, Got.R.Ok) << Got.R.Error;
  EXPECT_EQ(Ref.R.Error, Got.R.Error);
  EXPECT_EQ(Ref.R.Output, Got.R.Output);
  EXPECT_EQ(Ref.R.InstructionsExecuted, Got.R.InstructionsExecuted);
  EXPECT_EQ(Ref.R.AccessEvents, Got.R.AccessEvents);
  EXPECT_EQ(Ref.R.ContextSwitches, Got.R.ContextSwitches);
  EXPECT_EQ(Ref.Stats.EventsSeen, Got.Stats.EventsSeen);
  EXPECT_EQ(Ref.Stats.CacheHits, Got.Stats.CacheHits);
  EXPECT_EQ(Ref.Stats.Detector.EventsIn, Got.Stats.Detector.EventsIn);
  EXPECT_EQ(Ref.Stats.Detector.RacesReported,
            Got.Stats.Detector.RacesReported);
  ASSERT_EQ(Ref.Schedule.Slices.size(), Got.Schedule.Slices.size());
  for (size_t I = 0; I != Ref.Schedule.Slices.size(); ++I) {
    EXPECT_EQ(Ref.Schedule.Slices[I].ThreadIndex,
              Got.Schedule.Slices[I].ThreadIndex)
        << "slice " << I;
    EXPECT_EQ(Ref.Schedule.Slices[I].Steps, Got.Schedule.Slices[I].Steps)
        << "slice " << I;
  }
}

/// Runs an instrumented program three ways with the serial sink and
/// asserts identical schedules and counts; returns the fused run.
SinkRun expectSinkRunsAgree(const Program &Instrumented, uint64_t Seed,
                            uint32_t MaxQuantum, const std::string &What) {
  ThreadedCode Fused = buildThreadedCode(Instrumented);
  SuperinstrOptions NoFuseOpts;
  NoFuseOpts.Fuse = false;
  ThreadedCode Unfused = buildThreadedCode(Instrumented, NoFuseOpts);
  SinkRun Ref = runWithSink(Instrumented, DispatchMode::Switch, nullptr,
                            Seed, MaxQuantum);
  SinkRun Thr = runWithSink(Instrumented, DispatchMode::Threaded, &Fused,
                            Seed, MaxQuantum);
  SinkRun NoFuse = runWithSink(Instrumented, DispatchMode::Threaded,
                               &Unfused, Seed, MaxQuantum);
  expectSameSinkRun(Ref, Thr, What + " [threaded]");
  expectSameSinkRun(Ref, NoFuse, What + " [threaded, no fusion]");
  EXPECT_EQ(NoFuse.R.Fused.total(), 0u);
  EXPECT_LE(Thr.R.Fused.AccessTrace, Thr.R.AccessEvents);
  return Thr;
}

/// Instruments every access of a copy of \p P and keeps the in-loop
/// traces (no weaker-than elimination, no peeling).
Program instrumentEveryAccess(const Program &P) {
  Program Out = P;
  InstrumenterOptions IOpts;
  IOpts.UseStaticRaceSet = false;
  IOpts.StaticWeakerThan = false;
  IOpts.LoopPeeling = false;
  instrumentProgram(Out, IOpts, nullptr);
  EXPECT_TRUE(verifyProgram(Out).empty());
  return Out;
}

TEST(AccessTraceFusionTest, ReplicaSchedulesAgreeWithTheFilterHoisted) {
  uint64_t FusedExecs = 0, ProbeHits = 0;
  for (auto &[Name, P] : replicaCorpus()) {
    Program Instrumented = instrumentEveryAccess(P);
    for (uint32_t MaxQ : {1u, 2u, 5u, 40u}) {
      for (uint64_t Seed : {1u, 13u}) {
        SinkRun Thr = expectSinkRunsAgree(
            Instrumented, Seed, MaxQ,
            Name + " maxq=" + std::to_string(MaxQ) +
                " seed=" + std::to_string(Seed));
        FusedExecs += Thr.R.Fused.AccessTrace;
        ProbeHits += Thr.Stats.CacheHits;
      }
    }
  }
  EXPECT_GT(FusedExecs, 0u);
  EXPECT_GT(ProbeHits, 0u);
}

/// Two workers each run one heap access of kind \p Kind on shared state
/// six times in a loop, so the inline probe hits from the second
/// iteration on.  Loads feed Print so their values are observable.
Program buildAccessLoop(Opcode Kind) {
  Program P;
  IRBuilder B(P);
  ClassId Shared = B.makeClass("Shared");
  FieldId F = B.makeField(Shared, "f");
  FieldId S = B.makeStaticField(Shared, "s");
  FieldId Arr = B.makeField(Shared, "arr");
  ClassId Worker = B.makeClass("Worker");
  FieldId Target = B.makeField(Worker, "target");

  B.startMethod(Worker, "run", 1);
  RegId Obj = B.emitGetField(B.thisReg(), Target);
  RegId Array = B.emitGetField(Obj, Arr);
  RegId Zero = B.emitConst(0);
  B.forLoop(0, B.emitConst(6), 1, [&](RegId I) {
    switch (Kind) {
    case Opcode::GetField:
      B.emitPrint(B.emitGetField(Obj, F));
      break;
    case Opcode::PutField:
      B.emitPutField(Obj, F, I);
      break;
    case Opcode::GetStatic:
      B.emitPrint(B.emitGetStatic(S));
      break;
    case Opcode::PutStatic:
      B.emitPutStatic(S, I);
      break;
    case Opcode::ALoad:
      B.emitPrint(B.emitALoad(Array, Zero));
      break;
    default:
      B.emitAStore(Array, Zero, I);
      break;
    }
  });
  B.emitReturn();

  B.startMain();
  RegId SharedObj = B.emitNew(Shared);
  B.emitPutField(SharedObj, Arr, B.emitNewArray(B.emitConst(1)));
  RegId W1 = B.emitNew(Worker);
  RegId W2 = B.emitNew(Worker);
  B.emitPutField(W1, Target, SharedObj);
  B.emitPutField(W2, Target, SharedObj);
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitReturn();
  return P;
}

/// Pins one access kind: its pair fuses, runs fused with the inline
/// probe hitting, and agrees three ways in the pipeline and raw.
void expectAccessKindAgrees(Opcode Kind) {
  SCOPED_TRACE(opcodeName(Kind));
  Program P = buildAccessLoop(Kind);
  Program Instrumented = instrumentEveryAccess(P);
  ThreadedCode TC = buildThreadedCode(Instrumented);
  size_t Heads = 0;
  for (const auto &Blocks : TC.MethodBlocks)
    for (const BasicBlock &Block : Blocks)
      for (const Instr &I : Block.Instrs)
        Heads += I.Op == accessTraceOpcode(Kind);
  EXPECT_GE(Heads, 1u) << "the access never fused with its Trace";

  uint64_t FusedExecs = 0, ProbeHits = 0;
  for (uint32_t MaxQ : {1u, 2u, 3u, 40u}) {
    for (uint32_t Shards : {0u, 2u}) {
      ToolConfig Config = everyTraceKept();
      Config.Seed = 7;
      Config.MaxQuantum = MaxQ;
      Config.Shards = Shards;
      PipelineResult Thr =
          runBothModes(P, Config,
                       "maxq=" + std::to_string(MaxQ) +
                           " shards=" + std::to_string(Shards));
      FusedExecs += Thr.Run.Fused.AccessTrace;
      ProbeHits += Thr.Stats.CacheHits;
    }
    SinkRun Raw = expectSinkRunsAgree(Instrumented, 7, MaxQ,
                                      "raw maxq=" + std::to_string(MaxQ));
    FusedExecs += Raw.R.Fused.AccessTrace;
  }
  ToolConfig Record = everyTraceKept();
  Record.Seed = 7;
  runBothModes(P, Record, "record", /*Record=*/true);
  EXPECT_GT(FusedExecs, 0u);
  EXPECT_GT(ProbeHits, 0u);
}

TEST(AccessTraceFusionTest, GetField) { expectAccessKindAgrees(Opcode::GetField); }
TEST(AccessTraceFusionTest, PutField) { expectAccessKindAgrees(Opcode::PutField); }
TEST(AccessTraceFusionTest, GetStatic) {
  expectAccessKindAgrees(Opcode::GetStatic);
}
TEST(AccessTraceFusionTest, PutStatic) {
  expectAccessKindAgrees(Opcode::PutStatic);
}
TEST(AccessTraceFusionTest, ALoad) { expectAccessKindAgrees(Opcode::ALoad); }
TEST(AccessTraceFusionTest, AStore) { expectAccessKindAgrees(Opcode::AStore); }

/// `r = r.next` (GetField) or `r = r[0]` (ALoad) with the load's
/// destination being the base register its Trace reads: the Trace observes
/// the loaded value, not the object the access resolved.  The chain is
/// first -> second -> tail.  With \p TailIsReference the tail is second
/// itself and every Trace observes a real location; otherwise it is an
/// integer (an unset `next` is MiniJ's null, the integer zero) and the
/// second Trace faults, exactly where the unfused one does.
Program buildOverwritingLoad(Opcode Kind, bool TailIsReference) {
  Program P;
  IRBuilder B(P);
  ClassId Node = B.makeClass("Node");
  FieldId Next = B.makeField(Node, "next");
  B.startMain();
  RegId Cur;
  if (Kind == Opcode::GetField) {
    RegId First = B.emitNew(Node);
    RegId Second = B.emitNew(Node);
    B.emitPutField(First, Next, Second);
    if (TailIsReference)
      B.emitPutField(Second, Next, Second);
    Cur = B.emitMove(First);
    B.emitGetField(Cur, Next);
    B.emitPrint(Cur);
    B.emitGetField(Cur, Next);
  } else {
    RegId One = B.emitConst(1);
    RegId Zero = B.emitConst(0);
    RegId First = B.emitNewArray(One);
    RegId Second = B.emitNewArray(One);
    B.emitAStore(First, Zero, Second);
    B.emitAStore(Second, Zero, TailIsReference ? Second : B.emitConst(7));
    Cur = B.emitMove(First);
    B.emitALoad(Cur, Zero);
    B.emitPrint(Cur);
    B.emitALoad(Cur, Zero);
  }
  B.emitPrint(Cur);
  B.emitReturn();
  // Point every load of Cur back at Cur itself.
  for (BasicBlock &Block : P.method(P.MainMethod).Blocks)
    for (Instr &I : Block.Instrs)
      if (I.Op == Kind && I.A == Cur)
        I.Dst = Cur;
  EXPECT_TRUE(verifyProgram(P).empty());
  return P;
}

TEST(AccessTraceFusionTest, LoadOverwritingTheTracedRegister) {
  for (Opcode Kind : {Opcode::GetField, Opcode::ALoad}) {
    for (bool TailIsReference : {true, false}) {
      std::string What = std::string(opcodeName(Kind)) +
                         (TailIsReference ? " reference" : " faulting");
      SCOPED_TRACE(What);
      Program P = buildOverwritingLoad(Kind, TailIsReference);
      Program Instrumented = instrumentEveryAccess(P);
      ThreadedCode TC = buildThreadedCode(Instrumented);
      EXPECT_GE(TC.Stats.AccessTraceSites, 2u);

      // The hooks path: the exact event stream, heap and fault.
      RawRun Ref = runRaw(Instrumented, DispatchMode::Switch, 1,
                          /*TraceEveryAccess=*/false, nullptr);
      RawRun Thr = runRaw(Instrumented, DispatchMode::Threaded, 1,
                          /*TraceEveryAccess=*/false, &TC);
      expectRawEqual(Ref, Thr);
      EXPECT_EQ(Ref.R.Ok, TailIsReference) << Ref.R.Error;
      if (!TailIsReference) {
        EXPECT_NE(Ref.R.Error.find("trace"), std::string::npos)
            << Ref.R.Error;
      }
      EXPECT_GT(Thr.R.Fused.AccessTrace, 0u);

      // The hoisted-filter path, raw and through the pipeline.
      for (uint32_t MaxQ : {1u, 2u, 40u}) {
        SinkRun Raw = expectSinkRunsAgree(Instrumented, 1, MaxQ,
                                          "maxq=" + std::to_string(MaxQ));
        if (MaxQ == 40) {
          EXPECT_GT(Raw.R.Fused.AccessTrace, 0u);
        }
        ToolConfig Config = everyTraceKept();
        Config.MaxQuantum = MaxQ;
        runBothModes(P, Config, "pipeline maxq=" + std::to_string(MaxQ));
      }
    }
  }
}

} // namespace
