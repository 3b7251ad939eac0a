//===- tests/pipeline_test.cpp - End-to-end pipeline tests ----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests of the full Figure 1 pipeline: static analysis ->
/// instrumentation -> execution -> detection, across the paper's ablation
/// configurations, checked against the exact O(N²) oracle.
///
//===----------------------------------------------------------------------===//

#include "baselines/NaiveDetector.h"
#include "herd/Pipeline.h"
#include "ir/Verifier.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace herd;
using namespace herd::testprogs;

namespace {

/// Runs the program uninstrumented with TraceEveryAccess into the exact
/// oracle; returns the ground-truth racy location set for that schedule.
std::set<LocationKey> oracleLocations(const Program &P, uint64_t Seed) {
  NaiveDetector Oracle;
  InterpOptions Opts;
  Opts.Seed = Seed;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P, &Oracle, Opts);
  InterpResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return Oracle.racyLocations();
}

TEST(PipelineTest, LockedCounterIsSilent) {
  CounterProgram CP = buildCounter(true, 30);
  PipelineResult R = runPipeline(CP.P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_TRUE(R.Reports.empty());
  // The static phase proves the locked increment pairs race-free via
  // MustCommonSync.  (The race set is not empty: main reads the counter
  // after join without the lock, and the *static* phase conservatively
  // ignores start/join ordering — the paper's footnote 5 — leaving the
  // dynamic ownership/join machinery to silence those.)
  EXPECT_GT(R.Static.CommonSyncFiltered, 0u);
}

TEST(PipelineTest, UnlockedCounterIsReported) {
  // With peeling disabled the in-loop traces survive, so the lost-update
  // race on Shared.count is reported for every schedule.
  CounterProgram CP = buildCounter(false, 30);
  for (uint64_t Seed : {1u, 7u, 23u, 77u}) {
    ToolConfig Config = ToolConfig::noPeeling();
    Config.Seed = Seed;
    PipelineResult R = runPipeline(CP.P, Config);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_EQ(R.Reports.countDistinctLocations(), 1u) << "seed " << Seed;
    EXPECT_GT(R.Instr.TracesInserted, 0u);
    ASSERT_FALSE(R.FormattedRaces.empty());
    EXPECT_NE(R.FormattedRaces[0].find("count"), std::string::npos);
  }
}

TEST(PipelineTest, SectionSevenTwoInteractionIsObservable) {
  // Section 7.2: the paper deliberately ignores the interaction between
  // the weaker-than optimizations and the ownership model, accepting that
  // "in theory our tool may inadvertently suppress accesses and thus fail
  // to report races".  This workload makes the theory concrete: after
  // peeling, each worker emits events only in its first iteration; on
  // schedules where worker 1 finishes that iteration while it still owns
  // the location, its only events are swallowed by the ownership filter
  // and the race can be missed.  The unoptimized configuration always
  // reports.  We assert both behaviours so a regression in either
  // direction is caught.
  CounterProgram CP = buildCounter(false, 30);
  bool FullMissedSomewhere = false;
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    ToolConfig Full = ToolConfig::full();
    Full.Seed = Seed;
    PipelineResult RFull = runPipeline(CP.P, Full);
    ASSERT_TRUE(RFull.Run.Ok);

    ToolConfig Unopt = ToolConfig::noDominators();
    Unopt.Seed = Seed;
    PipelineResult RUnopt = runPipeline(CP.P, Unopt);
    ASSERT_TRUE(RUnopt.Run.Ok);
    EXPECT_EQ(RUnopt.Reports.countDistinctLocations(), 1u)
        << "unoptimized must always catch the race (seed " << Seed << ")";

    if (RFull.Reports.empty())
      FullMissedSomewhere = true;
  }
  EXPECT_TRUE(FullMissedSomewhere)
      << "expected at least one schedule exhibiting the Section 7.2 "
         "suppression; if this stops reproducing, the workload needs "
         "retuning, not the detector";
}

TEST(PipelineTest, UnoptimizedInstrumentationMatchesOracleExactly) {
  // With every access instrumented (no static pruning, no weaker-than
  // elimination, no peeling) the detector must report *exactly* the racy
  // locations of the exact O(N^2) oracle: Definition 1 (at least one
  // report per racy location) plus precision (nothing else).  The cache
  // stays on — it is transparent by construction.
  struct Case {
    const char *Name;
    Program P;
  };
  std::vector<Case> Cases;
  Cases.push_back({"counter-unlocked", buildCounter(false, 25).P});
  Cases.push_back({"counter-locked", buildCounter(true, 25).P});
  Cases.push_back({"fig2", buildFigure2(false)});
  Cases.push_back({"fig2-samepq", buildFigure2(true)});
  Cases.push_back({"fig3loop", buildFig3Loop(12)});

  for (Case &C : Cases) {
    for (uint64_t Seed : {1u, 5u, 23u}) {
      ToolConfig Config;
      Config.StaticAnalysis = false;
      Config.StaticWeakerThan = false;
      Config.LoopPeeling = false;
      Config.Seed = Seed;
      PipelineResult R = runPipeline(C.P, Config);
      ASSERT_TRUE(R.Run.Ok) << C.Name << ": " << R.Run.Error;
      EXPECT_EQ(R.Reports.reportedLocations(), oracleLocations(C.P, Seed))
          << C.Name << " seed " << Seed;
    }
  }
}

TEST(PipelineTest, OptimizationsDoNotChangeReports) {
  // Section 7.2: "we verified that the same races were reported whether
  // the optimizations using the unsafe weaker-than relation were enabled
  // or disabled" — our equivalent check across all Table 2 ablations.
  // (The adversarial unlocked counter is excluded: it triggers the
  // Section 7.2 divergence, covered by its own test above.)
  std::vector<Program> Programs;
  Programs.push_back(buildCounter(true, 20).P);
  Programs.push_back(buildFigure2(false));
  Programs.push_back(buildFig3Loop(10));

  for (const Program &P : Programs) {
    ToolConfig Configs[] = {ToolConfig::full(), ToolConfig::noStatic(),
                            ToolConfig::noDominators(),
                            ToolConfig::noPeeling(), ToolConfig::noCache()};
    std::set<LocationKey> Reference;
    bool First = true;
    for (ToolConfig Config : Configs) {
      Config.Seed = 7;
      PipelineResult R = runPipeline(P, Config);
      ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
      if (First) {
        Reference = R.Reports.reportedLocations();
        First = false;
      } else {
        EXPECT_EQ(R.Reports.reportedLocations(), Reference);
      }
    }
  }
}

TEST(PipelineTest, BaseConfigRunsWithoutDetection) {
  CounterProgram CP = buildCounter(false, 10);
  PipelineResult R = runPipeline(CP.P, ToolConfig::base());
  ASSERT_TRUE(R.Run.Ok);
  EXPECT_TRUE(R.Reports.empty());
  EXPECT_EQ(R.Stats.EventsSeen, 0u);
  EXPECT_EQ(R.Instr.TracesInserted, 0u);
}

TEST(PipelineTest, StaticPhaseReducesInstrumentation) {
  // mtrt-style effect: the static race set keeps instrumentation off the
  // provably race-free accesses — here, a single-threaded loop whose
  // accesses cannot race at all.
  Program P = buildFig3Loop(50);
  PipelineResult Full = runPipeline(P, ToolConfig::full());
  PipelineResult NoStatic = runPipeline(P, ToolConfig::noStatic());
  ASSERT_TRUE(Full.Run.Ok && NoStatic.Run.Ok);
  EXPECT_EQ(Full.Instr.TracesInserted, 0u);
  EXPECT_GT(NoStatic.Instr.TracesInserted, 0u);
  EXPECT_LT(Full.Stats.EventsSeen, NoStatic.Stats.EventsSeen);
}

TEST(PipelineTest, CacheAbsorbsMostEvents) {
  Program P = buildFig3Loop(500);
  // Instrument every access and keep the in-loop traces so the cache has
  // something to absorb.
  ToolConfig Config;
  Config.StaticAnalysis = false;
  Config.StaticWeakerThan = false;
  Config.LoopPeeling = false;
  PipelineResult R = runPipeline(P, Config);
  ASSERT_TRUE(R.Run.Ok);
  // Nearly every event is absorbed by the cache; the detector sees a
  // handful.
  EXPECT_GT(R.Stats.CacheHits, 400u);
  EXPECT_LT(R.Stats.Detector.EventsIn, 20u);
}

TEST(PipelineTest, PeelingReducesRuntimeEvents) {
  Program P = buildFig3Loop(300);
  // A single-threaded loop is statically race-free, so exercise the
  // peeling path with the static race set disabled.
  ToolConfig WithPeel = ToolConfig::noStatic();
  ToolConfig NoPeel = ToolConfig::noStatic();
  NoPeel.LoopPeeling = false;
  PipelineResult A = runPipeline(P, WithPeel);
  PipelineResult B = runPipeline(P, NoPeel);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  EXPECT_LE(A.Stats.EventsSeen, B.Stats.EventsSeen);
}

TEST(PipelineTest, FieldsMergedAndNoOwnershipIncreaseReports) {
  // Table 3's ordering on a workload with per-field locking and an
  // init-then-handoff pattern.
  Program P;
  {
    IRBuilder B(P);
    ClassId Obj = B.makeClass("Obj");
    FieldId F0 = B.makeField(Obj, "safeA");
    FieldId F1 = B.makeField(Obj, "safeB");
    ClassId Worker = B.makeClass("Worker");
    FieldId Target = B.makeField(Worker, "target");
    FieldId LockA = B.makeField(Worker, "lockA");
    FieldId LockB = B.makeField(Worker, "lockB");
    ClassId LockCls = B.makeClass("L");
    B.startMethod(Worker, "run", 1);
    {
      RegId O = B.emitGetField(B.thisReg(), Target);
      RegId LA = B.emitGetField(B.thisReg(), LockA);
      RegId LB = B.emitGetField(B.thisReg(), LockB);
      RegId N = B.emitConst(10);
      B.forLoop(0, N, 1, [&](RegId I) {
        B.sync(LA, [&] { B.emitPutField(O, F0, I); });
        B.sync(LB, [&] { B.emitPutField(O, F1, I); });
      });
      B.emitReturn();
    }
    B.startMain();
    RegId O = B.emitNew(Obj);
    RegId LA = B.emitNew(LockCls);
    RegId LB = B.emitNew(LockCls);
    // Parent initializes without locks, then hands off (ownership covers
    // this; NoOwnership reports it).
    B.emitPutField(O, F0, B.emitConst(0));
    B.emitPutField(O, F1, B.emitConst(0));
    RegId W1 = B.emitNew(Worker);
    RegId W2 = B.emitNew(Worker);
    for (RegId W : {W1, W2}) {
      B.emitPutField(W, Target, O);
      B.emitPutField(W, LockA, LA);
      B.emitPutField(W, LockB, LB);
    }
    B.emitThreadStart(W1);
    B.emitThreadStart(W2);
    B.emitReturn();
  }
  ASSERT_TRUE(verifyProgram(P).empty());

  PipelineResult Full = runPipeline(P, ToolConfig::full());
  PipelineResult Merged = runPipeline(P, ToolConfig::fieldsMerged());
  PipelineResult NoOwn = runPipeline(P, ToolConfig::noOwnership());
  ASSERT_TRUE(Full.Run.Ok && Merged.Run.Ok && NoOwn.Run.Ok);

  // Per-field locking is correct: Full reports nothing.
  EXPECT_EQ(Full.Reports.countDistinctObjects(), 0u);
  // Merged fields conflate the two lock disciplines: spurious report.
  EXPECT_GE(Merged.Reports.countDistinctObjects(), 1u);
  // Without ownership the unlocked initialization is "racy".
  EXPECT_GE(NoOwn.Reports.countDistinctObjects(), 1u);
}

TEST(PipelineTest, DeterministicAcrossRepeatedRuns) {
  Program P = buildFigure2(false);
  ToolConfig Config = ToolConfig::full();
  Config.Seed = 99;
  PipelineResult A = runPipeline(P, Config);
  PipelineResult B = runPipeline(P, Config);
  EXPECT_EQ(A.Reports.reportedLocations(), B.Reports.reportedLocations());
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted);
  EXPECT_EQ(A.Stats.EventsSeen, B.Stats.EventsSeen);
}

TEST(PipelineTest, FormattedReportsNameTheSite) {
  Program P = buildFigure2(false);
  PipelineResult R = runPipeline(P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.FormattedRaces.empty());
  // Each report names the Data object's field f and a statement label.
  bool NamesField = false, NamesSite = false;
  for (const std::string &Line : R.FormattedRaces) {
    NamesField |= Line.find("field f") != std::string::npos;
    NamesSite |= Line.find("T1") != std::string::npos ||
                 Line.find("T2") != std::string::npos;
  }
  EXPECT_TRUE(NamesField);
  EXPECT_TRUE(NamesSite);
}

} // namespace
