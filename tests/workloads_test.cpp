//===- tests/workloads_test.cpp - Benchmark replica validation ------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the five Table 1 replicas: they verify, terminate, behave
/// deterministically, and reproduce the Table 3 accuracy structure (Full /
/// FieldsMerged / NoOwnership) plus the Section 8.3 baseline differences.
///
//===----------------------------------------------------------------------===//

#include "baselines/EraserDetector.h"
#include "herd/Pipeline.h"
#include "ir/Verifier.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace herd;

namespace {

class WorkloadTest : public ::testing::TestWithParam<int> {
protected:
  Workload load() const {
    switch (GetParam()) {
    case 0:
      return buildMtrt();
    case 1:
      return buildTsp();
    case 2:
      return buildSor2();
    case 3:
      return buildElevator();
    default:
      return buildHedc();
    }
  }
};

TEST_P(WorkloadTest, VerifiesAndTerminates) {
  Workload W = load();
  auto Problems = verifyProgram(W.P);
  ASSERT_TRUE(Problems.empty()) << W.Name << ": " << Problems[0];
  PipelineResult R = runPipeline(W.P, ToolConfig::base());
  ASSERT_TRUE(R.Run.Ok) << W.Name << ": " << R.Run.Error;
  EXPECT_EQ(R.Run.ThreadsCreated, W.DynamicThreads) << W.Name;
}

TEST_P(WorkloadTest, DeterministicUnderFixedSeed) {
  Workload W = load();
  ToolConfig Config = ToolConfig::full();
  Config.Seed = 17;
  PipelineResult A = runPipeline(W.P, Config);
  PipelineResult B = runPipeline(W.P, Config);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok) << W.Name;
  EXPECT_EQ(A.Run.InstructionsExecuted, B.Run.InstructionsExecuted);
  EXPECT_EQ(A.Reports.reportedLocations(), B.Reports.reportedLocations());
}

TEST_P(WorkloadTest, FullReportsExpectedObjects) {
  Workload W = load();
  PipelineResult R = runPipeline(W.P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok) << W.Name << ": " << R.Run.Error;
  EXPECT_EQ(R.Reports.countDistinctObjects(), W.ExpectedRacyObjectsFull)
      << W.Name;
}

TEST_P(WorkloadTest, FullReportCountIsScheduleIndependent) {
  // The Table 3 "Full" column must not be a lucky schedule: the engineered
  // races are reported (and nothing else) for every seed.
  Workload W = load();
  for (uint64_t Seed : {2u, 5u, 8u}) {
    ToolConfig Config = ToolConfig::full();
    Config.Seed = Seed;
    PipelineResult R = runPipeline(W.P, Config);
    ASSERT_TRUE(R.Run.Ok) << W.Name << " seed " << Seed;
    EXPECT_EQ(R.Reports.countDistinctObjects(), W.ExpectedRacyObjectsFull)
        << W.Name << " seed " << Seed;
  }
}

TEST_P(WorkloadTest, Table3OrderingHolds) {
  // Table 3: Full <= FieldsMerged (per object) and Full <= NoOwnership;
  // NoOwnership floods everywhere except where nothing is shared.
  Workload W = load();
  PipelineResult Full = runPipeline(W.P, ToolConfig::full());
  PipelineResult Merged = runPipeline(W.P, ToolConfig::fieldsMerged());
  PipelineResult NoOwn = runPipeline(W.P, ToolConfig::noOwnership());
  ASSERT_TRUE(Full.Run.Ok && Merged.Run.Ok && NoOwn.Run.Ok) << W.Name;
  EXPECT_LE(Full.Reports.countDistinctObjects(),
            Merged.Reports.countDistinctObjects())
      << W.Name;
  EXPECT_LT(Full.Reports.countDistinctObjects(),
            NoOwn.Reports.countDistinctObjects())
      << W.Name;
}

std::string workloadName(const ::testing::TestParamInfo<int> &Info) {
  static const char *const Names[] = {"mtrt", "tsp", "sor2", "elevator",
                                      "hedc"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllFive, WorkloadTest,
                         ::testing::Values(0, 1, 2, 3, 4), workloadName);

TEST(WorkloadAccuracyTest, MergedFieldsAddSpuriousObjectsOnTspAndHedc) {
  // Table 3: tsp 5 -> 20 and hedc 5 -> 10 under FieldsMerged; the replica
  // must at least move in that direction.
  for (Workload W : {buildTsp(), buildHedc()}) {
    PipelineResult Full = runPipeline(W.P, ToolConfig::full());
    PipelineResult Merged = runPipeline(W.P, ToolConfig::fieldsMerged());
    ASSERT_TRUE(Full.Run.Ok && Merged.Run.Ok);
    EXPECT_GT(Merged.Reports.countDistinctObjects(),
              Full.Reports.countDistinctObjects())
        << W.Name;
  }
}

TEST(WorkloadAccuracyTest, ElevatorSilentOnlyWithOwnership) {
  Workload W = buildElevator();
  PipelineResult Full = runPipeline(W.P, ToolConfig::full());
  PipelineResult NoOwn = runPipeline(W.P, ToolConfig::noOwnership());
  ASSERT_TRUE(Full.Run.Ok && NoOwn.Run.Ok);
  EXPECT_EQ(Full.Reports.countDistinctObjects(), 0u);
  EXPECT_GE(NoOwn.Reports.countDistinctObjects(), 4u);
}

TEST(WorkloadAccuracyTest, EraserReportsASuperset) {
  // Section 9: "the race definitions for object race detection and Eraser
  // imply they always report a superset of the races we report."  Run the
  // full event stream through Eraser and compare per-object reports.
  for (Workload W : buildAllWorkloads()) {
    EraserDetector Eraser;
    InterpOptions Opts;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(W.P, &Eraser, Opts);
    InterpResult RR = Interp.run();
    ASSERT_TRUE(RR.Ok) << W.Name << ": " << RR.Error;

    PipelineResult Ours = runPipeline(W.P, ToolConfig::full());
    ASSERT_TRUE(Ours.Run.Ok);

    std::set<ObjectId> EraserObjects;
    for (LocationKey Loc : Eraser.reportedLocations())
      EraserObjects.insert(Loc.object());
    std::set<ObjectId> OurObjects;
    for (const RaceRecord &Rec : Ours.Reports.records())
      OurObjects.insert(Rec.Location.object());
    for (ObjectId Obj : OurObjects)
      EXPECT_TRUE(EraserObjects.count(Obj))
          << W.Name << ": Eraser missed object " << Obj.index();
    EXPECT_GE(EraserObjects.size(), OurObjects.size()) << W.Name;
  }
}

TEST(WorkloadAccuracyTest, MtrtEraserReportsTheJoinIdiomWeDoNot) {
  Workload W = buildMtrt();
  EraserDetector Eraser;
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(W.P, &Eraser, Opts);
  ASSERT_TRUE(Interp.run().Ok);
  PipelineResult Ours = runPipeline(W.P, ToolConfig::full());
  // Eraser reports strictly more objects on mtrt: the statistics object
  // accessed under the common lock by the children and lock-free by the
  // parent after join.
  std::set<ObjectId> EraserObjects;
  for (LocationKey Loc : Eraser.reportedLocations())
    EraserObjects.insert(Loc.object());
  EXPECT_GT(EraserObjects.size(), Ours.Reports.countDistinctObjects());
}

TEST(WorkloadStatsTest, StaticAnalysisPrunesMtrtHeavily) {
  // The reason mtrt "runs out of memory" without static analysis: most of
  // its accesses are statically race-free (thread-local scratch).
  Workload W = buildMtrt();
  PipelineResult Full = runPipeline(W.P, ToolConfig::full());
  PipelineResult NoStatic = runPipeline(W.P, ToolConfig::noStatic());
  ASSERT_TRUE(Full.Run.Ok && NoStatic.Run.Ok);
  EXPECT_LT(Full.Instr.TracesInserted, NoStatic.Instr.TracesInserted);
  // The decisive effect is dynamic: the scratch accesses run in a loop.
  EXPECT_LT(Full.Stats.EventsSeen * 3, NoStatic.Stats.EventsSeen);
}

TEST(WorkloadStatsTest, TspFloodsTheDetectorWithoutTheCache) {
  Workload W = buildTsp();
  PipelineResult Full = runPipeline(W.P, ToolConfig::full());
  PipelineResult NoCache = runPipeline(W.P, ToolConfig::noCache());
  ASSERT_TRUE(Full.Run.Ok && NoCache.Run.Ok);
  // With the cache, the detector sees a small fraction of the events.
  EXPECT_GT(Full.Stats.CacheHits, Full.Stats.Detector.EventsIn * 5);
  EXPECT_GT(NoCache.Stats.Detector.EventsIn,
            Full.Stats.Detector.EventsIn * 5);
}

TEST(WorkloadStatsTest, Sor2LosesItsLoopTracesToPeelingAndDominators) {
  Workload W = buildSor2();
  PipelineResult Full = runPipeline(W.P, ToolConfig::full());
  PipelineResult NoDom = runPipeline(W.P, ToolConfig::noDominators());
  ASSERT_TRUE(Full.Run.Ok && NoDom.Run.Ok);
  // The hoisted-subscript inner loop's traces are removed in Full, so the
  // instrumented run emits far fewer events than NoDominators.
  EXPECT_LT(Full.Stats.EventsSeen * 4, NoDom.Stats.EventsSeen);
}

} // namespace
