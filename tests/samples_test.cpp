//===- tests/samples_test.cpp - Shipped MiniJ sample programs -------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps the MiniJ programs shipped in examples/programs/ compiling and
/// behaving: figure2.mj reports the paper's race, histogram.mj pinpoints
/// its missing lock, and dining_philosophers.mj trips the deadlock
/// detector (and only it).
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "herd/Pipeline.h"

#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace herd;

namespace {

std::string readSample(const std::string &Name) {
  std::string Path = std::string(HERD_SAMPLES_DIR) + "/" + Name;
  std::ifstream File(Path);
  EXPECT_TRUE(File.good()) << "missing sample " << Path;
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  return Buffer.str();
}

CompileResult compileSample(const std::string &Name) {
  CompileResult R = compileMiniJ(readSample(Name));
  EXPECT_TRUE(R.Ok) << Name << ": "
                    << (R.Diags.empty() ? "?" : R.Diags[0].str());
  return R;
}

TEST(SamplesTest, Figure2ReportsTheRaceOnF) {
  CompileResult C = compileSample("figure2.mj");
  ASSERT_TRUE(C.Ok);
  PipelineResult R = runPipeline(C.P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Reports.countDistinctLocations(), 1u);
  ASSERT_FALSE(R.FormattedRaces.empty());
  EXPECT_NE(R.FormattedRaces[0].find("field f"), std::string::npos);
}

TEST(SamplesTest, HistogramPinpointsTheTotalCounter) {
  CompileResult C = compileSample("histogram.mj");
  ASSERT_TRUE(C.Ok);
  bool Reported = false;
  for (uint64_t Seed : {1u, 3u, 9u}) {
    ToolConfig Config = ToolConfig::noPeeling();
    Config.Seed = Seed;
    PipelineResult R = runPipeline(C.P, Config);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    for (std::string_view Line : R.FormattedRaces) {
      EXPECT_NE(Line.find("total"), std::string::npos)
          << "only the total counter should race: " << Line;
      Reported = true;
    }
    // The per-bucket counts are properly locked: the shared counts array
    // must never appear.
    for (std::string_view Line : R.FormattedRaces)
      EXPECT_EQ(Line.find("counts"), std::string::npos);
  }
  EXPECT_TRUE(Reported);
}

TEST(SamplesTest, DiningPhilosophersTripsOnlyTheDeadlockDetector) {
  CompileResult C = compileSample("dining_philosophers.mj");
  ASSERT_TRUE(C.Ok);
  ToolConfig Config = ToolConfig::full();
  Config.DetectDeadlocks = true;
  // Pick a schedule where the program terminates (the deadlock detector
  // reports the *potential* regardless).
  PipelineResult R = runPipeline(C.P, Config);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_TRUE(R.Reports.empty()) << R.FormattedRaces[0];
  ASSERT_EQ(R.Deadlocks.size(), 1u);
  EXPECT_EQ(R.Deadlocks[0].Locks.size(), 5u); // the five forks
}

TEST(SamplesTest, TspInMiniJFindsTheBoundRace) {
  CompileResult C = compileSample("tsp.mj");
  ASSERT_TRUE(C.Ok);
  ToolConfig Config = ToolConfig::noPeeling();
  PipelineResult R = runPipeline(C.P, Config);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  bool BoundRace = false;
  for (std::string_view Line : R.FormattedRaces)
    BoundRace |= Line.find("MinTourLen") != std::string::npos;
  EXPECT_TRUE(BoundRace);
  // The branch-and-bound result itself must be a sane tour length.
  ASSERT_FALSE(R.Run.Output.empty());
  EXPECT_GT(R.Run.Output[0], 0);
  EXPECT_LT(R.Run.Output[0], 1000000);
}

TEST(SamplesTest, AllSamplesRunUnderEveryConfiguration) {
  for (const char *Name :
       {"figure2.mj", "histogram.mj", "dining_philosophers.mj", "tsp.mj"}) {
    CompileResult C = compileSample(Name);
    ASSERT_TRUE(C.Ok);
    for (ToolConfig Config :
         {ToolConfig::base(), ToolConfig::full(), ToolConfig::noStatic(),
          ToolConfig::noCache(), ToolConfig::noOwnership()}) {
      PipelineResult R = runPipeline(C.P, Config);
      EXPECT_TRUE(R.Run.Ok) << Name << ": " << R.Run.Error;
    }
  }
}

} // namespace
