//===- tests/replay_test.cpp - Schedule record/replay tests ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the DejaVu-style record/replay facility (Section 2.6): the
/// paper's workflow runs the cheap detector alongside recording and does
/// "the expensive reconstruction of FullRace during DejaVu replay".  We
/// verify that a recorded schedule replays to the identical execution and
/// demonstrate exactly that workflow: detect online, then reconstruct the
/// full racing-pair counts offline on the replayed run.
///
//===----------------------------------------------------------------------===//

#include "baselines/NaiveDetector.h"
#include "detect/EventLog.h"
#include "detect/RaceRuntime.h"
#include "detect/TraceFile.h"
#include "herd/Pipeline.h"
#include "herd/ReportExport.h"
#include "runtime/Interpreter.h"
#include "support/Rng.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace herd;
using namespace herd::testprogs;

namespace {

TEST(ReplayTest, ReplayReproducesTheRunExactly) {
  CounterProgram CP = buildCounter(/*Locked=*/false, 25);

  ScheduleTrace Trace;
  InterpOptions RecordOpts;
  RecordOpts.Seed = 42;
  RecordOpts.Record = &Trace;
  Interpreter Recorder(CP.P, nullptr, RecordOpts);
  InterpResult Original = Recorder.run();
  ASSERT_TRUE(Original.Ok) << Original.Error;
  ASSERT_FALSE(Trace.Slices.empty());

  InterpOptions ReplayOpts;
  ReplayOpts.Seed = 999; // must be irrelevant under replay
  ReplayOpts.Replay = &Trace;
  Interpreter Replayer(CP.P, nullptr, ReplayOpts);
  InterpResult Replayed = Replayer.run();
  ASSERT_TRUE(Replayed.Ok) << Replayed.Error;

  EXPECT_EQ(Replayed.Output, Original.Output);
  EXPECT_EQ(Replayed.InstructionsExecuted, Original.InstructionsExecuted);
  EXPECT_EQ(Replayed.ThreadsCreated, Original.ThreadsCreated);
}

TEST(ReplayTest, ReplayedEventStreamIsIdentical) {
  struct EventCollector : RuntimeHooks {
    std::vector<std::tuple<uint32_t, uint64_t, uint8_t>> Events;
    void onAccess(ThreadId T, LocationKey L, AccessKind A,
                  SiteId) override {
      Events.emplace_back(T.index(), L.raw(), uint8_t(A));
    }
    void onMonitorEnter(ThreadId T, LockId L, bool R,
                        SiteId = SiteId::invalid()) override {
      Events.emplace_back(T.index(), L.index(), R ? 100 : 101);
    }
  };

  CounterProgram CP = buildCounter(/*Locked=*/true, 15);
  ScheduleTrace Trace;
  EventCollector A;
  InterpOptions RecordOpts;
  RecordOpts.Seed = 7;
  RecordOpts.Record = &Trace;
  RecordOpts.TraceEveryAccess = true;
  Interpreter Recorder(CP.P, &A, RecordOpts);
  ASSERT_TRUE(Recorder.run().Ok);

  EventCollector B;
  InterpOptions ReplayOpts;
  ReplayOpts.Replay = &Trace;
  ReplayOpts.TraceEveryAccess = true;
  Interpreter Replayer(CP.P, &B, ReplayOpts);
  ASSERT_TRUE(Replayer.run().Ok);

  EXPECT_EQ(A.Events, B.Events);
}

TEST(ReplayTest, DejaVuWorkflowOnlineDetectOfflineReconstruct) {
  // Online: cheap detection while recording.  Offline: replay the same
  // interleaving into the exact oracle and reconstruct |MemRace(m)| — the
  // FullRace information Definition 1 deliberately does not enumerate
  // online.
  CounterProgram CP = buildCounter(/*Locked=*/false, 25);

  ScheduleTrace Trace;
  RaceRuntime Online;
  InterpOptions RecordOpts;
  RecordOpts.Seed = 5;
  RecordOpts.Record = &Trace;
  RecordOpts.TraceEveryAccess = true;
  Interpreter Recorder(CP.P, &Online, RecordOpts);
  ASSERT_TRUE(Recorder.run().Ok);
  ASSERT_FALSE(Online.reporter().empty()) << "need a racy recording";

  NaiveDetector Oracle;
  InterpOptions ReplayOpts;
  ReplayOpts.Replay = &Trace;
  ReplayOpts.TraceEveryAccess = true;
  Interpreter Replayer(CP.P, &Oracle, ReplayOpts);
  ASSERT_TRUE(Replayer.run().Ok);

  // Same racy locations; and the offline pass knows the full pair counts.
  EXPECT_EQ(Oracle.racyLocations(), Online.reporter().reportedLocations());
  for (LocationKey Loc : Oracle.racyLocations())
    EXPECT_GT(Oracle.memRaceSize(Loc), 1u)
        << "FullRace reconstruction should enumerate many pairs where the "
           "online detector reported once";
}

TEST(ReplayTest, EveryWorkloadReplaysExactly) {
  for (Workload &W : buildAllWorkloads()) {
    ScheduleTrace Trace;
    InterpOptions RecordOpts;
    RecordOpts.Seed = 3;
    RecordOpts.Record = &Trace;
    Interpreter Recorder(W.P, nullptr, RecordOpts);
    InterpResult Original = Recorder.run();
    ASSERT_TRUE(Original.Ok) << W.Name << ": " << Original.Error;

    InterpOptions ReplayOpts;
    ReplayOpts.Replay = &Trace;
    Interpreter Replayer(W.P, nullptr, ReplayOpts);
    InterpResult Replayed = Replayer.run();
    ASSERT_TRUE(Replayed.Ok) << W.Name << ": " << Replayed.Error;
    EXPECT_EQ(Replayed.Output, Original.Output) << W.Name;
    EXPECT_EQ(Replayed.InstructionsExecuted, Original.InstructionsExecuted)
        << W.Name;
  }
}

TEST(TraceFuzzTest, MutatedBuffersNeverCrashTheDecoder) {
  // Build a healthy trace from a real execution, then hammer the reader
  // `herd --replay` runs with random corruptions: byte flips, truncations,
  // extensions.  Every outcome must be a clean accept or a diagnosed
  // reject — never a crash, sanitizer report, or silent out-of-bounds
  // read — and every accepted trace must replay into a detector.
  CounterProgram CP = buildCounter(/*Locked=*/false, 10);
  EventLog Log;
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(CP.P, &Log, Opts);
  ASSERT_TRUE(Interp.run().Ok);
  ASSERT_GT(Log.size(), 0u);
  std::vector<uint8_t> Good = Log.serialize();
  TempPath Path("fuzz");

  Rng R(0xF00Dull);
  uint64_t Accepted = 0, Rejected = 0;
  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::vector<uint8_t> Bytes = Good;
    if (R.nextChance(1, 4)) {
      // Structural damage: resize to an arbitrary nearby length.
      size_t NewSize = R.nextBelow(Good.size() + 64);
      Bytes.resize(NewSize, uint8_t(R.nextBelow(256)));
    }
    uint64_t Flips = 1 + R.nextBelow(8);
    for (uint64_t F = 0; F != Flips && !Bytes.empty(); ++F) {
      size_t Pos = size_t(R.nextBelow(Bytes.size()));
      Bytes[Pos] ^= uint8_t(1 + R.nextBelow(255));
    }
    {
      std::ofstream File(Path.str(), std::ios::binary | std::ios::trunc);
      File.write(reinterpret_cast<const char *>(Bytes.data()),
                 std::streamsize(Bytes.size()));
      ASSERT_TRUE(File.good());
    }

    EventLog Out;
    TraceResult TR = readTraceFile(Path, Out);
    if (TR.Ok) {
      ++Accepted;
      RaceRuntime Runtime;
      Out.replayInto(Runtime);
      Runtime.onRunEnd();
    } else {
      ++Rejected;
      EXPECT_FALSE(TR.Error.empty());
      EXPECT_EQ(Out.size(), 0u) << "a failed read must leave no partial "
                                   "records behind";
    }
  }
  // Random damage to a checksummed-nothing format occasionally leaves a
  // valid trace (flags/id bytes are free-form), but most mutations must
  // trip a check; the valid ones are what exercise the replay.
  EXPECT_GT(Rejected, 0u);
  EXPECT_GT(Accepted, 0u);
  SUCCEED() << Accepted << " accepted, " << Rejected << " rejected";
}

TEST(ReplayTest, DivergentTraceIsARuntimeError) {
  CounterProgram CP = buildCounter(true, 5);
  ScheduleTrace Trace;
  Trace.Slices.push_back({7, 3}); // thread 7 never exists
  InterpOptions Opts;
  Opts.Replay = &Trace;
  Interpreter Interp(CP.P, nullptr, Opts);
  InterpResult R = Interp.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("diverged"), std::string::npos);
}

TEST(ReplayTest, TruncatedTraceStopsEarlyWithoutError) {
  // Replaying a prefix of a recording executes exactly that prefix.
  CounterProgram CP = buildCounter(true, 10);
  ScheduleTrace Trace;
  InterpOptions RecordOpts;
  RecordOpts.Record = &Trace;
  Interpreter Recorder(CP.P, nullptr, RecordOpts);
  InterpResult Full = Recorder.run();
  ASSERT_TRUE(Full.Ok);

  ScheduleTrace Half;
  Half.Slices.assign(Trace.Slices.begin(),
                     Trace.Slices.begin() +
                         std::ptrdiff_t(Trace.Slices.size() / 2));
  InterpOptions ReplayOpts;
  ReplayOpts.Replay = &Half;
  Interpreter Replayer(CP.P, nullptr, ReplayOpts);
  InterpResult R = Replayer.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LT(R.InstructionsExecuted, Full.InstructionsExecuted);
}

TEST(ReplayTest, TraceSitesTheProgramLacksPrintAsUnknown) {
  // A trace names the sites of the program it was recorded from.  Replayed
  // against a program that declares none, every race must still be
  // reported, printed without a site, in every output form.
  TempPath Path("replay-undeclared-sites");
  ToolConfig Live = ToolConfig::full();
  Live.RecordTracePath = Path.str();
  PipelineResult L = runPipeline(buildFigure2(/*SamePQ=*/false), Live);
  ASSERT_TRUE(L.Run.Ok && L.Trace.Ok) << L.Run.Error << L.Trace.Error;
  ASSERT_FALSE(L.FormattedRaces.empty());
  const std::string &First = L.FormattedRaces.front();
  ASSERT_NE(First.substr(0, First.find(" conflicts")).find(" at "),
            std::string::npos);

  Program Empty;
  IRBuilder B(Empty);
  B.startMain();
  B.emitReturn();
  ASSERT_EQ(Empty.numSites(), 0u);
  for (uint32_t Shards : {0u, 2u}) {
    for (bool Detail : {false, true}) {
      SCOPED_TRACE(std::to_string(Shards) + " shards, provenance " +
                   std::to_string(Detail));
      ToolConfig Replay = ToolConfig::full();
      Replay.Shards = Shards;
      Replay.Provenance = Detail;
      Replay.DetectDeadlocks = Detail;
      PipelineResult R = replayTracePipeline(Empty, Replay, Path);
      ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
      ASSERT_EQ(R.FormattedRaces.size(), L.FormattedRaces.size());
      for (const std::string &Line : R.FormattedRaces)
        EXPECT_EQ(Line.substr(0, Line.find(" conflicts")).find(" at "),
                  std::string::npos)
            << Line;
      EXPECT_FALSE(renderReportJson(Empty, R).empty());
      EXPECT_FALSE(renderReportSarif(Empty, R).empty());
    }
  }
}

} // namespace
