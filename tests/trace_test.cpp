//===- tests/trace_test.cpp - Trace subsystem differential tests ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the versioned trace subsystem (docs/REPLAY.md):
/// a run recorded with ToolConfig::RecordTracePath and re-detected with
/// replayTracePipeline must reproduce the live race-record set exactly —
/// for the serial runtime, the sharded runtime at several shard counts,
/// and the baseline detectors — and every malformed trace must be
/// rejected with a diagnostic, never undefined behaviour.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "RaceRecords.h"
#include "TestPrograms.h"
#include "baselines/EraserDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/TraceFile.h"
#include "herd/Pipeline.h"
#include "runtime/Interpreter.h"
#include "support/TempPath.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace herd;
using testprogs::canonicalRecords;

namespace {

std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            std::streamsize(Bytes.size()));
}

struct NamedProgram {
  std::string Name;
  Program P;
};

std::vector<NamedProgram> tracePrograms() {
  std::vector<NamedProgram> Out;
  Out.push_back({"figure2", testprogs::buildFigure2(/*SamePQ=*/false)});
  Out.push_back({"counter_unlocked",
                 testprogs::buildCounter(/*Locked=*/false, 40).P});
  Out.push_back({"fuzz_5", fuzzprogs::generateProgram(5)});
  return Out;
}

//===----------------------------------------------------------------------===
// The record/replay differential oracle.
//===----------------------------------------------------------------------===

TEST(TracePipelineTest, ReplayMatchesLiveAcrossRuntimesAndSeeds) {
  // One recorded execution re-detected through every runtime shape must
  // yield the identical race-record set: the trace captures events above
  // the detection stack, so the detector configuration is a free variable
  // of replay.
  for (const NamedProgram &Prog : tracePrograms()) {
    for (uint64_t Seed : {1ull, 2ull, 3ull}) {
      TempPath Path(Prog.Name + "-s" + std::to_string(Seed));
      ToolConfig Cfg = ToolConfig::full();
      Cfg.Seed = Seed;
      Cfg.RecordTracePath = Path.str();
      PipelineResult Live = runPipeline(Prog.P, Cfg);
      ASSERT_TRUE(Live.Run.Ok)
          << Prog.Name << " seed " << Seed << ": " << Live.Run.Error;
      ASSERT_TRUE(Live.Trace.Ok) << Live.Trace.Error;
      ASSERT_GT(Live.TraceRecords, 0u);
      ASSERT_EQ(Live.TraceBytes, tracefmt::HeaderBytes +
                                     Live.TraceRecords *
                                         tracefmt::RecordBytes);
      std::multiset<std::string> Want = canonicalRecords(Live.Reports);

      // Serial replay (Shards == 0) and sharded replay at several counts.
      for (uint32_t Shards : {0u, 1u, 3u, 4u, 8u}) {
        ToolConfig RCfg = ToolConfig::full();
        RCfg.Shards = Shards;
        PipelineResult Replayed = replayTracePipeline(Prog.P, RCfg, Path);
        ASSERT_TRUE(Replayed.Trace.Ok)
            << Prog.Name << " seed " << Seed << " shards " << Shards << ": "
            << Replayed.Trace.Error;
        ASSERT_TRUE(Replayed.Run.Ok);
        EXPECT_EQ(Replayed.TraceRecords, Live.TraceRecords);
        EXPECT_EQ(Want, canonicalRecords(Replayed.Reports))
            << Prog.Name << " seed " << Seed << " shards " << Shards;
      }
    }
  }
}

TEST(TracePipelineTest, RecordingDoesNotPerturbDetection) {
  // The trace writer is a passive fanout sink: a recorded run must report
  // exactly what the same run without recording reports.
  TempPath Path("perturb");
  for (const NamedProgram &Prog : tracePrograms()) {
    ToolConfig Plain = ToolConfig::full();
    Plain.Seed = 7;
    PipelineResult Bare = runPipeline(Prog.P, Plain);
    ASSERT_TRUE(Bare.Run.Ok) << Bare.Run.Error;

    ToolConfig Rec = Plain;
    Rec.RecordTracePath = Path.str();
    PipelineResult Recorded = runPipeline(Prog.P, Rec);
    ASSERT_TRUE(Recorded.Run.Ok) << Recorded.Run.Error;
    ASSERT_TRUE(Recorded.Trace.Ok) << Recorded.Trace.Error;

    EXPECT_EQ(Bare.Run.InstructionsExecuted,
              Recorded.Run.InstructionsExecuted)
        << Prog.Name;
    EXPECT_EQ(canonicalRecords(Bare.Reports),
              canonicalRecords(Recorded.Reports))
        << Prog.Name;
  }
}

TEST(TraceBaselineTest, BaselineReplayMatchesLiveBaseline) {
  // The same trace must also drive the comparison detectors to their live
  // verdicts: record with a full event stream, replay into a fresh
  // instance, compare reported locations.
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    TempPath Path("baseline-s" + std::to_string(Seed));
    EraserDetector LiveEraser;
    VectorClockDetector LiveVC;
    TraceWriter Writer;
    ASSERT_TRUE(Writer.open(Path).Ok);
    FanoutHooks Fanout{&LiveEraser, &LiveVC, &Writer};
    InterpOptions Opts;
    Opts.Seed = Seed;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(P, &Fanout, Opts);
    ASSERT_TRUE(Interp.run().Ok);
    ASSERT_TRUE(Writer.close().Ok);

    EraserDetector ReplayEraser;
    VectorClockDetector ReplayVC;
    {
      TraceReader Reader;
      ASSERT_TRUE(Reader.open(Path).Ok);
      ASSERT_TRUE(Reader.replayInto(ReplayEraser).Ok);
    }
    {
      TraceReader Reader;
      ASSERT_TRUE(Reader.open(Path).Ok);
      ASSERT_TRUE(Reader.replayInto(ReplayVC).Ok);
    }
    EXPECT_EQ(ReplayEraser.reportedLocations(),
              LiveEraser.reportedLocations())
        << "seed " << Seed;
    EXPECT_EQ(ReplayVC.reportedLocations(), LiveVC.reportedLocations())
        << "seed " << Seed;
    EXPECT_FALSE(LiveEraser.reportedLocations().empty())
        << "need a racy recording for the comparison to mean anything";
  }
}

//===----------------------------------------------------------------------===
// Streaming writer/reader vs the in-memory log.
//===----------------------------------------------------------------------===

TEST(TraceFileTest, WriterStreamsExactlySerializeBytes) {
  // The streaming writer and EventLog::serialize are two encoders of one
  // format; their output must be byte-identical.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  TempPath Path("stream");

  EventLog Log;
  TraceWriter Writer;
  ASSERT_TRUE(Writer.open(Path).Ok);
  FanoutHooks Fanout{&Log, &Writer};
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P, &Fanout, Opts);
  ASSERT_TRUE(Interp.run().Ok);
  ASSERT_TRUE(Writer.close().Ok);

  std::vector<uint8_t> FromFile = readAll(Path);
  EXPECT_EQ(FromFile, Log.serialize());
  EXPECT_EQ(Writer.bytesWritten(), FromFile.size());
  EXPECT_EQ(Writer.recordsWritten(), Log.size());
}

TEST(TraceFileTest, WriteReadRoundTrip) {
  Program P = testprogs::buildCounter(/*Locked=*/true, 10).P;
  EventLog Log;
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P, &Log, Opts);
  ASSERT_TRUE(Interp.run().Ok);
  ASSERT_GT(Log.size(), 0u);

  TempPath Path("roundtrip");
  ASSERT_TRUE(writeTraceFile(Path, Log).Ok);
  EventLog Restored;
  ASSERT_TRUE(readTraceFile(Path, Restored).Ok);
  EXPECT_EQ(Restored.serialize(), Log.serialize());
}

//===----------------------------------------------------------------------===
// Corruption: every malformed input is a diagnosed error.
//===----------------------------------------------------------------------===

TEST(TraceFileTest, CorruptTracesAreRejectedWithDiagnostics) {
  // One healthy trace, many mutilations.  Each must come back !Ok with a
  // non-empty message (and, under sanitizers, no report).
  EventLog Log;
  Log.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId(0));
  Log.onMonitorEnter(ThreadId(0), LockId(1), false);
  Log.onAccess(ThreadId(0), LocationKey::forField(ObjectId(2), FieldId(1)),
               AccessKind::Write, SiteId(3));
  Log.onMonitorExit(ThreadId(0), LockId(1), false);
  std::vector<uint8_t> Good = Log.serialize();
  TempPath Path("corrupt");

  auto expectRejected = [&](std::vector<uint8_t> Bytes, const char *What) {
    writeAll(Path, Bytes);
    EventLog Out;
    TraceResult TR = readTraceFile(Path, Out);
    EXPECT_FALSE(TR.Ok) << What;
    EXPECT_FALSE(TR.Error.empty()) << What;
    EXPECT_EQ(Out.size(), 0u) << What;
  };

  // Header damage.
  expectRejected({}, "empty file");
  expectRejected({Good.begin(), Good.begin() + 7}, "short header");
  {
    std::vector<uint8_t> B = Good;
    B[0] = 'X';
    expectRejected(B, "bad magic");
  }
  {
    std::vector<uint8_t> B = Good;
    B[8] = 99; // version field
    expectRejected(B, "unsupported version");
  }
  {
    std::vector<uint8_t> B = Good;
    B[10] = 17; // header-size field
    expectRejected(B, "bad header size");
  }
  {
    std::vector<uint8_t> B = Good;
    B[12] = 39; // record-size field
    expectRejected(B, "bad record size");
  }

  // Body damage.
  expectRejected({Good.begin(), Good.end() - 1}, "mid-record truncation");
  {
    std::vector<uint8_t> B = Good;
    B.push_back(0); // one stray byte after the last record
    expectRejected(B, "trailing garbage");
  }
  {
    std::vector<uint8_t> B = Good;
    B[tracefmt::HeaderBytes + tracefmt::RecKind] = 0xEE;
    expectRejected(B, "unknown record kind");
  }
  {
    std::vector<uint8_t> B = Good;
    B[tracefmt::HeaderBytes + tracefmt::RecReserved0] = 1;
    expectRejected(B, "nonzero reserved u16");
  }
  {
    std::vector<uint8_t> B = Good;
    B[tracefmt::HeaderBytes + tracefmt::RecordBytes + tracefmt::RecReserved1 +
      7] = 0x80;
    expectRejected(B, "nonzero reserved u64 in a later record");
  }

  // The untouched original still reads back fine, and a bare header is a
  // valid, empty trace.
  writeAll(Path, Good);
  EventLog Out;
  EXPECT_TRUE(readTraceFile(Path, Out).Ok);
  EXPECT_EQ(Out.serialize(), Good);
  writeAll(Path, {Good.begin(), Good.begin() + tracefmt::HeaderBytes});
  EXPECT_TRUE(readTraceFile(Path, Out).Ok);
  EXPECT_EQ(Out.size(), 0u);
}

TEST(TraceFileTest, ThreadIndicesMustBeCreatedInOrder) {
  LocationKey Loc = LocationKey::forField(ObjectId(2), FieldId(1));
  TempPath Path("threads");
  auto replay = [&](const EventLog &Log) {
    writeAll(Path, Log.serialize());
    EventLog Out;
    return readTraceFile(Path, Out);
  };

  // The interpreter's shape: thread 0's own creation, with no parent,
  // opens the trace.
  EventLog Interp;
  Interp.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId(0));
  Interp.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  Interp.onAccess(ThreadId(1), Loc, AccessKind::Write, SiteId(0));
  Interp.onThreadExit(ThreadId(1));
  Interp.onThreadJoin(ThreadId(0), ThreadId(1));
  EXPECT_TRUE(replay(Interp).Ok);
  // The generators' shape: threads 1..N from thread 0, which is never
  // created itself.
  EventLog Generated;
  Generated.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  Generated.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(2));
  Generated.onAccess(ThreadId(0), Loc, AccessKind::Read, SiteId(0));
  Generated.onAccess(ThreadId(2), Loc, AccessKind::Write, SiteId(1));
  EXPECT_TRUE(replay(Generated).Ok);

  struct Case {
    const char *What;
    EventLog Log;
  };
  std::vector<Case> Cases(6);
  Cases[0].What = "access by a thread never created";
  Cases[0].Log.onAccess(ThreadId(0x7FFFFFFF), Loc, AccessKind::Write,
                        SiteId(0));
  Cases[1].What = "create skipping an index";
  Cases[1].Log.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(1));
  Cases[2].What = "create from a parent never created";
  Cases[2].Log.onThreadCreate(ThreadId(1), ThreadId(5), ObjectId(1));
  Cases[3].What = "join of a thread never created";
  Cases[3].Log.onThreadJoin(ThreadId(0), ThreadId(1));
  Cases[4].What = "thread 0 created after the first record";
  Cases[4].Log.onAccess(ThreadId(0), Loc, AccessKind::Read, SiteId(0));
  Cases[4].Log.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId(0));
  Cases[5].What = "lock taken by a thread never created";
  Cases[5].Log.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  Cases[5].Log.onMonitorEnter(ThreadId(2), LockId(1), false);
  for (const Case &C : Cases) {
    TraceResult TR = replay(C.Log);
    EXPECT_FALSE(TR.Ok) << C.What;
    EXPECT_TRUE(TR.InvalidEvents) << C.What;
    EXPECT_NE(TR.Error.find("record"), std::string::npos) << C.What;
  }
}

TEST(TraceFileTest, CreatesPastTheThreadLimitAreInvalid) {
  // MaxThreads threads, main included, replay; one more create is an
  // impossible event stream, as a start past the limit faults live.
  TempPath Path("thread-limit");
  auto replayCreates = [&](uint32_t Threads) {
    TraceWriter Writer;
    EXPECT_TRUE(Writer.open(Path).Ok);
    for (uint32_t T = 1; T != Threads; ++T)
      Writer.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));
    EXPECT_TRUE(Writer.close().Ok);
    EventLog Out;
    return readTraceFile(Path, Out);
  };
  EXPECT_TRUE(replayCreates(MaxThreads).Ok);
  TraceResult Past = replayCreates(MaxThreads + 1);
  EXPECT_FALSE(Past.Ok);
  EXPECT_TRUE(Past.InvalidEvents);
  EXPECT_NE(Past.Error.find("thread limit"), std::string::npos) << Past.Error;
}

TEST(TraceFileTest, LocksInTheDummyJoinLockRangeAreInvalid) {
  // A program lock at or past FirstDummyLock would alias a thread's dummy
  // join lock (thread 1's is FirstDummyLock + 1) and hide its races.
  TempPath Path("dummy-lock");
  auto replayLock = [&](uint32_t Lock, bool Exit) {
    EventLog Log;
    Log.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
    // A valid exit needs its enter; an exit in the dummy range fails on its
    // lock before the monitor rules look at it.
    if (!Exit || Lock < FirstDummyLock)
      Log.onMonitorEnter(ThreadId(1), LockId(Lock), false);
    if (Exit)
      Log.onMonitorExit(ThreadId(1), LockId(Lock), false);
    writeAll(Path, Log.serialize());
    EventLog Out;
    return readTraceFile(Path, Out);
  };
  for (bool Exit : {false, true}) {
    EXPECT_TRUE(replayLock(FirstDummyLock - 1, Exit).Ok) << Exit;
    for (uint32_t Lock : {FirstDummyLock, FirstDummyLock + 1, 0xFFFFFFFFu}) {
      TraceResult TR = replayLock(Lock, Exit);
      EXPECT_FALSE(TR.Ok) << Lock;
      EXPECT_TRUE(TR.InvalidEvents) << Lock;
      EXPECT_NE(TR.Error.find("dummy join lock"), std::string::npos)
          << TR.Error;
    }
  }
}

TEST(TraceFileTest, MonitorRecordsFollowTheRecursionCounts) {
  // The interpreter's monitors count recursion per thread and lock: an
  // enter is Recursive iff the thread already holds the lock, and an exit
  // is StillHeld iff an enclosing enter remains.
  TempPath Path("monitors");
  auto replay = [&](const EventLog &Log) {
    writeAll(Path, Log.serialize());
    EventLog Out;
    return readTraceFile(Path, Out);
  };
  const ThreadId T1(1), T2(2);
  const LockId A(3), B(4);
  auto start = [&](EventLog &Log) {
    Log.onThreadCreate(T1, ThreadId(0), ObjectId(1));
    Log.onThreadCreate(T2, ThreadId(0), ObjectId(2));
  };

  // Nested, recursive and out-of-order releases, and two threads taking
  // the same lock in turn, all replay.
  EventLog Good;
  start(Good);
  Good.onMonitorEnter(T1, A, false);
  Good.onMonitorEnter(T1, B, false);
  Good.onMonitorEnter(T1, A, true);
  Good.onMonitorExit(T1, A, true);
  Good.onMonitorExit(T1, A, false);
  Good.onMonitorExit(T1, B, false);
  Good.onMonitorEnter(T2, A, false);
  Good.onMonitorExit(T2, A, false);
  EXPECT_TRUE(replay(Good).Ok) << replay(Good).Error;

  struct Case {
    const char *What;
    EventLog Log;
  };
  std::vector<Case> Cases(6);
  Cases[0].What = "exit of a lock never taken";
  Cases[0].Log.onMonitorExit(T1, A, false);
  Cases[1].What = "exit of a lock another thread holds";
  Cases[1].Log.onMonitorEnter(T1, A, false);
  Cases[1].Log.onMonitorExit(T2, A, false);
  Cases[2].What = "recursive enter of a lock not held";
  Cases[2].Log.onMonitorEnter(T1, A, true);
  Cases[3].What = "first enter of a lock already held";
  Cases[3].Log.onMonitorEnter(T1, A, false);
  Cases[3].Log.onMonitorEnter(T1, A, false);
  Cases[4].What = "still-held exit of the last hold";
  Cases[4].Log.onMonitorEnter(T1, A, false);
  Cases[4].Log.onMonitorExit(T1, A, true);
  Cases[5].What = "final exit inside an enclosing enter";
  Cases[5].Log.onMonitorEnter(T1, A, false);
  Cases[5].Log.onMonitorEnter(T1, A, true);
  Cases[5].Log.onMonitorExit(T1, A, false);
  for (Case &C : Cases) {
    EventLog Log;
    start(Log);
    C.Log.replayInto(Log);
    TraceResult TR = replay(Log);
    EXPECT_FALSE(TR.Ok) << C.What;
    EXPECT_TRUE(TR.InvalidEvents) << C.What;
    EXPECT_NE(TR.Error.find("lock 3"), std::string::npos)
        << C.What << ": " << TR.Error;
  }
}

TEST(TraceFileTest, EntersRewrittenAsExitsAreInvalid) {
  // Figure2's recording with each MonitorEnter record rewritten as a final
  // MonitorExit: the runtimes once popped an empty lock stack on it.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  TempPath Path("enters-as-exits");
  ToolConfig Record = ToolConfig::full();
  Record.RecordTracePath = Path.str();
  ASSERT_TRUE(runPipeline(P, Record).Trace.Ok);
  std::vector<uint8_t> Bytes = readAll(Path);
  size_t Rewritten = 0;
  for (size_t At = tracefmt::HeaderBytes; At < Bytes.size();
       At += tracefmt::RecordBytes) {
    uint8_t &Kind = Bytes[At + tracefmt::RecKind];
    if (Kind == uint8_t(EventLog::RecordKind::MonitorEnter)) {
      Kind = uint8_t(EventLog::RecordKind::MonitorExit);
      Bytes[At + tracefmt::RecFlags] = 0;
      ++Rewritten;
    }
  }
  ASSERT_GT(Rewritten, 0u);
  writeAll(Path, Bytes);
  for (uint32_t Shards : {0u, 2u}) {
    ToolConfig Cfg = ToolConfig::full();
    Cfg.Shards = Shards;
    PipelineResult Res = replayTracePipeline(P, Cfg, Path);
    EXPECT_FALSE(Res.Trace.Ok) << Shards << " shards";
    EXPECT_TRUE(Res.Trace.InvalidEvents) << Shards << " shards";
    EXPECT_NE(Res.Trace.Error.find("which it does not hold"),
              std::string::npos)
        << Res.Trace.Error;
  }
}

TEST(TracePipelineTest, ReplayErrorsSurfaceDiagnostics) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);

  // Nonexistent file.
  PipelineResult Missing = replayTracePipeline(P, ToolConfig::full(),
                                               TempPath("does-not-exist"));
  EXPECT_FALSE(Missing.Trace.Ok);
  EXPECT_FALSE(Missing.Run.Ok);
  EXPECT_FALSE(Missing.Trace.Error.empty());

  // Corrupt file, through the sharded runtime: workers must still shut
  // down cleanly when the replay aborts partway.
  TempPath Path("replay-corrupt");
  EventLog Log;
  Log.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId(0));
  Log.onAccess(ThreadId(0), LocationKey::forField(ObjectId(1), FieldId(0)),
               AccessKind::Write, SiteId(0));
  std::vector<uint8_t> Bytes = Log.serialize();
  Bytes.resize(Bytes.size() - 3); // cut into the final record
  writeAll(Path, Bytes);

  ToolConfig Cfg = ToolConfig::full();
  Cfg.Shards = 3;
  PipelineResult Corrupt = replayTracePipeline(P, Cfg, Path);
  EXPECT_FALSE(Corrupt.Trace.Ok);
  EXPECT_FALSE(Corrupt.Run.Ok);
  EXPECT_NE(Corrupt.Run.Error.find("trace"), std::string::npos);
}

TEST(TraceFileTest, WriterReportsUnopenablePath) {
  TraceWriter Writer;
  TraceResult TR = Writer.open("/nonexistent-dir/trace.bin");
  EXPECT_FALSE(TR.Ok);
  EXPECT_FALSE(TR.Error.empty());
  EXPECT_FALSE(Writer.isOpen());
}

} // namespace
