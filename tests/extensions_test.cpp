//===- tests/extensions_test.cpp - EventLog and deadlock extension --------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the two extensions beyond the core reproduction:
///   - EventLog: post-mortem detection (record, replay) —
///     Section 1 says the approach "could be easily modified to perform
///     post-mortem datarace detection"; this proves it;
///   - DeadlockDetector: the Section 10 future-work item, implemented as a
///     Goodlock-style lock-order-graph analysis over the same hook stream.
///
//===----------------------------------------------------------------------===//

#include "detect/DeadlockDetector.h"
#include "detect/EventLog.h"
#include "detect/RaceRuntime.h"
#include "ir/IRBuilder.h"
#include "runtime/Interpreter.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace herd;
using namespace herd::testprogs;

namespace {

//===----------------------------------------------------------------------===
// EventLog: post-mortem detection.
//===----------------------------------------------------------------------===

TEST(EventLogTest, RecordsEveryEventInOrder) {
  EventLog Log;
  Log.onThreadCreate(ThreadId(0), ThreadId::invalid(), ObjectId::invalid());
  Log.onMonitorEnter(ThreadId(0), LockId(5), false);
  Log.onAccess(ThreadId(0), LocationKey::forField(ObjectId(1), FieldId(0)),
               AccessKind::Write, SiteId(3));
  Log.onMonitorExit(ThreadId(0), LockId(5), false);
  Log.onThreadExit(ThreadId(0));
  ASSERT_EQ(Log.size(), 5u);
  EXPECT_EQ(Log.records()[0].Kind, EventLog::RecordKind::ThreadCreate);
  EXPECT_EQ(Log.records()[2].Kind, EventLog::RecordKind::Access);
  EXPECT_EQ(Log.records()[2].Site, SiteId(3));
}

TEST(EventLogTest, PostMortemDetectionEqualsOnline) {
  // Record a racy execution, then replay the log into a fresh detector:
  // the offline reports must match the online ones exactly.
  CounterProgram CP = buildCounter(/*Locked=*/false, 20);

  RaceRuntime Online;
  EventLog Log;
  FanoutHooks Fanout{&Online, &Log};
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(CP.P, &Fanout, Opts);
  ASSERT_TRUE(Interp.run().Ok);

  RaceRuntime Offline;
  Log.replayInto(Offline);
  EXPECT_EQ(Offline.reporter().reportedLocations(),
            Online.reporter().reportedLocations());
  EXPECT_EQ(Offline.reporter().size(), Online.reporter().size());
}

//===----------------------------------------------------------------------===
// Deadlock detection.
//===----------------------------------------------------------------------===

void acquire(DeadlockDetector &D, ThreadId T,
             std::initializer_list<uint32_t> Locks) {
  for (uint32_t L : Locks)
    D.onMonitorEnter(T, LockId(L), false);
  for (auto It = std::rbegin(Locks); It != std::rend(Locks); ++It)
    D.onMonitorExit(T, LockId(*It), false);
}

TEST(DeadlockTest, ClassicABBAReported) {
  DeadlockDetector D;
  acquire(D, ThreadId(1), {1, 2}); // T1: a then b
  acquire(D, ThreadId(2), {2, 1}); // T2: b then a
  auto Cycles = D.findPotentialDeadlocks();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Locks,
            (std::vector<LockId>{LockId(1), LockId(2)}));
}

TEST(DeadlockTest, ConsistentOrderIsSilent) {
  DeadlockDetector D;
  acquire(D, ThreadId(1), {1, 2});
  acquire(D, ThreadId(2), {1, 2});
  EXPECT_TRUE(D.findPotentialDeadlocks().empty());
}

TEST(DeadlockTest, SameThreadInversionIsSilent) {
  // One thread taking both orders at different times cannot deadlock with
  // itself.
  DeadlockDetector D;
  acquire(D, ThreadId(1), {1, 2});
  acquire(D, ThreadId(1), {2, 1});
  EXPECT_TRUE(D.findPotentialDeadlocks().empty());
}

TEST(DeadlockTest, GateLockSuppressesTheReport) {
  // Both inversions happen under a common outer lock g: the acquisitions
  // are serialized and the interleaving that deadlocks is impossible.
  DeadlockDetector D;
  acquire(D, ThreadId(1), {9, 1, 2});
  acquire(D, ThreadId(2), {9, 2, 1});
  EXPECT_TRUE(D.findPotentialDeadlocks().empty());
}

TEST(DeadlockTest, DifferentGatesDoNotSuppress) {
  DeadlockDetector D;
  acquire(D, ThreadId(1), {8, 1, 2});
  acquire(D, ThreadId(2), {9, 2, 1});
  EXPECT_EQ(D.findPotentialDeadlocks().size(), 1u);
}

TEST(DeadlockTest, ThreeCycleDetected) {
  DeadlockDetector D;
  acquire(D, ThreadId(1), {1, 2});
  acquire(D, ThreadId(2), {2, 3});
  acquire(D, ThreadId(3), {3, 1});
  auto Cycles = D.findPotentialDeadlocks();
  ASSERT_EQ(Cycles.size(), 1u);
  EXPECT_EQ(Cycles[0].Locks.size(), 3u);
}

TEST(DeadlockTest, RecursiveAcquisitionIgnored) {
  DeadlockDetector D;
  D.onMonitorEnter(ThreadId(1), LockId(1), false);
  D.onMonitorEnter(ThreadId(1), LockId(1), true); // reentrant
  D.onMonitorEnter(ThreadId(1), LockId(2), false);
  D.onMonitorExit(ThreadId(1), LockId(2), false);
  D.onMonitorExit(ThreadId(1), LockId(1), true);
  D.onMonitorExit(ThreadId(1), LockId(1), false);
  acquire(D, ThreadId(2), {2, 1});
  EXPECT_EQ(D.findPotentialDeadlocks().size(), 1u);
  EXPECT_EQ(D.numEdges(), 2u);
}

TEST(DeadlockTest, EndToEndOnAnInterpretedProgram) {
  // The interpreter_test deadlock program, but observed by the deadlock
  // detector on a schedule where the deadlock does NOT manifest: the
  // potential is still reported (the feasible-hazard philosophy).
  Program P;
  IRBuilder B(P);
  ClassId LockCls = B.makeClass("L");
  ClassId Worker = B.makeClass("W");
  FieldId FA = B.makeField(Worker, "a");
  FieldId FB = B.makeField(Worker, "b");
  B.startMethod(Worker, "run", 1);
  {
    RegId A = B.emitGetField(B.thisReg(), FA);
    RegId Bo = B.emitGetField(B.thisReg(), FB);
    B.sync(A, [&] { B.sync(Bo, [&] { B.emitYield(); }); });
    B.emitReturn();
  }
  B.startMain();
  RegId A = B.emitNew(LockCls);
  RegId Bo = B.emitNew(LockCls);
  RegId W = B.emitNew(Worker);
  B.emitPutField(W, FA, A);
  B.emitPutField(W, FB, Bo);
  B.emitThreadStart(W);
  B.emitThreadJoin(W);
  // Main takes the opposite order AFTER the join: never deadlocks in any
  // schedule of this program, but the lock-order inversion is real and a
  // later refactor could expose it.
  B.sync(Bo, [&] { B.sync(A, [&] { B.emitYield(); }); });
  B.emitReturn();

  DeadlockDetector D;
  Interpreter Interp(P, &D, InterpOptions{});
  ASSERT_TRUE(Interp.run().Ok);
  EXPECT_EQ(D.findPotentialDeadlocks().size(), 1u);
}

} // namespace
