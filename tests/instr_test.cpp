//===- tests/instr_test.cpp - Instrumentation phase tests -----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for Section 6: trace insertion, the static weaker-than
/// elimination (Definition 3/4: Exec, outer(), value numbering, kill at
/// calls and thread operations), and loop peeling (Section 6.3).
///
//===----------------------------------------------------------------------===//

#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "runtime/Interpreter.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace herd;
using namespace herd::testprogs;

namespace {

size_t countTraces(const Program &P) {
  size_t Count = 0;
  for (size_t MI = 0; MI != P.numMethods(); ++MI)
    for (const BasicBlock &Block : P.method(MethodId{uint32_t(MI)}).Blocks)
      for (const Instr &I : Block.Instrs)
        if (I.Op == Opcode::Trace)
          ++Count;
  return Count;
}

/// Instruments every access (NoStatic mode) with configurable
/// optimizations.
InstrumenterStats instrumentAll(Program &P, bool WeakerThan, bool Peeling) {
  InstrumenterOptions Opts;
  Opts.UseStaticRaceSet = false;
  Opts.StaticWeakerThan = WeakerThan;
  Opts.LoopPeeling = Peeling;
  return instrumentProgram(P, Opts, nullptr);
}

/// Counts access events an instrumented program emits when run.
uint64_t runAndCountEvents(const Program &P, uint64_t Seed = 1) {
  struct Counter : RuntimeHooks {
    uint64_t Events = 0;
    void onAccess(ThreadId, LocationKey, AccessKind, SiteId) override {
      ++Events;
    }
  } Hooks;
  InterpOptions Opts;
  Opts.Seed = Seed;
  Interpreter Interp(P, &Hooks, Opts);
  InterpResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return Hooks.Events;
}

std::vector<int64_t> runForOutput(const Program &P, uint64_t Seed = 1) {
  Interpreter Interp(P, nullptr, InterpOptions{Seed});
  InterpResult R = Interp.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

TEST(TraceInsertionTest, EveryAccessGetsATrace) {
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  FieldId S = B.makeStaticField(Box, "s");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId V = B.emitConst(1);
  B.emitPutField(Obj, F, V);        // trace 1 (write)
  B.emitPrint(B.emitGetStatic(S));  // trace 2 (read)
  RegId Arr = B.emitNewArray(V);
  RegId Zero = B.emitConst(0);
  B.emitAStore(Arr, Zero, V);       // trace 3 (write)
  B.emitReturn();

  InstrumenterStats Stats = instrumentAll(P, /*WeakerThan=*/false, false);
  EXPECT_EQ(Stats.TracesInserted, 3u);
  EXPECT_EQ(countTraces(P), 3u);
  EXPECT_TRUE(verifyProgram(P).empty());
}

TEST(TraceInsertionTest, TraceMirrorsAccessShape) {
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  B.site("W1");
  B.emitPutField(Obj, F, B.emitConst(1));
  B.emitReturn();
  instrumentAll(P, false, false);

  const Instr *Trace = nullptr;
  const Instr *Access = nullptr;
  for (const BasicBlock &Block : P.method(P.MainMethod).Blocks)
    for (const Instr &I : Block.Instrs) {
      if (I.Op == Opcode::Trace)
        Trace = &I;
      if (I.Op == Opcode::PutField)
        Access = &I;
    }
  ASSERT_NE(Trace, nullptr);
  ASSERT_NE(Access, nullptr);
  EXPECT_EQ(Trace->TraceWhat, TraceWhatKind::Field);
  EXPECT_EQ(Trace->A, Access->A);
  EXPECT_EQ(Trace->Field, Access->Field);
  EXPECT_EQ(Trace->Access, AccessKind::Write);
  EXPECT_EQ(Trace->Site, Access->Site);
}

TEST(RedundancyElimTest, RepeatedAccessCollapsesToOneTrace) {
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId V = B.emitConst(1);
  B.emitPutField(Obj, F, V);
  B.emitPutField(Obj, F, V); // redundant trace
  B.emitPrint(B.emitGetField(Obj, F)); // read covered by the write
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesInserted, 3u);
  EXPECT_EQ(Stats.TracesRemoved, 2u);
  EXPECT_EQ(countTraces(P), 1u);
  EXPECT_TRUE(verifyProgram(P).empty());
}

TEST(RedundancyElimTest, ReadDoesNotCoverWrite) {
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  B.emitPrint(B.emitGetField(Obj, F)); // read first
  B.emitPutField(Obj, F, B.emitConst(1)); // write must stay traced
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
  EXPECT_EQ(countTraces(P), 2u);
}

TEST(RedundancyElimTest, CallKillsAvailability) {
  // Definition 4: a method invocation between S_i and S_j blocks the
  // elimination (the callee may start threads / change ordering).
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  MethodId Noop = B.startMethod(Box, "noop", 1);
  B.emitReturn();
  B.startMain();
  RegId Obj = B.emitNew(Box);
  B.emitPutField(Obj, F, B.emitConst(1));
  B.emitCallVoid(Noop, {Obj});
  B.emitPutField(Obj, F, B.emitConst(2)); // not redundant: call between
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
}

TEST(RedundancyElimTest, ThreadStartKillsAvailability) {
  // Definition 3: no start() may separate S_i and S_j.
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  ClassId Worker = B.makeClass("Worker");
  B.startMethod(Worker, "run", 1);
  B.emitReturn();
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId W = B.emitNew(Worker);
  B.emitPutField(Obj, F, B.emitConst(1));
  B.emitThreadStart(W);
  B.emitPutField(Obj, F, B.emitConst(2));
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
}

TEST(RedundancyElimTest, BaseRedefinitionKillsAvailability) {
  // Value numbering: after the base register is redefined it names a
  // different object; the second trace observes a different location.
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId N = B.emitConst(2);
  RegId V = B.emitConst(9);
  // Two objects accessed through the same register via a loop-free trick:
  // write obj1.f, overwrite the register with obj2, write obj2.f.
  RegId Obj = B.emitNew(Box);
  B.emitPutField(Obj, F, V);
  Instr Redefine;
  Redefine.Op = Opcode::New;
  Redefine.Dst = Obj;
  Redefine.Class = Box;
  Redefine.AllocSite = P.addAllocSite(Box, P.MainMethod, false);
  P.method(P.MainMethod).Blocks[0].Instrs.push_back(Redefine);
  B.emitPutField(Obj, F, V); // same register, different object!
  B.emitPrint(N);
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
  EXPECT_EQ(countTraces(P), 2u);
}

TEST(RedundancyElimTest, OuterNestingAllowsElimination) {
  // S_i outside a monitor region covers S_j inside it: S_j's lockset is a
  // superset (the outer() condition of Section 6.1).
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId V = B.emitConst(1);
  B.emitPutField(Obj, F, V); // S_i: no locks
  B.sync(Obj, [&] {
    B.emitPutField(Obj, F, V); // S_j: deeper nesting — removable
  });
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 1u);
}

TEST(RedundancyElimTest, InnerAccessDoesNotCoverOuter) {
  // The reverse direction is NOT redundant: after monitorexit the earlier
  // (locked) event no longer implies the unlocked one.
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId V = B.emitConst(1);
  B.sync(Obj, [&] { B.emitPutField(Obj, F, V); });
  B.emitPutField(Obj, F, V); // weaker lockset: must stay traced
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
}

TEST(RedundancyElimTest, BranchesRequireAllPathsCoverage) {
  // The trace after the join is redundant only if both arms produced a
  // covering event.
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId V = B.emitConst(1);
  RegId Cond = B.emitConst(1);
  B.ifThenElse(
      Cond, [&] { B.emitPutField(Obj, F, V); },
      [&] { B.emitPrint(V); }); // else arm has no access
  B.emitPutField(Obj, F, V);    // NOT redundant (else path uncovered)
  B.emitReturn();
  InstrumenterStats Stats = instrumentAll(P, true, false);
  EXPECT_EQ(Stats.TracesRemoved, 0u);

  // Now with both arms covering, the final trace is removable.
  Program P2;
  IRBuilder B2(P2);
  ClassId Box2 = B2.makeClass("Box");
  FieldId F2 = B2.makeField(Box2, "f");
  B2.startMain();
  RegId Obj2 = B2.emitNew(Box2);
  RegId V2 = B2.emitConst(1);
  RegId Cond2 = B2.emitConst(1);
  B2.ifThenElse(
      Cond2, [&] { B2.emitPutField(Obj2, F2, V2); },
      [&] { B2.emitPutField(Obj2, F2, V2); });
  B2.emitPutField(Obj2, F2, V2); // redundant on every path
  B2.emitReturn();
  InstrumenterStats Stats2 = instrumentAll(P2, true, false);
  EXPECT_EQ(Stats2.TracesRemoved, 1u);
}

TEST(LoopPeelingTest, PeelsTraceLoopAndElimRemovesBodyTrace) {
  Program P = buildFig3Loop(10);
  std::vector<int64_t> Expected = runForOutput(P);

  InstrumenterStats Stats = instrumentAll(P, /*WeakerThan=*/true,
                                          /*Peeling=*/true);
  EXPECT_TRUE(verifyProgram(P).empty());
  EXPECT_GE(Stats.LoopsPeeled, 1u);
  // The in-loop trace is removed; the peeled first-iteration copy keeps
  // one (plus the final read's trace which the write covers... the read
  // comes after the loop and is covered only if the loop ran — it is not
  // removable because the zero-trip path lacks coverage).
  EXPECT_GE(Stats.TracesRemoved, 1u);

  // Semantics preserved.
  EXPECT_EQ(runForOutput(P), Expected);

  // Events at runtime: without peeling the loop traces every iteration.
  Program NoPeel = buildFig3Loop(10);
  instrumentAll(NoPeel, true, false);
  uint64_t EventsPeeled = runAndCountEvents(P);
  uint64_t EventsUnpeeled = runAndCountEvents(NoPeel);
  EXPECT_LT(EventsPeeled, EventsUnpeeled);
}

TEST(LoopPeelingTest, PeelingAloneChangesNothingObservable) {
  // Peeling must preserve semantics for any seed even with nested control
  // flow in the loop body.
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId N = B.emitConst(7);
  B.forLoop(0, N, 1, [&](RegId I) {
    RegId Two = B.emitConst(2);
    RegId IsEven = B.emitBinOp(BinOpKind::Mod, I, Two);
    B.ifThenElse(
        IsEven, [&] { B.emitPutField(Obj, F, I); },
        [&] {
          RegId Cur = B.emitGetField(Obj, F);
          B.emitPutField(Obj, F, B.emitBinOp(BinOpKind::Add, Cur, I));
        });
  });
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();

  std::vector<int64_t> Expected = runForOutput(P);
  instrumentAll(P, true, true);
  ASSERT_TRUE(verifyProgram(P).empty());
  EXPECT_EQ(runForOutput(P), Expected);
}

TEST(LoopPeelingTest, CappedPeeling) {
  Program P = buildFig3Loop(5);
  instrumentAll(P, true, false);
  // Direct call with a zero cap: nothing peeled.
  EXPECT_EQ(peelTraceLoops(P, P.MainMethod, 0), 0u);
}

TEST(InstrumenterTest, NoDominatorsSkipsElimAndPeeling) {
  Program P = buildFig3Loop(5);
  InstrumenterStats Stats = instrumentAll(P, /*WeakerThan=*/false,
                                          /*Peeling=*/true);
  EXPECT_EQ(Stats.TracesRemoved, 0u);
  EXPECT_EQ(Stats.LoopsPeeled, 0u);
}

TEST(InstrumenterTest, InstrumentationPreservesCounterSemantics) {
  for (uint64_t Seed : {1u, 9u, 33u}) {
    CounterProgram Plain = buildCounter(true, 20);
    std::vector<int64_t> Expected = runForOutput(Plain.P, Seed);
    CounterProgram Instrumented = buildCounter(true, 20);
    instrumentAll(Instrumented.P, true, true);
    ASSERT_TRUE(verifyProgram(Instrumented.P).empty());
    // Note: the instruction streams differ, so the interleavings differ;
    // with correct locking the result must still be exact.
    EXPECT_EQ(runForOutput(Instrumented.P, Seed), Expected);
  }
}

//===----------------------------------------------------------------------===
// Superinstruction fusion (instr/Superinstr.h, docs/INTERPRETER.md)
//===----------------------------------------------------------------------===

/// Counts fused pseudo-opcodes of \p Kind across the shadow code.
size_t countFused(const ThreadedCode &TC, Opcode Kind) {
  size_t Count = 0;
  for (const auto &Blocks : TC.MethodBlocks)
    for (const BasicBlock &Block : Blocks)
      for (const Instr &I : Block.Instrs)
        if (I.Op == Kind)
          ++Count;
  return Count;
}

TEST(SuperinstrTest, CounterIncrementFusesReadModifyWrite) {
  // `o.count = o.count + 1` lowers to GetField; Const; BinOp; PutField —
  // the Const;BinOp pair fuses (greedy, left to right), and the pass
  // records each site exactly once.
  Program P = buildCounter(/*Locked=*/false, 10).P;
  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_GT(TC.Stats.sites(), 0u);
  EXPECT_EQ(countFused(TC, OpFusedConstBinOp), TC.Stats.ConstBinOpSites);
  EXPECT_EQ(countFused(TC, OpFusedConstPutField),
            TC.Stats.ConstPutFieldSites);
  EXPECT_EQ(countFused(TC, OpFusedGetBinPut), TC.Stats.GetBinPutSites);
}

TEST(SuperinstrTest, ShadowNeverMutatesTheProgram) {
  // The verified IR is untouchable: the shadow is a copy, the original
  // still verifies, and the shadow's constituents keep their opcodes and
  // operands at ip+1.. (what makes mid-sequence resumption work).
  Program P = buildCounter(/*Locked=*/true, 10).P;
  ThreadedCode TC = buildThreadedCode(P);
  ASSERT_TRUE(verifyProgram(P).empty());
  for (size_t M = 0; M != P.numMethods(); ++M) {
    const auto &Orig = P.method(MethodId(uint32_t(M))).Blocks;
    const auto &Shadow = TC.MethodBlocks[M];
    ASSERT_EQ(Orig.size(), Shadow.size());
    for (size_t BI = 0; BI != Orig.size(); ++BI) {
      ASSERT_EQ(Orig[BI].Instrs.size(), Shadow[BI].Instrs.size());
      for (size_t II = 0; II != Orig[BI].Instrs.size(); ++II) {
        const Instr &O = Orig[BI].Instrs[II];
        const Instr &S = Shadow[BI].Instrs[II];
        EXPECT_FALSE(isFusedOpcode(O.Op)) << "fused opcode leaked into IR";
        if (isFusedOpcode(S.Op)) {
          // A rewritten head keeps everything but the opcode, and every
          // constituent after it is verbatim.
          EXPECT_EQ(S.Dst, O.Dst);
          EXPECT_EQ(S.A, O.A);
          for (uint32_t K = 1; K != fusedLength(S.Op); ++K)
            EXPECT_EQ(Shadow[BI].Instrs[II + K].Op,
                      Orig[BI].Instrs[II + K].Op);
        } else {
          EXPECT_EQ(S.Op, O.Op);
        }
      }
    }
  }
}

TEST(SuperinstrTest, DivAndModNeverFuse) {
  // Division faults (the PEI); the exception boundary must stay a
  // dispatch boundary, so Const feeding Div/Mod does not fuse.
  for (BinOpKind Kind : {BinOpKind::Div, BinOpKind::Mod}) {
    Program P;
    IRBuilder B(P);
    B.startMain();
    RegId X = B.emitConst(100);
    RegId D = B.emitConst(3);
    B.emitPrint(B.emitBinOp(Kind, X, D)); // Const; BinOp(div/mod)
    B.emitReturn();
    ThreadedCode TC = buildThreadedCode(P);
    EXPECT_EQ(TC.Stats.ConstBinOpSites, 0u);
  }
  // The same shape with Add does fuse — the guard is the PEI, not the
  // pattern.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId X = B.emitConst(100);
  RegId D = B.emitConst(3);
  B.emitPrint(B.emitBinOp(BinOpKind::Add, X, D));
  B.emitReturn();
  EXPECT_EQ(buildThreadedCode(P).Stats.ConstBinOpSites, 1u);
}

TEST(SuperinstrTest, UnfedAdjacencyDoesNotFuse) {
  // Const directly before a BinOp that does not consume its result: the
  // pair is adjacent but not dataflow-fed, so it must not fuse.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId A = B.emitConst(1);
  RegId C = B.emitConst(2);
  (void)C; // adjacent to the BinOp below, but feeds nothing
  B.emitPrint(B.emitBinOp(BinOpKind::Add, A, A));
  B.emitReturn();
  EXPECT_EQ(buildThreadedCode(P).Stats.ConstBinOpSites, 0u);
}

TEST(SuperinstrTest, SequencesNeverCrossBlockBoundaries) {
  // Const at the end of one block, the BinOp it feeds at the start of the
  // jump target: a branch target must begin at an ordinary instruction,
  // so nothing may fuse across the edge.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId X = B.emitConst(7);
  BlockId Next = B.newBlock();
  B.emitJump(Next);
  B.setBlock(Next);
  B.emitPrint(B.emitBinOp(BinOpKind::Add, X, X));
  B.emitReturn();
  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.sites(), 0u);
}

TEST(SuperinstrTest, InstrumentedAccessBlocksFusion) {
  // Instrumentation inserts the Trace AFTER the access it observes; a
  // sequence whose trailing instruction is such an access must not fuse,
  // or the access and its Trace would land in different dispatch steps.
  auto Build = [] {
    Program P;
    IRBuilder B(P);
    ClassId C = B.makeClass("Box");
    FieldId F = B.makeField(C, "f");
    ClassId W = B.makeClass("W");
    FieldId T = B.makeField(W, "t");
    // A second thread shares Box.f so the access is in the race set.
    B.startMethod(W, "run", 1);
    RegId Obj = B.emitGetField(B.thisReg(), T);
    B.emitPutField(Obj, F, B.emitConst(9)); // Const; PutField
    B.emitReturn();
    B.startMain();
    RegId Box = B.emitNew(C);
    RegId Worker = B.emitNew(W);
    B.emitPutField(Worker, T, Box);
    B.emitThreadStart(Worker);
    B.emitPutField(Box, F, B.emitConst(5)); // Const; PutField
    B.emitReturn();
    return P;
  };

  Program Plain = Build();
  EXPECT_GE(buildThreadedCode(Plain).Stats.ConstPutFieldSites, 2u);

  Program Instrumented = Build();
  instrumentAll(Instrumented, /*WeakerThan=*/false, /*Peeling=*/false);
  ThreadedCode TC = buildThreadedCode(Instrumented);
  // Every Const;PutField tail is now Trace-instrumented: zero fusions of
  // that kind survive...
  EXPECT_EQ(TC.Stats.ConstPutFieldSites, 0u);
  EXPECT_EQ(TC.Stats.GetBinPutSites, 0u);
  // ...and no fused sequence anywhere covers an instruction whose
  // successor is the Trace observing it.
  for (const auto &Blocks : TC.MethodBlocks)
    for (const BasicBlock &Block : Blocks)
      for (size_t I = 0; I != Block.Instrs.size(); ++I)
        if (isFusedOpcode(Block.Instrs[I].Op)) {
          size_t Last = I + fusedLength(Block.Instrs[I].Op) - 1;
          const Instr &Tail = Block.Instrs[Last];
          bool TailIsAccess = Tail.Op == Opcode::PutField ||
                              Tail.Op == Opcode::GetField;
          if (TailIsAccess && Last + 1 < Block.Instrs.size()) {
            EXPECT_NE(Block.Instrs[Last + 1].Op, Opcode::Trace)
                << "fused over an instrumented access";
          }
        }
}

TEST(SuperinstrTest, FusionDisabledYieldsVerbatimShadow) {
  Program P = buildCounter(/*Locked=*/false, 10).P;
  SuperinstrOptions Opts;
  Opts.Fuse = false;
  ThreadedCode TC = buildThreadedCode(P, Opts);
  EXPECT_EQ(TC.Stats.sites(), 0u);
  for (size_t M = 0; M != P.numMethods(); ++M) {
    const auto &Orig = P.method(MethodId(uint32_t(M))).Blocks;
    ASSERT_EQ(Orig.size(), TC.MethodBlocks[M].size());
    for (size_t BI = 0; BI != Orig.size(); ++BI) {
      ASSERT_EQ(Orig[BI].Instrs.size(), TC.MethodBlocks[M][BI].Instrs.size());
      for (size_t II = 0; II != Orig[BI].Instrs.size(); ++II)
        EXPECT_EQ(TC.MethodBlocks[M][BI].Instrs[II].Op,
                  Orig[BI].Instrs[II].Op);
    }
  }
}

TEST(SuperinstrTest, GreedyMatchingNeverOverlaps) {
  // GetField; BinOp; PutField; Const; BinOp: the triple claims the first
  // three, and the following pair fuses independently — constituents are
  // never shared between sequences.
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "f");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId Cur = B.emitGetField(Obj, F);
  RegId One = B.emitConst(1);
  B.emitPutField(Obj, F, B.emitBinOp(BinOpKind::Add, Cur, One));
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();
  ThreadedCode TC = buildThreadedCode(P);
  // GetField; Const; BinOp; PutField: the GetField cannot head a triple
  // (a Const sits between it and the BinOp), so the Const;BinOp pair
  // fuses instead.  Fused heads never overlap: walking the shadow,
  // every constituent of one sequence is skipped before the next match.
  EXPECT_EQ(TC.Stats.ConstBinOpSites, 1u);
  for (const auto &Blocks : TC.MethodBlocks)
    for (const BasicBlock &Block : Blocks) {
      size_t I = 0;
      while (I != Block.Instrs.size()) {
        if (isFusedOpcode(Block.Instrs[I].Op)) {
          for (uint32_t K = 1; K != fusedLength(Block.Instrs[I].Op); ++K)
            EXPECT_FALSE(isFusedOpcode(Block.Instrs[I + K].Op))
                << "overlapping fusion";
          I += fusedLength(Block.Instrs[I].Op);
        } else {
          ++I;
        }
      }
    }
}

//===----------------------------------------------------------------------===
// Widened fusion pairs + batched quantum retirement plan
//===----------------------------------------------------------------------===

/// Asserts the batch-retirement plan is internally consistent: BatchLens
/// mirrors the shadow's shape, every planned prefix honors \p MinLen and
/// fits its block, and Stats.BatchBlocks/BatchSteps are exactly the
/// count and sum of the nonzero entries.
void expectBatchPlanConsistent(const ThreadedCode &TC, uint32_t MinLen) {
  uint64_t Blocks = 0, Steps = 0;
  ASSERT_EQ(TC.BatchLens.size(), TC.MethodBlocks.size());
  for (size_t M = 0; M != TC.BatchLens.size(); ++M) {
    ASSERT_EQ(TC.BatchLens[M].size(), TC.MethodBlocks[M].size());
    for (size_t BI = 0; BI != TC.BatchLens[M].size(); ++BI) {
      uint32_t Len = TC.BatchLens[M][BI];
      if (Len == 0)
        continue;
      EXPECT_GE(Len, MinLen);
      EXPECT_LE(Len, TC.MethodBlocks[M][BI].Instrs.size());
      ++Blocks;
      Steps += Len;
    }
  }
  EXPECT_EQ(Blocks, TC.Stats.BatchBlocks);
  EXPECT_EQ(Steps, TC.Stats.BatchSteps);
}

TEST(SuperinstrTest, BinOpFeedingBranchFuses) {
  // `if (a + a) ...` with the BinOp directly conditioning the branch.
  // The preceding Const feeds nothing adjacent, so Const;BinOp cannot
  // claim the BinOp first.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId A = B.emitConst(1);
  RegId Unused = B.emitConst(2);
  (void)Unused;
  RegId Cond = B.emitBinOp(BinOpKind::Add, A, A);
  BlockId T = B.newBlock();
  BlockId F = B.newBlock();
  B.emitBranch(Cond, T, F);
  B.setBlock(T);
  B.emitReturn();
  B.setBlock(F);
  B.emitReturn();

  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.BinOpBranchSites, 1u);
  EXPECT_EQ(countFused(TC, OpFusedBinOpBranch), TC.Stats.BinOpBranchSites);

  // The fused pair carries a control transfer in its tail, so it can
  // never join a retirement batch — even with the plan threshold at its
  // floor, the entry block's prefix stops before the fused head.
  SuperinstrOptions Low;
  Low.MinBatchLen = 2;
  ThreadedCode TCLow = buildThreadedCode(P, Low);
  EXPECT_EQ(TCLow.BatchLens[0][0], 2u); // Const; Const only
  expectBatchPlanConsistent(TCLow, Low.MinBatchLen);
}

TEST(SuperinstrTest, GetFieldFeedingBinOpFuses) {
  // `o.f + o.f` with no PutField tail: the triple cannot match, the
  // GetField;BinOp pair does.
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "f");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId Cur = B.emitGetField(Obj, F);
  B.emitPrint(B.emitBinOp(BinOpKind::Add, Cur, Cur));
  B.emitReturn();

  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.GetFieldBinOpSites, 1u);
  EXPECT_EQ(TC.Stats.GetBinPutSites, 0u);
  EXPECT_EQ(countFused(TC, OpFusedGetFieldBinOp),
            TC.Stats.GetFieldBinOpSites);
}

TEST(SuperinstrTest, BinOpFeedingPutFieldFuses) {
  // `o.f = a + a` where the BinOp is not itself fed by an adjacent Const
  // or GetField — the computed-store pair fuses.
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "f");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId A = B.emitConst(1);
  RegId Unused = B.emitConst(2);
  (void)Unused;
  RegId Sum = B.emitBinOp(BinOpKind::Add, A, A);
  B.emitPutField(Obj, F, Sum);
  B.emitReturn();

  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.BinOpPutFieldSites, 1u);
  EXPECT_EQ(countFused(TC, OpFusedBinOpPutField),
            TC.Stats.BinOpPutFieldSites);
}

TEST(SuperinstrTest, BinOpFeedingMoveFuses) {
  // `x = a + a` into a named local via Move.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId A = B.emitConst(1);
  RegId Unused = B.emitConst(2);
  (void)Unused;
  RegId Sum = B.emitBinOp(BinOpKind::Add, A, A);
  B.emitPrint(B.emitMove(Sum));
  B.emitReturn();

  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.BinOpMoveSites, 1u);
  EXPECT_EQ(countFused(TC, OpFusedBinOpMove), TC.Stats.BinOpMoveSites);
}

/// A single straight-line block: Const; 14x BinOp; Print; Return.
/// 16 batchable instructions ahead of the terminator.
Program buildLongStraightLine() {
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId X = B.emitConst(1);
  for (int I = 0; I != 14; ++I)
    X = B.emitBinOp(BinOpKind::Add, X, X);
  B.emitPrint(X);
  B.emitReturn();
  return P;
}

TEST(SuperinstrTest, BatchPlanCoversLongStraightLineBlocks) {
  Program P = buildLongStraightLine();
  ThreadedCode TC = buildThreadedCode(P); // default MinBatchLen = 12
  // The prefix covers everything up to the Return, counted in
  // constituent instructions (the fused Const;BinOp head counts 2).
  EXPECT_EQ(TC.BatchLens[0][0], 16u);
  EXPECT_EQ(TC.Stats.BatchBlocks, 1u);
  EXPECT_EQ(TC.Stats.BatchSteps, 16u);
  expectBatchPlanConsistent(TC, SuperinstrOptions{}.MinBatchLen);
}

TEST(SuperinstrTest, ShortBlocksFallBelowTheDefaultThreshold) {
  // Const; Const; BinOp; Print (4 batchable steps): far below the
  // default MinBatchLen, so the plan reports zero — the per-step derived
  // accounting already handles short runs at its floor cost.  Lowering
  // the threshold to 2 plans the same prefix.
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId A = B.emitConst(1);
  RegId C = B.emitConst(2);
  B.emitPrint(B.emitBinOp(BinOpKind::Add, A, C));
  B.emitReturn();

  ThreadedCode Default = buildThreadedCode(P);
  EXPECT_EQ(Default.BatchLens[0][0], 0u);
  EXPECT_EQ(Default.Stats.BatchBlocks, 0u);
  EXPECT_EQ(Default.Stats.BatchSteps, 0u);

  SuperinstrOptions Low;
  Low.MinBatchLen = 2;
  ThreadedCode Planned = buildThreadedCode(P, Low);
  EXPECT_EQ(Planned.BatchLens[0][0], 4u);
  expectBatchPlanConsistent(Planned, Low.MinBatchLen);
}

TEST(SuperinstrTest, BatchDisabledZeroesThePlan) {
  // A MinBatchLen above every prefix leaves every BatchLens entry at
  // zero while fusion keeps working.
  Program P = buildLongStraightLine();
  SuperinstrOptions Opts;
  Opts.MinBatchLen = UINT32_MAX;
  ThreadedCode TC = buildThreadedCode(P, Opts);
  EXPECT_GT(TC.Stats.sites(), 0u);
  EXPECT_EQ(TC.Stats.BatchBlocks, 0u);
  EXPECT_EQ(TC.Stats.BatchSteps, 0u);
  for (const auto &Lens : TC.BatchLens)
    for (uint32_t Len : Lens)
      EXPECT_EQ(Len, 0u);
}

TEST(SuperinstrTest, BatchPrefixStopsAtInstrumentedAccess) {
  // New; Const; 12x BinOp; PutField; 12x BinOp; Print; Return.  Plain,
  // the whole straight-line run batches (uninstrumented accesses cannot
  // end a slice).  Instrumented, the PutField gains a Trace and fuses
  // with it into one access+trace head, and the prefix must stop in front
  // of that head so the access and its Trace retire per step with the
  // schedule intact.
  auto Build = [] {
    Program P;
    IRBuilder B(P);
    ClassId C = B.makeClass("Box");
    FieldId F = B.makeField(C, "f");
    B.startMain();
    RegId Obj = B.emitNew(C);
    RegId X = B.emitConst(1);
    for (int I = 0; I != 12; ++I)
      X = B.emitBinOp(BinOpKind::Add, X, X);
    B.emitPutField(Obj, F, X);
    for (int I = 0; I != 12; ++I)
      X = B.emitBinOp(BinOpKind::Add, X, X);
    B.emitPrint(X);
    B.emitReturn();
    return P;
  };

  Program Plain = Build();
  ThreadedCode TCPlain = buildThreadedCode(Plain);
  EXPECT_EQ(TCPlain.BatchLens[0][0], 28u); // everything but the Return

  Program Instrumented = Build();
  instrumentAll(Instrumented, /*WeakerThan=*/false, /*Peeling=*/false);
  ThreadedCode TC = buildThreadedCode(Instrumented);
  ASSERT_LT(TC.BatchLens[0][0], TCPlain.BatchLens[0][0]);
  // The prefix ends exactly at the instrumented access: New + Const +
  // 12 BinOps = 14 steps, then the fused PutField/Trace head, whose
  // Trace constituent stays in place behind it.
  ASSERT_EQ(TC.BatchLens[0][0], 14u);
  const std::vector<Instr> &Instrs = TC.MethodBlocks[0][0].Instrs;
  EXPECT_EQ(Instrs[14].Op, OpFusedPutFieldTrace);
  EXPECT_EQ(Instrs[15].Op, Opcode::Trace);
  EXPECT_EQ(TC.Stats.AccessTraceSites, 1u);
  expectBatchPlanConsistent(TC, SuperinstrOptions{}.MinBatchLen);
  // Fusing the pair leaves the batch plan exactly where the unfused
  // shadow puts it.
  SuperinstrOptions NoFuse;
  NoFuse.Fuse = false;
  ThreadedCode Unfused = buildThreadedCode(Instrumented, NoFuse);
  EXPECT_EQ(Unfused.MethodBlocks[0][0].Instrs[14].Op, Opcode::PutField);
  EXPECT_EQ(Unfused.BatchLens, TC.BatchLens);
}

TEST(SuperinstrTest, EveryAccessKindFusesWithItsTrace) {
  // One instrumented access of each kind: each becomes its own
  // access+trace head, counted once in the family's site count.
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "f");
  FieldId S = B.makeStaticField(C, "s");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId Arr = B.emitNewArray(B.emitConst(2));
  RegId Zero = B.emitConst(0);
  B.emitPutField(Obj, F, Zero);
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitPutStatic(S, Zero);
  B.emitPrint(B.emitGetStatic(S));
  B.emitAStore(Arr, Zero, Zero);
  B.emitPrint(B.emitALoad(Arr, Zero));
  B.emitReturn();
  instrumentAll(P, /*WeakerThan=*/false, /*Peeling=*/false);
  ASSERT_TRUE(verifyProgram(P).empty());

  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.AccessTraceSites, 6u);
  for (Opcode Head : {OpFusedGetFieldTrace, OpFusedPutFieldTrace,
                      OpFusedGetStaticTrace, OpFusedPutStaticTrace,
                      OpFusedALoadTrace, OpFusedAStoreTrace}) {
    SCOPED_TRACE(fusedOpcodeName(Head));
    EXPECT_EQ(countFused(TC, Head), 1u);
    EXPECT_TRUE(isAccessTraceOpcode(Head));
    EXPECT_EQ(fusedLength(Head), 2u);
  }
  // Each head sits where its access was, and the Trace it fused with
  // follows verbatim.
  const std::vector<Instr> &Orig = P.method(P.MainMethod).Blocks[0].Instrs;
  const std::vector<Instr> &Shadow = TC.MethodBlocks[P.MainMethod.index()][0]
                                         .Instrs;
  for (size_t I = 0; I != Shadow.size(); ++I)
    if (isAccessTraceOpcode(Shadow[I].Op)) {
      EXPECT_EQ(Shadow[I].Op, accessTraceOpcode(Orig[I].Op));
      EXPECT_EQ(Shadow[I + 1].Op, Opcode::Trace);
    }
}

TEST(SuperinstrTest, TraceOfAnotherLocationDoesNotFuse) {
  // The fused handler keys the Trace on what the access resolved, so a
  // Trace that does not mirror the access in front of it (another base
  // register here) must stay a separate instruction.
  Program P;
  IRBuilder B(P);
  ClassId C = B.makeClass("Box");
  FieldId F = B.makeField(C, "f");
  B.startMain();
  RegId Obj = B.emitNew(C);
  RegId Other = B.emitNew(C);
  B.emitPutField(Obj, F, B.emitConst(1));
  B.emitReturn();
  instrumentAll(P, /*WeakerThan=*/false, /*Peeling=*/false);
  for (Instr &I : P.method(P.MainMethod).Blocks[0].Instrs)
    if (I.Op == Opcode::Trace)
      I.A = Other;
  ASSERT_TRUE(verifyProgram(P).empty());
  ThreadedCode TC = buildThreadedCode(P);
  EXPECT_EQ(TC.Stats.AccessTraceSites, 0u);
  // Still an instrumented access: nothing else fuses over it either.
  EXPECT_EQ(TC.Stats.ConstPutFieldSites, 0u);
}

} // namespace
