//===- tests/TestPrograms.h - Shared MiniJ test programs --------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small MiniJ programs shared by the analysis, instrumentation and
/// pipeline tests, and the corpus helpers of the differential suites.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_TESTS_TESTPROGRAMS_H
#define HERD_TESTS_TESTPROGRAMS_H

#include "ir/IRBuilder.h"
#include "ir/Program.h"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace herd {
namespace testprogs {

/// Two worker threads increment `Shared.count` NumIters times each; main
/// joins and prints the total.  With \p Locked the increment runs inside
/// synchronized(shared).
struct CounterProgram {
  Program P;
  ClassId SharedCls;
  FieldId Count;
  MethodId Run;
};

inline CounterProgram buildCounter(bool Locked, int64_t NumIters) {
  CounterProgram Out;
  IRBuilder B(Out.P);
  Out.SharedCls = B.makeClass("Shared");
  Out.Count = B.makeField(Out.SharedCls, "count");
  ClassId Worker = B.makeClass("Worker");
  FieldId Target = B.makeField(Worker, "target");

  Out.Run = B.startMethod(Worker, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), Target);
    RegId N = B.emitConst(NumIters);
    B.forLoop(0, N, 1, [&](RegId) {
      auto Increment = [&] {
        B.site("INC");
        RegId Cur = B.emitGetField(Obj, Out.Count);
        RegId One = B.emitConst(1);
        B.emitPutField(Obj, Out.Count, B.emitBinOp(BinOpKind::Add, Cur, One));
      };
      if (Locked)
        B.sync(Obj, Increment);
      else
        Increment();
    });
    B.emitReturn();
  }

  B.startMain();
  RegId SharedObj = B.emitNew(Out.SharedCls);
  RegId W1 = B.emitNew(Worker);
  RegId W2 = B.emitNew(Worker);
  B.emitPutField(W1, Target, SharedObj);
  B.emitPutField(W2, Target, SharedObj);
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitPrint(B.emitGetField(SharedObj, Out.Count));
  B.emitReturn();
  return Out;
}

/// The paper's Figure 2 program (see Section 2.2).  \p SamePQ makes the
/// two synchronized blocks use the same lock object.  Tests that need
/// precise instruction references locate them by their site labels.
inline Program buildFigure2(bool SamePQ, FieldId *FOut = nullptr,
                            FieldId *GOut = nullptr) {
  Program P;
  IRBuilder B(P);
  ClassId Data = B.makeClass("Data");
  FieldId F = B.makeField(Data, "f");
  FieldId G = B.makeField(Data, "g");
  if (FOut)
    *FOut = F;
  if (GOut)
    *GOut = G;
  ClassId LockCls = B.makeClass("LockObj");

  ClassId Child1 = B.makeClass("Child1");
  FieldId C1A = B.makeField(Child1, "a");
  FieldId C1B = B.makeField(Child1, "b");
  FieldId C1P = B.makeField(Child1, "p");
  MethodId Foo = B.startMethod(Child1, "foo", 1, /*IsStatic=*/false,
                               /*IsSynchronized=*/true);
  {
    B.site("T11");
    RegId A = B.emitGetField(B.thisReg(), C1A);
    B.emitPutField(A, F, B.emitConst(50));
    RegId Pl = B.emitGetField(B.thisReg(), C1P);
    B.sync(Pl, [&] {
      B.site("T14");
      RegId Bo = B.emitGetField(B.thisReg(), C1B);
      RegId Read = B.emitGetField(Bo, F);
      B.emitPutField(Bo, G, Read);
    });
    B.emitReturn();
  }
  B.startMethod(Child1, "run", 1);
  B.emitCallVoid(Foo, {B.thisReg()});
  B.emitReturn();

  ClassId Child2 = B.makeClass("Child2");
  FieldId C2D = B.makeField(Child2, "d");
  FieldId C2Q = B.makeField(Child2, "q");
  B.startMethod(Child2, "run", 1);
  {
    RegId Q = B.emitGetField(B.thisReg(), C2Q);
    B.sync(Q, [&] {
      B.site("T21");
      RegId D = B.emitGetField(B.thisReg(), C2D);
      B.emitPutField(D, F, B.emitConst(10));
    });
    B.emitReturn();
  }

  B.startMain();
  RegId X = B.emitNew(Data);
  B.site("T01");
  B.emitPutField(X, F, B.emitConst(100));
  B.site("");
  RegId T1 = B.emitNew(Child1);
  RegId T2 = B.emitNew(Child2);
  RegId PLock = B.emitNew(LockCls);
  RegId QLock = SamePQ ? PLock : B.emitNew(LockCls);
  B.emitPutField(T1, C1A, X);
  B.emitPutField(T1, C1B, X);
  B.emitPutField(T1, C1P, PLock);
  B.emitPutField(T2, C2D, X);
  B.emitPutField(T2, C2Q, QLock);
  B.emitThreadStart(T1);
  B.emitThreadStart(T2);
  B.emitReturn();
  return P;
}

/// A single-threaded program with a loop of array writes plus a PEI, the
/// shape of Figure 3 (loop peeling's motivating example).
inline Program buildFig3Loop(int64_t Iters) {
  Program P;
  IRBuilder B(P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  RegId N = B.emitConst(Iters);
  B.forLoop(0, N, 1, [&](RegId I) {
    B.site("S12");
    // a.f = i  — the PutField is itself a PEI (null check), like S11/S12.
    B.emitPutField(Obj, F, I);
  });
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();
  return P;
}

/// Every named program the differential suites run: the programs above,
/// each under a name for its diagnostics.
inline std::vector<std::pair<std::string, Program>> namedCorpus() {
  std::vector<std::pair<std::string, Program>> Out;
  Out.emplace_back("counter-unlocked", buildCounter(/*Locked=*/false, 25).P);
  Out.emplace_back("counter-locked", buildCounter(/*Locked=*/true, 25).P);
  Out.emplace_back("figure2", buildFigure2(/*SamePQ=*/false));
  Out.emplace_back("figure2-samepq", buildFigure2(/*SamePQ=*/true));
  Out.emplace_back("fig3-loop", buildFig3Loop(40));
  return Out;
}

/// The whole file at \p Path, or "" when it cannot be read.
inline std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace testprogs
} // namespace herd

#endif // HERD_TESTS_TESTPROGRAMS_H
