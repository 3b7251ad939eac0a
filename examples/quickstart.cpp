//===- examples/quickstart.cpp - Figure 2 walked through ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: builds the paper's Figure 2 program with the IRBuilder API,
/// runs the full Figure 1 pipeline, and prints what each phase did and the
/// resulting race report.  Then re-runs the Section 2.2 variant (the two
/// synchronized blocks use the same lock object) and shows that the
/// lockset detector still reports the *feasible* race while a pure
/// happens-before (vector clock) detector stays silent.
///
//===----------------------------------------------------------------------===//

#include "baselines/VectorClockDetector.h"
#include "herd/Pipeline.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"

#include <cstdio>
#include <string_view>

using namespace herd;

namespace {

/// Figure 2 of the paper: main writes x.f, then starts T1 (synchronized
/// foo writing a.f and, under lock p, b.g = b.f) and T2 (under lock q,
/// d.f = 10), where a, b, d, x alias one object.
Program buildFigure2(bool SamePQ) {
  Program P;
  IRBuilder B(P);
  ClassId Data = B.makeClass("Data");
  FieldId F = B.makeField(Data, "f");
  FieldId G = B.makeField(Data, "g");
  ClassId LockCls = B.makeClass("LockObj");

  ClassId Child1 = B.makeClass("Child1");
  FieldId C1A = B.makeField(Child1, "a");
  FieldId C1B = B.makeField(Child1, "b");
  FieldId C1P = B.makeField(Child1, "p");
  MethodId Foo = B.startMethod(Child1, "foo", 1, /*IsStatic=*/false,
                               /*IsSynchronized=*/true); // T10
  {
    B.site("T11");
    RegId A = B.emitGetField(B.thisReg(), C1A);
    B.emitPutField(A, F, B.emitConst(50));
    RegId Pl = B.emitGetField(B.thisReg(), C1P);
    B.sync(Pl, [&] { // T13
      B.site("T14");
      RegId Bo = B.emitGetField(B.thisReg(), C1B);
      B.emitPutField(Bo, G, B.emitGetField(Bo, F));
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
    B.sync(Q, [&] { // T20
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
  B.emitThreadStart(T1); // T04
  B.emitThreadStart(T2); // T05
  B.emitReturn();
  return P;
}

void runAndReport(const Program &P, const char *Title) {
  std::printf("=== %s ===\n", Title);
  PipelineResult R = runPipeline(P, ToolConfig::full());
  if (!R.Run.Ok) {
    std::printf("execution failed: %s\n", R.Run.Error.c_str());
    return;
  }
  std::printf("phase 1  static analysis: %zu access statements, "
              "%zu in the static datarace set (%zu may-race pairs)\n",
              R.Static.ReachableAccessStatements, R.Static.RaceSetSize,
              R.Static.MayRacePairs);
  std::printf("phase 2  instrumentation: %zu traces inserted, "
              "%zu removed by static weaker-than, %zu loops peeled\n",
              R.Instr.TracesInserted, R.Instr.TracesRemoved,
              R.Instr.LoopsPeeled);
  std::printf("phase 3  runtime optimizer: %llu events, %llu cache hits\n",
              (unsigned long long)R.Stats.EventsSeen,
              (unsigned long long)R.Stats.CacheHits);
  std::printf("phase 4  detector: %llu filtered as owned, %llu as weaker; "
              "%zu race report(s)\n",
              (unsigned long long)R.Stats.Detector.OwnedFiltered,
              (unsigned long long)R.Stats.Detector.WeakerFiltered,
              R.Reports.size());
  for (std::string_view Line : R.FormattedRaces)
    std::printf("  %.*s\n", int(Line.size()), Line.data());
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("HERD quickstart: the paper's Figure 2 example\n\n");
  Program P = buildFigure2(/*SamePQ=*/false);
  std::printf("The example program (MiniJ IR):\n\n%s\n",
              printProgram(P).c_str());

  runAndReport(P, "Figure 2 as printed in the paper (p != q)");
  std::printf("Note: T01's write by main is NOT implicated — the ownership\n"
              "model absorbs initialization that start() orders before the\n"
              "children (Section 2.3).\n\n");

  Program P2 = buildFigure2(/*SamePQ=*/true);
  runAndReport(P2, "Section 2.2 variant: p and q are the same lock");
  std::printf("The race between T11 and T21 is *feasible*: it did not\n"
              "manifest in this schedule (the common lock ordered the two\n"
              "critical sections), but it would under another schedule.\n"
              "A happens-before detector cannot see it:\n\n");

  // Drive the happens-before baseline over the same execution.
  VectorClockDetector VC;
  InterpOptions Opts;
  Opts.TraceEveryAccess = true;
  Interpreter Interp(P2, &VC, Opts);
  InterpResult R = Interp.run();
  std::printf("vector-clock detector on the same program: %zu report(s) "
              "(run %s)\n",
              VC.reportedLocations().size(), R.Ok ? "ok" : "failed");
  std::printf("\nThis is the paper's core precision argument (Section 2.2):\n"
              "lockset-based detection reports the bug in every schedule.\n");
  return 0;
}
