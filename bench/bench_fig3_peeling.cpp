//===- bench/bench_fig3_peeling.cpp - Figure 3 regeneration ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the effect behind Figure 3, the loop peeling example: a
/// loop whose body writes `a.f` (a PEI, so the instrumentation cannot be
/// hoisted) is instrumented with and without peeling.  With peeling, the
/// body trace is statically weaker-than-covered by the peeled first
/// iteration and removed, so the loop emits at most one event instead of
/// one per iteration.
///
/// The sweep over iteration counts shows the crossover: peeling's benefit
/// grows linearly with trip count while its (tiny) code-size cost is
/// constant.  The speedup is the paired NoPeeling / Full time ratio
/// (PairedRatio.h).
///
//===----------------------------------------------------------------------===//

#include "PairedRatio.h"
#include "herd/Pipeline.h"
#include "ir/IRBuilder.h"

#include <cstdio>

using namespace herd;

namespace {

/// The Figure 3 loop: for (...) { PEI; a.f = ...; trace(a,f,L,W) }.
Program buildFig3(int64_t Iters) {
  Program P;
  IRBuilder B(P);
  ClassId A = B.makeClass("A");
  FieldId F = B.makeField(A, "f");
  ClassId Other = B.makeClass("Other");
  FieldId OF = B.makeField(Other, "g");
  ClassId Worker = B.makeClass("Worker");
  FieldId WShared = B.makeField(Worker, "shared");
  // A second thread shares the object so the accesses are in the static
  // race set (a single-threaded loop would be statically race-free).
  B.startMethod(Worker, "run", 1);
  {
    RegId Obj = B.emitGetField(B.thisReg(), WShared);
    B.emitPutField(Obj, F, B.emitConst(-1));
    B.emitReturn();
  }
  B.startMain();
  RegId Obj = B.emitNew(A);
  RegId W = B.emitNew(Worker);
  B.emitPutField(W, WShared, Obj);
  B.emitThreadStart(W);
  B.emitThreadJoin(W);
  RegId N = B.emitConst(Iters);
  B.site("S12");
  B.forLoop(0, N, 1, [&](RegId I) {
    B.emitPutField(Obj, F, I); // S11/S12: the PEI + the access
  });
  B.emitPrint(B.emitGetField(Obj, F));
  (void)OF;
  B.emitReturn();
  return P;
}

} // namespace

int main() {
  std::printf("Figure 3: loop peeling ablation (events emitted by the "
              "instrumented loop, and the\nmedian per-pair NoPeeling / "
              "Full time with its quartiles)\n");
  printEnvStamp();
  std::printf("\n%10s %16s %16s %22s\n", "trip-count", "events(peeled)",
              "events(no peel)", "speedup [q1, q3]");

  for (int64_t Iters : {10, 100, 1000, 10000, 100000}) {
    Program P = buildFig3(Iters);
    uint64_t Events[2] = {};
    auto Time = [&](const ToolConfig &Config, uint64_t &EventsSeen) {
      PipelineResult R = runPipeline(P, Config);
      checkRun(R.Run);
      EventsSeen = R.Stats.EventsSeen;
      return R.ExecSeconds;
    };
    Quartiles Speedup =
        pairedRatio([&] { return Time(ToolConfig::full(), Events[0]); },
                    [&] { return Time(ToolConfig::noPeeling(), Events[1]); });
    std::printf("%10lld %16llu %16llu %8.2fx [%.2fx, %.2fx]\n",
                (long long)Iters, (unsigned long long)Events[0],
                (unsigned long long)Events[1], Speedup.Median, Speedup.Q1,
                Speedup.Q3);
  }
  return 0;
}
