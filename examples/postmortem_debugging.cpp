//===- examples/postmortem_debugging.cpp - The Section 2.6 workflow -------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Walks the paper's debugging workflow end to end (Section 2.6):
///
///   1. run the program with the cheap online detector while recording
///      the schedule (the DejaVu role) and the event log;
///   2. the online detector reports *one* access per racy location
///      (Definition 1) — enough to know something is wrong and where;
///   3. replay the identical interleaving offline and reconstruct the
///      full set of racing pairs (FullRace), "the expensive
///      reconstruction" the paper defers to replay time;
///   4. show that the event log alone (post-mortem mode) reaches the same
///      conclusions without re-running the program at all.
///
//===----------------------------------------------------------------------===//

#include "baselines/NaiveDetector.h"
#include "detect/EventLog.h"
#include "detect/RaceRuntime.h"
#include "detect/TraceFile.h"
#include "ir/IRBuilder.h"
#include "runtime/Interpreter.h"
#include "support/TempPath.h"

#include <cstdio>

using namespace herd;

namespace {

/// Two workers hammer a shared configuration object: `generation` is
/// racy, `settings` is properly locked.
Program buildWorkload() {
  Program P;
  IRBuilder B(P);
  ClassId Config = B.makeClass("Config");
  FieldId Gen = B.makeField(Config, "generation");
  FieldId Setting = B.makeField(Config, "setting");
  ClassId Worker = B.makeClass("Refresher");
  FieldId Target = B.makeField(Worker, "config");

  B.startMethod(Worker, "run", 1);
  {
    RegId Cfg = B.emitGetField(B.thisReg(), Target);
    RegId N = B.emitConst(12);
    B.forLoop(0, N, 1, [&](RegId I) {
      B.site("refresh:generation");
      RegId G = B.emitGetField(Cfg, Gen); // unsynchronized read
      B.emitPutField(Cfg, Gen,
                     B.emitBinOp(BinOpKind::Add, G, B.emitConst(1)));
      B.sync(Cfg, [&] {
        B.site("refresh:setting");
        B.emitPutField(Cfg, Setting, I);
      });
    });
    B.emitReturn();
  }
  B.startMain();
  RegId Cfg = B.emitNew(Config);
  RegId W1 = B.emitNew(Worker);
  RegId W2 = B.emitNew(Worker);
  B.emitPutField(W1, Target, Cfg);
  B.emitPutField(W2, Target, Cfg);
  B.emitThreadStart(W1);
  B.emitThreadStart(W2);
  B.emitThreadJoin(W1);
  B.emitThreadJoin(W2);
  B.emitPrint(B.emitGetField(Cfg, Gen));
  B.emitReturn();
  return P;
}

} // namespace

int main() {
  std::printf("Post-mortem debugging workflow (paper Section 2.6)\n\n");
  Program P = buildWorkload();

  // Step 1: online detection + recording.
  RaceRuntime Online;
  EventLog Log;
  ScheduleTrace Trace;
  FanoutHooks Fanout{&Online, &Log};
  InterpOptions Opts;
  Opts.Seed = 11;
  Opts.TraceEveryAccess = true;
  Opts.Record = &Trace;
  Interpreter Recorder(P, &Fanout, Opts);
  InterpResult R = Recorder.run();
  if (!R.Ok) {
    std::printf("run failed: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("[1] online run: %llu events observed, %zu race report(s), "
              "%zu schedule slices recorded, %zu log records\n",
              (unsigned long long)R.AccessEvents, Online.reporter().size(),
              Trace.Slices.size(), Log.size());
  for (const RaceRecord &Rec : Online.reporter().records())
    std::printf("    racy location raw=%llx (thread %u)\n",
                (unsigned long long)Rec.Location.raw(),
                Rec.CurrentThread.index());

  // Step 2+3: replay the exact interleaving; reconstruct FullRace.
  NaiveDetector Oracle;
  InterpOptions ReplayOpts;
  ReplayOpts.Replay = &Trace;
  ReplayOpts.TraceEveryAccess = true;
  Interpreter Replayer(P, &Oracle, ReplayOpts);
  InterpResult R2 = Replayer.run();
  std::printf("\n[2] replay: %s, identical instruction count: %s\n",
              R2.Ok ? "ok" : "FAILED",
              R2.InstructionsExecuted == R.InstructionsExecuted ? "yes"
                                                                : "no");
  std::printf("[3] FullRace reconstruction on the replayed run:\n");
  for (LocationKey Loc : Oracle.racyLocations())
    std::printf("    location raw=%llx participates in %zu racing pair(s)\n",
                (unsigned long long)Loc.raw(), Oracle.memRaceSize(Loc));
  std::printf("    (the online detector reported each location once — "
              "Definition 1 —\n     while replay enumerates every pair)\n");

  // Step 4: pure post-mortem from the log, written to a trace file and
  // read back as a separate analysis process would.
  TempPath TracePath("postmortem");
  EventLog Restored;
  TraceResult Res = writeTraceFile(TracePath, Log);
  if (Res)
    Res = readTraceFile(TracePath, Restored);
  if (!Res) {
    std::printf("trace file unusable: %s\n", Res.Error.c_str());
    return 1;
  }
  RaceRuntime Offline;
  Restored.replayInto(Offline);
  bool Match = Offline.reporter().reportedLocations() ==
               Online.reporter().reportedLocations();
  std::printf("\n[4] post-mortem from a %zu-record trace file (no "
              "re-execution): %zu report(s), locations %s the online run\n",
              Restored.size(), Offline.reporter().size(),
              Match ? "match" : "DIFFER FROM");
  return Match ? 0 : 1;
}
