//===- tools/herd.cpp - The herd command-line driver ----------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `herd` command-line tool: compile a MiniJ source file, run it under
/// the detection pipeline, and print race reports.
///
///   herd prog.mj                    # full pipeline, defaults
///   herd prog.mj --seed=7           # a different schedule
///   herd prog.mj --config=nocache   # a Table 2 ablation
///   herd prog.mj --stats            # pipeline statistics
///   herd prog.mj --stats=json       # machine-readable statistics
///   herd prog.mj --trace-json=t.json# Chrome trace_event timeline
///   herd prog.mj --profile          # interpreter opcode profile
///   herd prog.mj --dump-ir          # print the MiniJ IR and exit
///   herd prog.mj --sweep=20         # run 20 seeds; summarize reports
///
/// Argument parsing lives in herd/HerdOptions.{h,cpp} so the flag grammar
/// and its error paths are unit-tested (tests/cli_test.cpp); this file is
/// only the I/O shell around the pipeline.
///
//===----------------------------------------------------------------------===//

#include "baselines/EraserDetector.h"
#include "baselines/NaiveDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/TraceFile.h"
#include "frontend/Frontend.h"
#include "herd/HerdOptions.h"
#include "herd/Pipeline.h"
#include "herd/ReportExport.h"
#include "herd/StatsJson.h"
#include "ir/Printer.h"
#include "runtime/InterpProfiler.h"
#include "support/Metrics.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace herd;

namespace {

void printStats(const PipelineResult &R) {
  std::printf("-- statistics --\n");
  std::printf("static:   %zu access statements, %zu in race set, "
              "%zu may-race pairs\n",
              R.Static.ReachableAccessStatements, R.Static.RaceSetSize,
              R.Static.MayRacePairs);
  std::printf("instr:    %zu traces inserted, %zu removed, %zu loops "
              "peeled\n",
              R.Instr.TracesInserted, R.Instr.TracesRemoved,
              R.Instr.LoopsPeeled);
  std::printf("dispatch: %s, %llu fused sites "
              "(%llu const+binop, %llu const+putfield, %llu get+binop+put, "
              "%llu access+trace), %llu fused executions (%llu "
              "access+trace)\n",
              dispatchModeName(R.Dispatch),
              (unsigned long long)R.Fusion.sites(),
              (unsigned long long)R.Fusion.ConstBinOpSites,
              (unsigned long long)R.Fusion.ConstPutFieldSites,
              (unsigned long long)R.Fusion.GetBinPutSites,
              (unsigned long long)R.Fusion.AccessTraceSites,
              (unsigned long long)R.Run.Fused.total(),
              (unsigned long long)R.Run.Fused.AccessTrace);
  std::printf("run:      %llu instructions, %u threads, %.4fs\n",
              (unsigned long long)R.Run.InstructionsExecuted,
              R.Run.ThreadsCreated, R.ExecSeconds);
  if (R.EpochBackend) {
    // The epoch backend has no cache/ownership/trie machinery; its own
    // counters replace the herd detector sections (docs/DETECTORS.md).
    const EpochStats &E = R.Epoch;
    std::printf("epoch:    %llu events (%llu reads, %llu writes), "
                "%llu same-epoch reads, %llu same-epoch writes\n",
                (unsigned long long)E.Events, (unsigned long long)E.Reads,
                (unsigned long long)E.Writes,
                (unsigned long long)E.SameEpochReads,
                (unsigned long long)E.SameEpochWrites);
    std::printf("epoch:    %llu read inflations, %llu shared collapses, "
                "%llu clock rows (%llu reused)\n",
                (unsigned long long)E.ReadInflations,
                (unsigned long long)E.SharedCollapses,
                (unsigned long long)E.ClockRowsFresh,
                (unsigned long long)E.ClockRowsReused);
    std::printf("epoch:    %llu locations tracked, %llu threads, %llu racy "
                "locations\n",
                (unsigned long long)E.LocationsTracked,
                (unsigned long long)E.ThreadsSeen,
                (unsigned long long)E.RacesReported);
    if (R.TraceRecords != 0 || R.TraceBytes != 0)
      std::printf("trace:    %llu records, %llu bytes\n",
                  (unsigned long long)R.TraceRecords,
                  (unsigned long long)R.TraceBytes);
    return;
  }
  std::printf("events:   %llu seen, %llu cache hits, %llu to detector\n",
              (unsigned long long)R.Stats.EventsSeen,
              (unsigned long long)R.Stats.CacheHits,
              (unsigned long long)R.Stats.Detector.EventsIn);
  std::printf("detector: %llu owned-filtered, %llu weaker-filtered, "
              "%zu locations tracked, %zu trie nodes\n",
              (unsigned long long)R.Stats.Detector.OwnedFiltered,
              (unsigned long long)R.Stats.Detector.WeakerFiltered,
              R.Stats.Detector.LocationsTracked,
              R.Stats.Detector.TrieNodes);
  for (const ThreadCacheStats &TC : R.Stats.PerThreadCache) {
    double Rate = TC.lookups()
                      ? 100.0 * double(TC.hits()) / double(TC.lookups())
                      : 0.0;
    std::printf("cache t%-2u %llu/%llu hits (%.1f%%), read %llu/%llu, "
                "write %llu/%llu\n",
                TC.Thread, (unsigned long long)TC.hits(),
                (unsigned long long)TC.lookups(), Rate,
                (unsigned long long)TC.ReadHits,
                (unsigned long long)(TC.ReadHits + TC.ReadMisses),
                (unsigned long long)TC.WriteHits,
                (unsigned long long)(TC.WriteHits + TC.WriteMisses));
  }
  for (size_t I = 0; I != R.ShardBreakdown.size(); ++I) {
    const ShardStats &S = R.ShardBreakdown[I];
    std::printf("shard %zu:  %llu events in %llu batches, max queue depth "
                "%zu, %zu trie nodes, %llu races\n",
                I, (unsigned long long)S.EventsIngested,
                (unsigned long long)S.BatchesIngested,
                S.MaxQueueDepthBatches, S.Detector.TrieNodes,
                (unsigned long long)S.Detector.RacesReported);
  }
  if (R.TraceRecords != 0 || R.TraceBytes != 0)
    std::printf("trace:    %llu records, %llu bytes\n",
                (unsigned long long)R.TraceRecords,
                (unsigned long long)R.TraceBytes);
}

/// `herd --replay --detector=<baseline>`: feed the trace to one of the
/// comparison detectors and report its racy locations.
int replayBaseline(const Program &P, const std::string &TracePath,
                   const std::string &Detector) {
  std::set<LocationKey> Racy;
  TraceReader Reader;
  TraceResult TR = Reader.open(TracePath);
  if (TR.Ok) {
    if (Detector == "eraser") {
      EraserDetector D;
      TR = Reader.replayInto(D);
      D.onRunEnd();
      Racy = D.reportedLocations();
    } else if (Detector == "vectorclock") {
      VectorClockDetector D;
      TR = Reader.replayInto(D);
      D.onRunEnd();
      Racy = D.reportedLocations();
    } else { // naive
      NaiveDetector D;
      TR = Reader.replayInto(D);
      D.onRunEnd();
      Racy = D.racyLocations();
    }
  }
  if (!TR.Ok) {
    std::fprintf(stderr, "herd: trace replay failed: %s\n", TR.Error.c_str());
    return TR.InvalidEvents ? 1 : 2;
  }
  std::printf("replayed %llu trace records through %s\n",
              (unsigned long long)Reader.recordsRead(), Detector.c_str());
  if (Racy.empty()) {
    std::printf("no dataraces reported\n");
    return 0;
  }
  // The baselines report per location, not per access pair; a replay has
  // no heap to name classes from.
  std::printf("-- dataraces --\n");
  for (LocationKey Loc : Racy)
    std::printf("%s\n", formatRacyLocation(P, nullptr, Loc).c_str());
  return 1;
}

/// Writes the Chrome trace JSON behind `--trace-json=`.  IO failure is a
/// usage-class error (exit 2), like an unreadable input file.
bool writeTraceJson(const MetricsRegistry &Registry,
                    const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (Out)
    Out << renderChromeTraceJson(Registry);
  if (!Out) {
    std::fprintf(stderr, "herd: cannot write trace JSON to '%s'\n",
                 Path.c_str());
    return false;
  }
  return true;
}

/// Prints a finished run, live or replay: the trace JSON, then the stats
/// JSON, the report document, or the human report and `--stats`.  Only
/// the human header line differs between live and replay runs.  Returns
/// the exit code.
int printResult(const HerdOptions &Opts, const Program &P,
                const PipelineResult &R, const MetricsRegistry &Registry,
                const InterpProfiler *Prof) {
  if (!Opts.TraceJsonPath.empty() &&
      !writeTraceJson(Registry, Opts.TraceJsonPath))
    return 2;
  int Exit = R.FormattedRaces.empty() && R.FormattedDeadlocks.empty() ? 0 : 1;
  if (Opts.StatsJson) {
    // JSON-only stdout: scripts pipe this straight into a parser.
    std::printf("%s", renderStatsJson(R, &Registry, Prof).c_str());
    return Exit;
  }
  if (Opts.Report != "human") {
    // Document-only stdout, like --stats=json: scripts parse this.
    std::printf("%s", Opts.Report == "sarif"
                          ? renderReportSarif(P, R).c_str()
                          : renderReportJson(P, R).c_str());
    return Exit;
  }
  if (!Opts.ReplayPath.empty())
    std::printf("replayed %llu trace records%s\n",
                (unsigned long long)R.TraceRecords,
                Opts.Detector == "epoch" ? " through epoch" : "");
  else if (!Opts.RecordPath.empty())
    std::printf("recorded %llu trace records (%llu bytes) to %s\n",
                (unsigned long long)R.TraceRecords,
                (unsigned long long)R.TraceBytes, Opts.RecordPath.c_str());
  if (!R.Run.Output.empty()) {
    std::printf("-- program output --\n");
    for (int64_t V : R.Run.Output)
      std::printf("%lld\n", (long long)V);
  }
  if (R.FormattedRaces.empty()) {
    std::printf("no dataraces reported\n");
  } else {
    std::printf("-- dataraces --\n");
    for (const std::string &Line : R.FormattedRaces)
      std::printf("%s\n", Line.c_str());
  }
  if (!R.FormattedDeadlocks.empty()) {
    std::printf("-- potential deadlocks --\n");
    for (const std::string &Line : R.FormattedDeadlocks)
      std::printf("%s\n", Line.c_str());
  }
  if (Opts.Stats)
    printStats(R);
  if (Prof)
    std::printf("%s", renderProfileTable(*Prof).c_str());
  return Exit;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Args(argv + 1, argv + argc);
  HerdParse Parse = parseHerdCommandLine(Args);
  if (Parse.St == HerdParse::Status::Help) {
    std::fprintf(stderr, "%s", herdUsageText());
    return 0;
  }
  if (Parse.St == HerdParse::Status::Error) {
    if (!Parse.Error.empty())
      std::fprintf(stderr, "%s\n", Parse.Error.c_str());
    if (Parse.ShowUsage || Parse.Error.empty())
      std::fprintf(stderr, "%s", herdUsageText());
    return 2;
  }
  HerdOptions &Opts = Parse.Opts;
  ToolConfig &Config = Opts.Config;

  // Observability: one registry per process when any consumer wants it,
  // otherwise the pipeline sees nullptr and records nothing.
  MetricsRegistry Registry;
  MetricsRegistry *Metrics =
      (!Opts.TraceJsonPath.empty() || Opts.StatsJson) ? &Registry : nullptr;
  InterpProfiler Profiler;
  InterpProfiler *Prof = Opts.Profile ? &Profiler : nullptr;
  Config.Metrics = Metrics;
  Config.Profiler = Prof;

  CompileResult Compiled;
  if (!Opts.WorkloadName.empty()) {
    bool Found = false;
    for (Workload &W : buildAllWorkloads())
      if (W.Name == Opts.WorkloadName) {
        Compiled.Ok = true;
        Compiled.P = std::move(W.P);
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr, "herd: unknown workload '%s'\n",
                   Opts.WorkloadName.c_str());
      return 2;
    }
  } else {
    std::ifstream File(Opts.Path);
    if (!File) {
      std::fprintf(stderr, "herd: cannot open '%s'\n", Opts.Path.c_str());
      return 2;
    }
    std::stringstream Buffer;
    Buffer << File.rdbuf();
    Compiled = compileMiniJ(Buffer.str(), Metrics);
    if (!Compiled.Ok) {
      for (const Diagnostic &D : Compiled.Diags)
        std::fprintf(stderr, "%s: %s\n", Opts.Path.c_str(), D.str().c_str());
      return 1;
    }
  }

  // Stamp the source artifact for the report renderers: the .mj path for
  // frontend programs, the workload name otherwise (docs/REPORTS.md).
  Compiled.P.SourceName =
      Opts.WorkloadName.empty() ? Opts.Path : Opts.WorkloadName;

  if (Opts.DumpIR) {
    std::printf("%s", printProgram(Compiled.P).c_str());
    return 0;
  }

  if (!Opts.ReplayPath.empty()) {
    // The epoch backend replays through the pipeline (Config.Backend was
    // set by the parser); only the comparison baselines bypass it.
    if (Opts.Detector != "herd" && Opts.Detector != "epoch")
      return replayBaseline(Compiled.P, Opts.ReplayPath, Opts.Detector);
    PipelineResult R =
        replayTracePipeline(Compiled.P, Config, Opts.ReplayPath);
    if (!R.Trace.Ok) {
      std::fprintf(stderr, "herd: trace replay failed: %s\n",
                   R.Trace.Error.c_str());
      return R.Trace.InvalidEvents ? 1 : 2;
    }
    return printResult(Opts, Compiled.P, R, Registry, Prof);
  }

  if (Opts.Sweep > 0) {
    // Races and deadlock findings alike: a schedule reports either.
    std::set<std::string> AllReports;
    int SchedulesWithReports = 0;
    for (int I = 0; I != Opts.Sweep; ++I) {
      Config.Seed = Opts.Seed + uint64_t(I);
      PipelineResult R = runPipeline(Compiled.P, Config);
      if (!R.Run.Ok) {
        std::fprintf(stderr, "herd: seed %llu: %s\n",
                     (unsigned long long)Config.Seed, R.Run.Error.c_str());
        return 1;
      }
      if (!R.FormattedRaces.empty() || !R.FormattedDeadlocks.empty())
        ++SchedulesWithReports;
      AllReports.insert(R.FormattedRaces.begin(), R.FormattedRaces.end());
      AllReports.insert(R.FormattedDeadlocks.begin(),
                        R.FormattedDeadlocks.end());
    }
    std::printf("%d/%d schedules produced reports; distinct reports:\n",
                SchedulesWithReports, Opts.Sweep);
    for (const std::string &Line : AllReports)
      std::printf("  %s\n", Line.c_str());
    return AllReports.empty() ? 0 : 1;
  }

  PipelineResult R = runPipeline(Compiled.P, Config);
  if (!R.Trace.Ok) {
    std::fprintf(stderr, "herd: trace recording failed: %s\n",
                 R.Trace.Error.c_str());
    return 2;
  }
  if (!R.Run.Ok) {
    std::fprintf(stderr, "herd: runtime error: %s\n", R.Run.Error.c_str());
    return 1;
  }
  return printResult(Opts, Compiled.P, R, Registry, Prof);
}
