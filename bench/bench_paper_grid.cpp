//===- bench/bench_paper_grid.cpp - Table 2 and Section 9 in one grid -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2 ("Runtime Performance", with the Section 8.2 space counters)
/// and the Section 9 comparison as one grid on the CPU-bound replicas.
/// Each row is paired with Base (PairedRatio.h): the Table 2
/// configurations, then Eraser, vector clocks and epochs observing every
/// access of the fully instrumented program, as the 2002 per-access
/// detectors did.  Every run, Base included, dispatches as runPipeline
/// does: threaded, over superinstruction shadow code.  The paper's shape:
/// Full is cheapest everywhere, NoCache hurts tsp, NoDominators and
/// NoPeeling hurt sor2, NoStatic hurts mtrt, and where the static phase
/// prunes (mtrt, sor2) every per-access detector costs far more than Full.
///
/// Usage: bench_paper_grid [scale]   (default 120)
///
//===----------------------------------------------------------------------===//

#include "PairedRatio.h"
#include "baselines/EpochDetector.h"
#include "baselines/EraserDetector.h"
#include "baselines/VectorClockDetector.h"
#include "herd/HerdOptions.h"
#include "instr/Superinstr.h"
#include "workloads/Workloads.h"

#include <chrono>

using namespace herd;
using Clock = std::chrono::steady_clock;

namespace {

/// A run's exact (timer-free) columns; the detector's only for HERD rows.
struct Counts {
  uint64_t Instructions = 0, Events = 0, DetectorIn = 0;
  size_t TrieNodes = 0, Locations = 0;
};

double runConfig(const Program &P, const ToolConfig &Config, Counts &C) {
  PipelineResult R = runPipeline(P, Config);
  checkRun(R.Run);
  C = {R.Run.InstructionsExecuted, R.Stats.EventsSeen,
       R.Stats.Detector.EventsIn, R.Stats.Detector.TrieNodes,
       R.Stats.Detector.LocationsTracked};
  return R.ExecSeconds;
}

/// Times \p DetectorT observing \p EveryAccess as runPipeline times a run.
template <typename DetectorT>
double runObserver(const Program &EveryAccess, const ThreadedCode &Fused,
                   Counts &C) {
  DetectorT D;
  InterpOptions Opts;
  Opts.Fused = &Fused;
  Interpreter Interp(EveryAccess, &D, Opts);
  Clock::time_point T0 = Clock::now();
  InterpResult R = Interp.run();
  double Seconds = std::chrono::duration<double>(Clock::now() - T0).count();
  checkRun(R);
  C = {R.InstructionsExecuted, R.AccessEvents};
  return Seconds;
}

void printRow(const std::string &Prog, const char *Row, const char *Time,
              const Counts &C, uint64_t BaseInstrs, bool Herd) {
  std::printf("%-5s %-13s %-25s %8.0f%% %10llu", Prog.c_str(), Row, Time,
              (double(C.Instructions) / double(BaseInstrs) - 1) * 100,
              (unsigned long long)C.Events);
  if (Herd)
    std::printf(" %11llu %10zu %9zu\n", (unsigned long long)C.DetectorIn,
                C.TrieNodes, C.Locations);
  else
    std::printf(" %11s %10s %9s\n", "-", "-", "-");
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Scale = 120;
  if (argc > 2 || (argc == 2 && parseCount(argv[1], 1, UINT32_MAX, Scale) !=
                                    CountParse::Ok)) {
    std::fprintf(stderr, "usage: %s [scale] (a positive count, default "
                         "120)\n", argv[0]);
    return 2;
  }
  const struct Row {
    const char *Name;
    ToolConfig Config;
    decltype(&runObserver<EpochDetector>) Observe = nullptr;
  } Rows[] = {
      {"Full", ToolConfig::full()},
      {"NoStatic", ToolConfig::noStatic()},
      {"NoDominators", ToolConfig::noDominators()},
      {"NoPeeling", ToolConfig::noPeeling()},
      {"NoCache", ToolConfig::noCache()},
      {"Eraser", {}, runObserver<EraserDetector>},
      {"VClock", {}, runObserver<VectorClockDetector>},
      {"Epoch", {}, runObserver<EpochDetector>},
  };

  Clock::time_point Start = Clock::now();
  std::printf("Table 2 and Section 9 (scale=%llu): median per-pair overhead "
              "over Base [q1, q3]\n",
              (unsigned long long)Scale);
  printEnvStamp();
  std::printf("(paper: mtrt 20%%/OOM/21%%/21%%/26%%; tsp "
              "42%%/175%%/57%%/57%%/3722%%; sor2 13%%/13%%/316%%/226%%/37%%;\n"
              " Eraser 10x-30x, TRaDe-class happens-before 4x-15x)\n\n");
  std::printf("%-5s %-13s %-25s %9s %10s %11s %10s %9s\n", "prog", "row",
              "overhead [q1, q3]", "instr-ovh", "events", "detector-in",
              "trie-nodes", "locations");
  for (Workload &W : buildAllWorkloads(uint32_t(Scale))) {
    if (!W.CpuBound)
      continue;
    // The per-access detectors' program pays instrumentation at every
    // access: no static race set, no weaker-than elimination, no peeling.
    Program EveryAccess = W.P;
    InstrumenterOptions IOpts;
    IOpts.UseStaticRaceSet = IOpts.StaticWeakerThan = IOpts.LoopPeeling =
        false;
    instrumentProgram(EveryAccess, IOpts, nullptr);
    ThreadedCode Fused = buildThreadedCode(EveryAccess);

    Counts Base;
    std::vector<double> BaseSeconds;
    char Cell[64];
    for (const Row &R : Rows) {
      Counts C;
      Quartiles Q = pairedRatio(
          [&] {
            BaseSeconds.push_back(runConfig(W.P, ToolConfig::base(), Base));
            return BaseSeconds.back();
          },
          [&] {
            return R.Observe ? R.Observe(EveryAccess, Fused, C)
                             : runConfig(W.P, R.Config, C);
          });
      std::snprintf(Cell, sizeof(Cell), "%+.0f%% [%+.0f%%, %+.0f%%]",
                    (Q.Median - 1) * 100, (Q.Q1 - 1) * 100, (Q.Q3 - 1) * 100);
      printRow(W.Name, R.Name, Cell, C, Base.Instructions, !R.Observe);
    }
    // Base last: its time is the median of every Base run above.
    std::snprintf(Cell, sizeof(Cell), "%.4f s (median)",
                  quartiles(BaseSeconds).Median);
    printRow(W.Name, "Base", Cell, Base, Base.Instructions, true);
    std::printf("\n");
  }
  std::printf("grid time: %.0f s\n",
              std::chrono::duration<double>(Clock::now() - Start).count());
  return 0;
}
