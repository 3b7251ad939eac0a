//===- bench/PairedRatio.h - Paired timing for the benches ------*- C++ -*-===//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one timing method of the benches (paper tables, hot-path gate).
/// Two runs made back to back see the same machine, so their ratio drifts
/// far less on a shared VM than either time does, while a best-of-N time
/// keeps whichever run the machine happened to favour.  So a cell is the
/// median of per-pair ratios with its quartiles, stamped with the machine.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_BENCH_PAIREDRATIO_H
#define HERD_BENCH_PAIREDRATIO_H

#include "runtime/Interpreter.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace herd {

/// Pairs per cell (11 left sor2's 40 ms cells 2 points from overlapping).
constexpr int PairsPerCell = 21;

struct Quartiles {
  double Q1 = 0, Median = 0, Q3 = 0;
};

/// Quartiles of \p Values (non-empty), interpolating linearly between
/// closest ranks as herdbench does.
inline Quartiles quartiles(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  auto At = [&](double Q) {
    double Pos = Q * double(Values.size() - 1);
    size_t Lo = size_t(Pos), Hi = std::min(Lo + 1, Values.size() - 1);
    return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
  };
  return {At(0.25), At(0.5), At(0.75)};
}

/// Runs \p TimeA and \p TimeB (each returns the seconds it measured) in
/// turn for PairsPerCell pairs, A first in even pairs and B first in odd
/// ones, and returns the quartiles of the per-pair ratios B / A.  One
/// untimed pair first fills the caches.
template <typename FnA, typename FnB>
Quartiles pairedRatio(FnA &&TimeA, FnB &&TimeB) {
  TimeA();
  TimeB();
  std::vector<double> Ratios;
  for (int I = 0; I != PairsPerCell; ++I) {
    double B = I % 2 ? TimeB() : 0;
    double A = TimeA();
    if (I % 2 == 0)
      B = TimeB();
    Ratios.push_back(B / A);
  }
  return quartiles(std::move(Ratios));
}

/// Ends the bench with exit status 1 when a timed run failed.
inline void checkRun(const InterpResult &R) {
  if (!R.Ok) {
    std::fprintf(stderr, "run failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
}

/// The machine a paired table was measured on.
struct EnvStamp {
  unsigned NProc;
  std::string Cpu;
  const char *Compiler, *Build;
};

inline EnvStamp envStamp() {
  EnvStamp E{std::thread::hardware_concurrency(), "unknown",
#if defined(__clang__)
             "clang " __clang_version__,
#else
             "gcc " __VERSION__,
#endif
             HERD_BUILD_TYPE};
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line) && E.Cpu == "unknown";)
    if (Line.rfind("model name", 0) == 0 && Line.find(": ") != Line.npos)
      E.Cpu = Line.substr(Line.find(": ") + 2);
  return E;
}

/// Prints the environment stamp every paired table carries.
inline void printEnvStamp() {
  EnvStamp E = envStamp();
  std::printf("env: nproc=%u, cpu=%s, compiler=%s, build=%s; %d pairs per "
              "cell, run order alternating\n",
              E.NProc, E.Cpu.c_str(), E.Compiler, E.Build, PairsPerCell);
}

/// Writes the same stamp as the JSON member "env".
inline void writeEnvStamp(JsonWriter &W) {
  EnvStamp E = envStamp();
  W.key("env");
  W.beginObject();
  W.member("nproc", E.NProc);
  W.member("cpu", E.Cpu);
  W.member("compiler", E.Compiler);
  W.member("build", E.Build);
  W.endObject();
}

} // namespace herd

#endif // HERD_BENCH_PAIREDRATIO_H
