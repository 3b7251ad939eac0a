//===- herdbench/main.cpp - The benchmark driver ---------------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// herdbench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
///           [--revision REV]
///
/// With --trace 0, runs W's detection jobs closed-loop for S seconds and
/// prints the end-to-end metrics; with --trace 1, runs the traced
/// per-layer run instead (Traced.cpp).  The last line of standard output
/// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
/// line before it stamps the environment.  Set-up failures and bad
/// arguments exit non-zero without printing a result.
///
/// `--rss-probe` is the child mode behind peak_rss_mb: a fresh process
/// that builds W's inputs and runs two Full jobs, so its peak RSS is that
/// of a process running only the workload.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <spawn.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

extern char **environ;

using namespace herd;
using namespace herdbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
  std::string Revision = "unknown";
  bool RssProbe = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveWorkload = false, HaveWorkDir = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--rss-probe") {
      A.RssProbe = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
      if (!(A.Seconds > 0 && A.Seconds <= 120))
        return false;
    } else if (Flag == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return false;
      A.Trace = Value[0] == '1';
    } else if (Flag == "--workdir") {
      A.WorkDir = Value;
      HaveWorkDir = true;
    } else if (Flag == "--revision") {
      A.Revision = Value;
    } else {
      return false;
    }
    if (End && (End == Value || *End != '\0'))
      return false;
  }
  return HaveWorkload && HaveWorkDir;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned Regs[12] = {};
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t First = S.find_first_not_of(' ');
    size_t Last = S.find_last_not_of(' ');
    if (First != std::string::npos)
      return S.substr(First, Last - First + 1);
  }
#endif
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// The environment stamp every result carries.
std::string envJson(const Args &A, const Workload &W) {
  std::string Out = "{\"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency());
  Out += ", \"cpu\": " + jsonString(cpuModel());
  Out += ", \"compiler\": " + jsonString(compilerName());
  Out += ", \"build_type\": " + jsonString(HERDBENCH_BUILD_TYPE);
  Out += ", \"revision\": " + jsonString(A.Revision);
  Out += ", \"workload\": " + jsonString(W.Name);
  Out += ", \"seed\": " + std::to_string(A.Seed) + "}";
  return Out;
}

/// Runs this binary in --rss-probe mode and returns the child's peak RSS in
/// MiB, or a negative value when the probe failed.
double probePeakRss(const char *Self, const Args &A) {
  std::string Seed = std::to_string(A.Seed);
  std::vector<const char *> Argv = {Self,         "--rss-probe",
                                    "--workload", A.Workload.c_str(),
                                    "--seed",     Seed.c_str(),
                                    "--workdir",  A.WorkDir.c_str(),
                                    nullptr};
  pid_t Pid = 0;
  if (posix_spawn(&Pid, Self, nullptr, nullptr,
                  const_cast<char *const *>(Argv.data()), environ) != 0)
    return -1;
  int Status = 0;
  struct rusage Usage = {};
  if (wait4(Pid, &Status, 0, &Usage) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return -1;
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int rssProbe(const Workload &W, uint64_t Seed) {
  for (uint64_t I = 0; I != 2; ++I) {
    Job J = runJob(W, jobConfig(/*Full=*/true, jobSeed(Seed, I)));
    if (!J.Result.Run.Ok)
      return 1;
  }
  return 0;
}

/// Jobs of the end-to-end loop.  Every Full job pairs with a base: live, a
/// Base job under the same scheduler seed; replay, a scan of the trace file
/// that runs none of HERD's code (timeFileScan).  Each pair alternates
/// which side goes first, and the Full job runs between two yardstick
/// samples.
struct Loop {
  std::vector<double> FullSeconds, EventsPerSecond, Setups, Yardsticks;
  /// Per pair: Full job over base, and set-up over the yardstick.
  std::vector<double> Slowdowns, SetupRatios;
  uint64_t Attempted = 0, Failed = 0;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failed <= 5)
      std::fprintf(stderr, "herdbench: job failed: %s\n", Why.c_str());
  }
};

void runPair(const Workload &W, uint64_t Seed, uint64_t Index, bool Record,
             Loop &L) {
  uint64_t S = jobSeed(Seed, Index);
  Job Full, Base;
  Scan Bytes;
  double Yard[2];
  auto RunFull = [&] {
    Yard[0] = timeYardstick();
    Full = runJob(W, jobConfig(/*Full=*/true, S));
    Yard[1] = timeYardstick();
  };
  auto RunBase = [&] {
    if (W.Live)
      Base = runJob(W, jobConfig(/*Full=*/false, S));
    else
      Bytes = timeFileScan(W.Trace->path());
  };
  if (Index % 2 == 0) {
    RunFull();
    RunBase();
  } else {
    RunBase();
    RunFull();
  }

  L.Attempted += 2;
  bool BaseOk = W.Live ? Base.Result.Run.Ok
                       : Bytes.Seconds > 0 && Bytes.Bytes == W.TraceBytes;
  if (!BaseOk)
    L.fail(W.Live ? "Base job: " + Base.Result.Run.Error
                  : std::string("the trace scan failed or was short"));
  std::string Why = checkFull(W, Full.Result, BaseOk && W.Live
                                                  ? &Base.Result.Run
                                                  : nullptr);
  if (Why.empty() && Full.SetupSeconds <= 0)
    Why = "the job recorded no start of execution";
  if (!Why.empty())
    L.fail(Why);
  if (!Record)
    return;
  uint64_t Events = W.Live ? Full.Result.Run.AccessEvents
                           : Full.Result.Stats.EventsSeen;
  L.FullSeconds.push_back(Full.Seconds);
  L.EventsPerSecond.push_back(double(Events) / Full.Seconds);
  L.Setups.push_back(Full.SetupSeconds);
  L.Yardsticks.insert(L.Yardsticks.end(), Yard, Yard + 2);
  if (BaseOk)
    L.Slowdowns.push_back(Full.Seconds /
                          (W.Live ? Base.Seconds : Bytes.Seconds));
  L.SetupRatios.push_back(Full.SetupSeconds / (0.5 * (Yard[0] + Yard[1])));
}

std::vector<Metric> runEndToEnd(double PeakRss, const Args &A,
                                const Workload &W, uint64_t &Attempted,
                                uint64_t &Failed) {
  Loop L;
  // Warm-up pair: fills caches and finishes lazy set-up; checked, not timed.
  runPair(W, A.Seed, 0, /*Record=*/false, L);

  ++L.Attempted;
  if (PeakRss <= 0)
    L.fail("the peak-RSS probe process failed");

  Clock::time_point Start = Clock::now();
  for (uint64_t I = 1; L.FullSeconds.empty() || secondsSince(Start) < A.Seconds;
       ++I)
    runPair(W, A.Seed, I, /*Record=*/true, L);

  // Absolute times are printed, not reported: on a shared machine they
  // drift between runs by more than any bound a regression check could
  // use (README.md).  Ratios to work timed next to them, in the same pair,
  // drift much less; each metric is the median of those per-pair ratios.
  size_t Jobs = L.FullSeconds.size();
  double TailQ = tailQuantile(Jobs);
  double P50 = median(L.FullSeconds);
  double Setup = median(L.Setups);
  double Yardstick = median(L.Yardsticks);
  std::fprintf(stderr,
               "herdbench: %s: %zu Full jobs in %.1f s; job p50 %.6f s, "
               "p%.0f %.6f s; %.0f events/s; set-up %.6f s; "
               "yardstick %.6f s\n",
               W.Name.c_str(), Jobs, secondsSince(Start), P50, TailQ * 100,
               quantile(L.FullSeconds, TailQ), median(L.EventsPerSecond),
               Setup, Yardstick);
  Attempted = L.Attempted;
  Failed = L.Failed;
  return {
      {"slowdown", median(L.Slowdowns), "ratio"},
      {"setup_s", median(L.SetupRatios) * YardstickReferenceSeconds, "s"},
      {"peak_rss_mb", PeakRss, "MiB"},
      {"ok_rate", double(Attempted - Failed) / double(Attempted), "ratio"},
  };
}

} // namespace

int main(int Argc, char **Argv) {
  // glibc raises its mmap threshold as large blocks are freed, so where one
  // job leaves it decides whether the next job's set-up maps fresh pages:
  // tsp's set-up time then split 400/470 us by seed.  Pin both thresholds
  // where a long-running process settles.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: herdbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--revision REV] [--rss-probe]\n");
    return 2;
  }

  // A spawned child's peak RSS starts from its parent's, so the probe runs
  // before this process builds anything.
  double PeakRss = A.RssProbe || A.Trace ? 0 : probePeakRss(Argv[0], A);

  Workload W;
  std::string Err =
      prepareWorkload(A.Workload, A.Seed, A.WorkDir, !A.RssProbe, W);
  if (!Err.empty()) {
    std::fprintf(stderr, "herdbench: %s\n", Err.c_str());
    return 1;
  }
  if (A.RssProbe)
    return rssProbe(W, A.Seed);

  std::string Env = envJson(A, W);
  uint64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;
  if (A.Trace) {
    std::string TracePath = A.WorkDir + "/trace-" + W.Name + "-seed" +
                            std::to_string(A.Seed) + ".json";
    Metrics = runTraced(W, A.Seed, A.Seconds, A.WorkDir, TracePath, Env,
                        Attempted, Failed);
    std::fprintf(stderr, "herdbench: trace written to %s\n",
                 TracePath.c_str());
  } else {
    Metrics = runEndToEnd(PeakRss, A, W, Attempted, Failed);
  }
  if (Attempted == 0) {
    std::fprintf(stderr, "herdbench: no job ran\n");
    return 1;
  }

  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "herdbench: %s is not a number\n", M.Name.c_str());
      return 1;
    }
    Out += (I ? ", " : "") + jsonString(M.Name) + ": {\"value\": " +
           jsonNumber(M.Value) + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  Out += "}}";
  std::printf("env %s\n%s\n", Env.c_str(), Out.c_str());
  return 0;
}
