//===- herdbench/Bench.h - Workloads and jobs of the benchmark --*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// herdbench runs *detection jobs* closed-loop: one job at a time, one
/// caller waiting for each result.  A live job is one `runPipeline` call on
/// a replica program; a replay job is one `replayTracePipeline` call on a
/// recorded trace.  This header holds what the end-to-end loop (main.cpp)
/// and the traced per-layer run (Traced.cpp) share: the prepared workloads,
/// job execution, and the output checks.  See README.md for the workloads
/// and the metric-to-layer map.
///
//===----------------------------------------------------------------------===//

#ifndef HERDBENCH_BENCH_H
#define HERDBENCH_BENCH_H

#include "herd/Pipeline.h"
#include "ir/Program.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace herdbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// SplitMix64 finalizer: derives job seeds and the stream shape from the
/// benchmark's --seed.
inline uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// The scheduler seed of job \p Index of a run seeded with \p Seed.
inline uint64_t jobSeed(uint64_t Seed, uint64_t Index) {
  return mixSeed(Seed * 0x100000001B3ull + Index) | 1;
}

/// A file in the benchmark's work directory whose name is unique to this
/// process; the file is removed when the object dies.
class TempFile {
public:
  TempFile(const std::string &Dir, const std::string &Stem);
  ~TempFile();
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// One workload's inputs, built from the seed at set-up.
struct Workload {
  std::string Name;
  bool Live = true;
  /// Live: the replica.  Replay: the program the trace belongs to, which
  /// the report formatter consults for field and site names.
  herd::Program Prog;
  /// Live: objects a Full job must report (the replica's Table 3 count,
  /// independent of the schedule).
  size_t ExpectedRacyObjects = 0;
  /// Live: how many of the last printed values a race decides; the output
  /// check compares the others with the Base job's.
  size_t RacyOutputs = 0;
  /// Replay: the recorded stream, its access records, and the racy
  /// locations a NoCache serial replay of it reports.
  std::unique_ptr<TempFile> Trace;
  uint64_t TraceAccesses = 0;
  uint64_t TraceBytes = 0; ///< the trace file's size
  std::set<herd::LocationKey> Reference;
};

/// Builds workload \p Name from \p Seed.  Replay workloads record their
/// trace under \p WorkDir and, with \p WithReference, compute the reference
/// race set.  Returns an error message; empty on success.
std::string prepareWorkload(const std::string &Name, uint64_t Seed,
                            const std::string &WorkDir, bool WithReference,
                            Workload &W);

/// The configuration of a job: the default Full pipeline, or Base (no
/// instrumentation; live only), scheduled by \p Seed.
herd::ToolConfig jobConfig(bool Full, uint64_t Seed);

/// Shard workers for the traced run's sharded replay: the producer plus
/// the workers fit in the machine's cores, capped at 3.
uint32_t shardCount();

/// Runs one job, timed from outside the library call.  The job records its
/// phase spans into \p Config.Metrics, or into a registry of its own when
/// that is null, so its set-up time is read off the job itself.
struct Job {
  double Seconds = 0;
  /// From the call until the first event can execute: the start of the
  /// pipeline's "execute" phase (live) or "replay" phase (replay).
  double SetupSeconds = 0;
  herd::PipelineResult Result;
};
Job runJob(const Workload &W, const herd::ToolConfig &Config);

/// Checks a Full job.  Live jobs must report the expected racy objects and
/// print what the paired \p Base job printed; replay jobs must see every
/// access of the trace and report the reference racy locations.  Returns
/// the reason for a failure; empty when the job is correct.
std::string checkFull(const Workload &W, const herd::PipelineResult &Full,
                      const herd::InterpResult *Base);

/// Reads a trace into a sink that only counts: the reader's own time.
struct TraceRead {
  bool Ok = false;
  double Seconds = 0;
  uint64_t Accesses = 0;
};
TraceRead timeTraceRead(const std::string &Path);

/// References that run none of HERD's code, timed next to the jobs so that
/// their ratio to a job cancels the speed drift of a shared machine.
///
/// A scan reads the file at \p Path and, for each 8 bytes of it, bumps a
/// counter in a 16 MiB table: the least any replay of it must do, with a
/// detector's scattered memory traffic.  Returns the bytes read; negative
/// seconds when the file cannot be read.
struct Scan {
  double Seconds = -1;
  uint64_t Bytes = 0;
};
Scan timeFileScan(const std::string &Path);

/// The yardstick: fixed allocation-, hash- and sort-heavy work like a
/// job's set-up, about 0.5 ms on a 4-vCPU Xeon VM (gcc 12, Release).
double timeYardstick();

/// The yardstick's time on that machine.  setup_s is the job's set-up time
/// over the mean of the yardstick samples taken just before and after the
/// job, times this: seconds at that machine's speed.
constexpr double YardstickReferenceSeconds = 5e-4;

/// Percentiles with linear interpolation between closest ranks.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// The tail percentile to report over \p Samples job times: p90 from 100
/// jobs on, otherwise the highest one with at least ten jobs beyond it.
double tailQuantile(size_t Samples);

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The traced run: times each layer's public functions around the jobs of
/// \p W for \p Seconds, writes the spans and per-layer numbers as Chrome
/// trace JSON to \p TracePath, and returns the per-layer metrics.  Counts
/// attempted and failed jobs; a job fails when its output check or one of
/// the recomputed counter identities fails.
std::vector<Metric> runTraced(const Workload &W, uint64_t Seed,
                              double Seconds, const std::string &WorkDir,
                              const std::string &TracePath,
                              const std::string &EnvJson, uint64_t &Attempted,
                              uint64_t &Failed);

/// Renders \p V so that it reads back as the same double.
std::string jsonNumber(double V);

} // namespace herdbench

#endif // HERDBENCH_BENCH_H
