//===- bench/bench_trace_replay.cpp - Trace file throughput ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the streaming trace subsystem (docs/REPLAY.md) on the
/// benchmark replicas: record-to-file write throughput and on-disk growth
/// (the Section 9 "trace structure can grow prohibitively large" axis,
/// now with the exact 40-byte record encoding), then replay-from-file
/// detection throughput through the serial runtime and the sharded
/// runtime at several shard counts, cross-checking that every path
/// reports the same racy locations.
///
//===----------------------------------------------------------------------===//

#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "runtime/Interpreter.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

using namespace herd;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main() {
  std::printf("Trace record/replay throughput (docs/REPLAY.md)\n\n");
  std::printf("%-10s %10s %12s %10s %12s %12s\n", "program", "events",
              "file-bytes", "B/event", "write-ev/s", "write(s)");

  const uint32_t ReplayShardCounts[] = {1, 2, 4};
  struct Recorded {
    std::string Name;
    TempPath Path;
    uint64_t Records;
  };
  std::vector<Recorded> Traces;

  for (Workload &W : buildAllWorkloads(4)) {
    TempPath Path("bench-" + W.Name);
    TraceWriter Writer;
    if (TraceResult TR = Writer.open(Path); !TR.Ok) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), TR.Error.c_str());
      return 1;
    }
    InterpOptions Opts;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(W.P, &Writer, Opts);
    auto T0 = std::chrono::steady_clock::now();
    InterpResult R = Interp.run();
    double WriteSeconds = secondsSince(T0);
    if (TraceResult TR = Writer.close(); !R.Ok || !TR.Ok) {
      std::fprintf(stderr, "%s failed: %s%s\n", W.Name.c_str(),
                   R.Error.c_str(), TR.Error.c_str());
      return 1;
    }

    uint64_t Records = Writer.recordsWritten();
    std::printf("%-10s %10llu %12llu %10.1f %12.0f %12.4f\n", W.Name.c_str(),
                (unsigned long long)Records,
                (unsigned long long)Writer.bytesWritten(),
                Records ? double(Writer.bytesWritten()) / double(Records)
                        : 0.0,
                WriteSeconds > 0 ? double(Records) / WriteSeconds : 0.0,
                WriteSeconds);
    Traces.push_back({W.Name, std::move(Path), Records});
  }

  std::printf("\nReplay detection throughput (events/s) and agreement\n\n");
  std::printf("%-10s %12s", "program", "serial");
  for (uint32_t Shards : ReplayShardCounts)
    std::printf("   shards=%-4u", Shards);
  std::printf("%12s\n", "same-races");

  for (const Recorded &T : Traces) {
    std::printf("%-10s", T.Name.c_str());

    RaceRuntime Serial;
    {
      TraceReader Reader;
      if (TraceResult TR = Reader.open(T.Path); !TR.Ok) {
        std::fprintf(stderr, "%s: %s\n", T.Name.c_str(), TR.Error.c_str());
        return 1;
      }
      auto T0 = std::chrono::steady_clock::now();
      if (TraceResult TR = Reader.replayInto(Serial); !TR.Ok) {
        std::fprintf(stderr, "%s: %s\n", T.Name.c_str(), TR.Error.c_str());
        return 1;
      }
      Serial.onRunEnd();
      double S = secondsSince(T0);
      std::printf(" %12.0f", S > 0 ? double(T.Records) / S : 0.0);
    }

    bool AllAgree = true;
    for (uint32_t Shards : ReplayShardCounts) {
      ShardedRuntimeOptions SOpts;
      SOpts.NumShards = Shards;
      ShardedRuntime Sharded(SOpts);
      TraceReader Reader;
      if (TraceResult TR = Reader.open(T.Path); !TR.Ok) {
        std::fprintf(stderr, "%s: %s\n", T.Name.c_str(), TR.Error.c_str());
        return 1;
      }
      auto T0 = std::chrono::steady_clock::now();
      if (TraceResult TR = Reader.replayInto(Sharded); !TR.Ok) {
        std::fprintf(stderr, "%s: %s\n", T.Name.c_str(), TR.Error.c_str());
        return 1;
      }
      Sharded.onRunEnd();
      double S = secondsSince(T0);
      std::printf("   %-11.0f", S > 0 ? double(T.Records) / S : 0.0);
      AllAgree = AllAgree && Sharded.reporter().reportedLocations() ==
                                 Serial.reporter().reportedLocations();
    }
    std::printf("%12s\n", AllAgree ? "yes" : "NO!");
  }

  std::printf("\nEvery byte of a trace costs 40B/event on disk but nothing\n"
              "in RAM: the writer streams, and replay re-detects a recorded\n"
              "run under any runtime configuration without re-execution.\n");
  return 0;
}
