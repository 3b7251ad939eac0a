//===- bench/bench_cache_sweep.cpp - Section 4.3 cache-size sweep ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's Section 4.3 experiment: the per-thread access
/// cache's hit rate as a function of its size, per benchmark replica.  The
/// paper sweeps the cache size and settles on 256 entries as the point
/// where the curve flattens; this harness runs the full pipeline (static
/// analysis + instrumentation + detection, the configuration the paper
/// measures) at each power-of-two size and reports hits, misses, evictions
/// and the hit rate, all exact counts.
///
/// `--smoke` shrinks the workloads and the sweep for CI; `--out=PATH`
/// writes a JSON report (schema herd-bench-cache-sweep-v2, stamped with the
/// machine like the paired tables) that the smoke-bench CI job archives
/// next to the hot-path report.
///
//===----------------------------------------------------------------------===//

#include "PairedRatio.h"
#include "herd/Pipeline.h"
#include "workloads/Workloads.h"

#include <cstring>

using namespace herd;

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  const std::vector<uint32_t> Sizes =
      Smoke ? std::vector<uint32_t>{8, 64, 256}
            : std::vector<uint32_t>{8, 16, 32, 64, 128, 256, 512, 1024};

  std::printf("Access-cache size sweep (paper Section 4.3)%s\n\n",
              Smoke ? " [smoke]" : "");
  std::printf("%-9s %8s %12s %12s %12s %9s\n", "workload", "entries", "hits",
              "misses", "evictions", "hit-rate");

  std::string Json;
  JsonWriter W(Json);
  W.beginObject();
  W.member("schema", "herd-bench-cache-sweep-v2");
  W.member("smoke", Smoke);
  writeEnvStamp(W);
  W.key("workloads");
  W.beginArray();
  for (Workload &Wl : buildAllWorkloads(Smoke ? 1 : 4)) {
    W.beginObject();
    W.member("name", Wl.Name);
    uint64_t EventsSeen = 0;
    W.key("sweep");
    W.beginArray();
    for (uint32_t Size : Sizes) {
      ToolConfig Config = ToolConfig::full();
      Config.CacheEntries = Size;
      PipelineResult R = runPipeline(Wl.P, Config);
      if (!R.Run.Ok) {
        std::fprintf(stderr, "%s (cache=%u): %s\n", Wl.Name.c_str(), Size,
                     R.Run.Error.c_str());
        return 1;
      }
      uint64_t Hits = R.Stats.CacheHits, Misses = R.Stats.CacheMisses;
      double HitRate =
          Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
      EventsSeen = R.Stats.EventsSeen;
      std::printf("%-9s %8u %12llu %12llu %12llu %8.2f%%\n", Wl.Name.c_str(),
                  Size, (unsigned long long)Hits, (unsigned long long)Misses,
                  (unsigned long long)R.Stats.CacheEvictions, 100.0 * HitRate);
      W.beginObject();
      W.member("cache_entries", Size);
      W.member("hits", Hits);
      W.member("misses", Misses);
      W.member("evictions", R.Stats.CacheEvictions);
      W.member("hit_rate", HitRate);
      W.endObject();
    }
    W.endArray();
    W.member("events_seen", EventsSeen);
    W.endObject();
  }
  W.endArray();
  W.endObject();

  if (!OutPath.empty()) {
    if (!(std::ofstream(OutPath) << Json << "\n")) {
      std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", OutPath.c_str());
  }
  return 0;
}
