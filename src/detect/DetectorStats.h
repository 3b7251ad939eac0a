//===- detect/DetectorStats.h - Detection observability counters -*- C++ -*-=//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer of the detection runtime: counters for the
/// detector core (mirroring the measurements of Section 8.2), for the
/// hooks-to-detector glue (events, cache behaviour), and for the sharded
/// runtime (per-shard ingest and queue depths).  Everything here is plain
/// data so that tests can assert exact values and `herd --stats` / the
/// bench harness can print snapshots without touching detector internals.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_DETECTORSTATS_H
#define HERD_DETECT_DETECTORSTATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace herd {

/// Counters mirroring the measurements of Section 8.2.
struct DetectorStats {
  uint64_t EventsIn = 0;        ///< events delivered to the detector
  uint64_t OwnedFiltered = 0;   ///< dropped while the location was owned
  uint64_t WeakerFiltered = 0;  ///< dropped by the trie weakness check
  uint64_t RacesReported = 0;
  size_t LocationsTracked = 0;  ///< locations with any state
  size_t LocationsShared = 0;   ///< locations that reached the shared state

  /// Trie nodes currently allocated across all shared locations.
  size_t TrieNodes = 0;

  // Bounded subset/intersect memo of the LockSetInterner the detector
  // resolves against.  In the sharded runtime the interner is shared, so
  // aggregation copies these once instead of summing per shard.
  uint64_t LocksetMemoHits = 0;
  uint64_t LocksetMemoMisses = 0;
  uint64_t LocksetMemoEvictions = 0;
};

/// Per-thread access-cache counters (Section 4.3 reports hit rates per
/// benchmark; this exposes them per thread for `herd --stats`).
struct ThreadCacheStats {
  uint32_t Thread = 0; ///< the thread's dense index
  uint64_t ReadHits = 0;
  uint64_t ReadMisses = 0;
  uint64_t WriteHits = 0;
  uint64_t WriteMisses = 0;

  uint64_t hits() const { return ReadHits + WriteHits; }
  uint64_t lookups() const {
    return ReadHits + ReadMisses + WriteHits + WriteMisses;
  }
};

/// Hook-path fast-path counters (docs/HOOKPATH.md): the inline L0 filter
/// probed at the instrumentation site and the sharded runtime's per-thread
/// event batching.  With the filter enabled, every traced access is either
/// an L0 hit or reaches the runtime, so
///   InterpResult::AccessEvents == FilterHits + RaceRuntimeStats::EventsSeen
/// holds exactly (the hook-reconcile clause of scripts/check_bench_gate.py).
struct HookPathStats {
  bool FilterEnabled = false;
  uint64_t FilterHits = 0;       ///< accesses filtered before event creation
  uint64_t FilterMisses = 0;     ///< probes that fell through to delivery
  uint64_t EpochBumps = 0;       ///< whole-filter invalidations at sync ops
  uint64_t KeyInvalidations = 0; ///< single-slot drops (shared/conflict)
  uint64_t BatchFlushes = 0;     ///< staged-batch flushes (sharded only)
  uint64_t BatchedEvents = 0;    ///< events that passed through staging
};

/// Aggregate counters for one run (serial or sharded).
struct RaceRuntimeStats {
  uint64_t EventsSeen = 0;   ///< accesses arriving from the program
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  DetectorStats Detector;
  HookPathStats Hook;
  std::vector<ThreadCacheStats> PerThreadCache; ///< one entry per thread seen
};

/// Per-shard counters of the sharded runtime.  Ingest counters are written
/// by the producer (the interpreter's hook thread); the Detector sub-stats
/// come from the shard's own trie detector and are read after a drain.
struct ShardStats {
  uint64_t EventsIngested = 0;      ///< events routed to this shard
  uint64_t BatchesIngested = 0;     ///< batches pushed to this shard's queue
  size_t MaxQueueDepthBatches = 0;  ///< high-water mark of the queue
  DetectorStats Detector;           ///< this shard's trie-detector counters
};

} // namespace herd

#endif // HERD_DETECT_DETECTORSTATS_H
