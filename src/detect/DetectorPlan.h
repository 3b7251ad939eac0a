//===- detect/DetectorPlan.h - Analysis-driven capacity plan ----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Capacity and layout hints flowing from static analysis into the
/// detection runtimes.  The paper's premise is that compile-time analysis
/// pays for runtime efficiency: Section 3.3's race set bounds which
/// statements are instrumented, so it also bounds how many locations,
/// trie nodes, and locksets the detector can ever see.  A DetectorPlan
/// carries those bounds so the runtime can pre-size its FlatTable /
/// HistoryStore / LockSetInterner before the first event, turning
/// cold-start first-touch growth (the ~2.1 allocs/event cold wall in
/// BENCH_hotpath.json) into a handful of up-front reservations.
///
/// Plans are hints, never limits: an empty or undersized plan only means
/// the structures grow on demand exactly as before.  Race reports are
/// bit-identical with or without a plan (pre-sizing changes when memory
/// is allocated, and pre-interning changes lockset id assignment, neither
/// of which the detection algorithm observes).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_DETECTORPLAN_H
#define HERD_DETECT_DETECTORPLAN_H

#include "support/Ids.h"
#include "support/SortedIdSet.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace herd {

/// Capacity hints for one detection run.  All counts are expectations, not
/// limits; zero means "no hint" for that structure.
struct DetectorPlan {
  /// Distinct logical memory locations the run is expected to touch
  /// (race-set targets scaled by instance/array fan-out).
  uint64_t ExpectedLocations = 0;

  /// Locations expected to reach the shared state (trie-owning).  At most
  /// ExpectedLocations; used to size trie storage.
  uint64_t ExpectedSharedLocations = 0;

  /// Trie nodes across all shared locations.  Nodes track distinct
  /// (location, lockset-prefix) pairs, so this scales with shared
  /// locations times typical lockset depth (0-2 per Section 4.2).  The
  /// Detector reserves this many access-history entries: every stored
  /// access is a trie node, so the estimate bounds the entries too.
  uint64_t ExpectedTrieNodes = 0;

  /// Threads expected to start (SyncAnalysis thread-allocation sites).
  uint64_t ExpectedThreads = 0;

  /// Distinct locksets expected to be interned.
  uint64_t ExpectedLocksets = 0;

  /// Locksets the analysis proves can occur, pre-interned before the run
  /// so the first monitorenter on the hot path finds them resident (the
  /// common case per Section 4.2 is 0-2 locks).  Applied once per
  /// interner, not per shard.
  std::vector<SortedIdSet<LockId>> PreinternLocksets;

  /// True when the plan carries no hints at all (ToolConfig::PlanMode::Off,
  /// or replay without analysis results).
  bool empty() const {
    return ExpectedLocations == 0 && ExpectedSharedLocations == 0 &&
           ExpectedTrieNodes == 0 && ExpectedThreads == 0 &&
           ExpectedLocksets == 0 && PreinternLocksets.empty();
  }

  /// A copy with every field capped at a sane ceiling, so a hostile or
  /// buggy plan (e.g. `--plan=<huge>`) cannot commit unbounded memory
  /// up front.  The caps are far above every workload in this repo but
  /// keep worst-case reservation in the hundreds of MB, not exabytes.
  DetectorPlan clamped() const {
    DetectorPlan P = *this;
    P.ExpectedLocations = std::min(P.ExpectedLocations, MaxLocations);
    P.ExpectedSharedLocations =
        std::min(P.ExpectedSharedLocations, P.ExpectedLocations);
    P.ExpectedTrieNodes = std::min(P.ExpectedTrieNodes, MaxTrieStorage);
    P.ExpectedThreads = std::min<uint64_t>(P.ExpectedThreads, MaxThreads);
    P.ExpectedLocksets = std::min(P.ExpectedLocksets, MaxLocksets);
    return P;
  }

  /// The explicit-size plan behind `--plan=N`: expect \p Locations
  /// locations, all shared, with trie storage derived from the paper's
  /// observation that histories stay shallow (about two nodes per shared
  /// location in every measured workload).
  static DetectorPlan sized(uint64_t Locations) {
    DetectorPlan P;
    P.ExpectedLocations = Locations;
    P.ExpectedSharedLocations = Locations;
    P.ExpectedTrieNodes = Locations * 2;
    return P.clamped();
  }

  /// The slice of this plan that one of \p NumShards shard detectors
  /// should apply.  Location-scaled fields divide by the shard count with
  /// 5/4 headroom (location->shard hashing is uniform, not exact);
  /// interner-scoped fields are dropped because the sharded runtime's
  /// interner is shared and planned once at the pool level.
  DetectorPlan forShard(size_t Shard, size_t NumShards) const {
    (void)Shard; // shards are symmetric under uniform location hashing
    DetectorPlan P;
    if (NumShards == 0)
      return P;
    auto Slice = [NumShards](uint64_t Total) {
      return (Total / NumShards) * 5 / 4 + (Total ? 1 : 0);
    };
    P.ExpectedLocations = Slice(ExpectedLocations);
    P.ExpectedSharedLocations = Slice(ExpectedSharedLocations);
    P.ExpectedTrieNodes = Slice(ExpectedTrieNodes);
    P.ExpectedThreads = ExpectedThreads;
    return P;
  }

private:
  static constexpr uint64_t MaxLocations = uint64_t(1) << 22;
  static constexpr uint64_t MaxTrieStorage = uint64_t(1) << 24;
  static constexpr uint64_t MaxLocksets = uint64_t(1) << 20;
};

} // namespace herd

#endif // HERD_DETECT_DETECTORPLAN_H
