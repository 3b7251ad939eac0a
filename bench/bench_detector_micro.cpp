//===- bench/bench_detector_micro.cpp - Detector microbenchmarks ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the detector's hot paths, the
/// quantities behind the Section 4/8.2 engineering claims:
///   - the cache-hit path ("ten PowerPC instructions" in the paper);
///   - the weakness check that filters the vast majority of events;
///   - full event processing (check + update + prune);
///   - the exact O(N²) oracle, for contrast with the trie's incremental
///     cost;
///   - the epoch backend's O(1) same-epoch path against the vector-clock
///     baseline's O(T) comparison at increasing thread counts
///     (docs/DETECTORS.md).
/// The check rows (BM_History*) time the access history the Detector
/// ships (AccessHistory), on pre-interned lockset ids as the runtime
/// delivers them.  The pointer-based reference trie (AccessTrie) runs in
/// no job, so it has no rows.
///
//===----------------------------------------------------------------------===//

#include "baselines/EpochDetector.h"
#include "baselines/NaiveDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/AccessCache.h"
#include "detect/AccessHistory.h"
#include "detect/Detector.h"
#include "detect/ShardedRuntime.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace herd;

namespace {

LocationKey keyOf(uint32_t Obj, uint32_t Field = 0) {
  return LocationKey::forField(ObjectId(Obj), FieldId(Field));
}

void BM_CacheHit(benchmark::State &State) {
  AccessCache Cache;
  Cache.insert(keyOf(1), LockId::invalid());
  for (auto _ : State)
    benchmark::DoNotOptimize(Cache.lookup(keyOf(1)));
}
BENCHMARK(BM_CacheHit);

void BM_CacheMissAndInsert(benchmark::State &State) {
  AccessCache Cache;
  uint32_t Obj = 0;
  for (auto _ : State) {
    LocationKey Key = keyOf(Obj++ & 0xFFFF);
    if (!Cache.lookup(Key))
      Cache.insert(Key, LockId::invalid());
  }
}
BENCHMARK(BM_CacheMissAndInsert);

void BM_CacheLockRelease(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    AccessCache Cache;
    for (uint32_t I = 0; I != 64; ++I)
      Cache.insert(keyOf(I * 97), LockId(5));
    State.ResumeTiming();
    Cache.evictLock(LockId(5));
  }
}
BENCHMARK(BM_CacheLockRelease);

void BM_HistoryWeaknessFilter(benchmark::State &State) {
  // The common case: the event is covered by a stored weaker access.
  LockSetInterner Interner;
  HistoryStore Store;
  AccessHistory History;
  History.process(Store, Interner, ThreadId(1), LockSetInterner::emptySet(),
                  AccessKind::Write, SiteId());
  LockSetId Held = Interner.intern(LockSet{LockId(3), LockId(7)});
  for (auto _ : State)
    benchmark::DoNotOptimize(History.process(Store, Interner, ThreadId(1),
                                             Held, AccessKind::Read,
                                             SiteId()));
}
BENCHMARK(BM_HistoryWeaknessFilter);

void BM_HistoryProcessDeepLocksets(benchmark::State &State) {
  // Locksets of the given depth; alternating threads so the meet churns.
  size_t Depth = size_t(State.range(0));
  LockSet L1, L2;
  for (size_t I = 0; I != Depth; ++I) {
    L1.insert(LockId(uint32_t(I)));
    L2.insert(LockId(uint32_t(I + Depth)));
  }
  LockSetInterner Interner;
  LockSetId Ids[2] = {Interner.intern(L1), Interner.intern(L2)};
  HistoryStore Store;
  AccessHistory History;
  uint32_t Turn = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        History.process(Store, Interner, ThreadId(1 + (Turn & 1)),
                        Ids[Turn & 1], AccessKind::Read, SiteId()));
    ++Turn;
  }
}
BENCHMARK(BM_HistoryProcessDeepLocksets)->Arg(1)->Arg(4)->Arg(16);

void BM_DetectorStream(benchmark::State &State) {
  // A realistic mixed stream through the full detector (ownership + trie).
  size_t NumLocations = size_t(State.range(0));
  Rng R(42);
  for (auto _ : State) {
    State.PauseTiming();
    RaceReporter Reporter;
    Detector Det(Reporter, {});
    State.ResumeTiming();
    for (size_t I = 0; I != 4096; ++I) {
      AccessEvent E;
      E.Location = keyOf(uint32_t(R.nextBelow(NumLocations)));
      E.Thread = ThreadId(uint32_t(R.nextBelow(3)));
      if (R.nextChance(1, 2))
        E.Locks.insert(LockId(uint32_t(R.nextBelow(2))));
      E.Access = R.nextChance(1, 3) ? AccessKind::Write : AccessKind::Read;
      Det.handleAccess(E);
    }
  }
}
BENCHMARK(BM_DetectorStream)->Arg(16)->Arg(256);

void BM_NaiveOracleQuadratic(benchmark::State &State) {
  // The FullRace cost the paper's design avoids: O(N^2) in stored events.
  // The stream is race-free (a common lock everywhere), so the scan cannot
  // short-circuit on an early racing pair — the honest worst case.
  size_t NumEvents = size_t(State.range(0));
  Rng R(7);
  NaiveDetector::Options Opts;
  Opts.UseOwnership = false;
  Opts.ModelJoin = false;
  NaiveDetector Oracle(Opts);
  for (size_t I = 0; I != NumEvents; ++I) {
    AccessEvent E;
    E.Location = keyOf(0); // one hot location: the worst case
    E.Thread = ThreadId(uint32_t(R.nextBelow(3)));
    E.Locks.insert(LockId(9)); // common lock: no pair ever races
    E.Locks.insert(LockId(uint32_t(R.nextBelow(4))));
    E.Access = AccessKind::Write;
    Oracle.addEvent(E);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(Oracle.racyLocations());
}
BENCHMARK(BM_NaiveOracleQuadratic)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HistorySameStreamLinear(benchmark::State &State) {
  // The same race-free stream through the history: per-event cost is flat
  // because the weakness filter absorbs everything after the first few.
  size_t NumEvents = size_t(State.range(0));
  LockSetInterner Interner;
  LockSetId Ids[4];
  for (uint32_t Lock = 0; Lock != 4; ++Lock)
    Ids[Lock] = Interner.intern(LockSet{LockId(9), LockId(Lock)});
  for (auto _ : State) {
    Rng R(7);
    HistoryStore Store;
    AccessHistory History;
    for (size_t I = 0; I != NumEvents; ++I) {
      LockSetId L = Ids[R.nextBelow(4)];
      benchmark::DoNotOptimize(
          History.process(Store, Interner, ThreadId(uint32_t(R.nextBelow(3))),
                          L, AccessKind::Write, SiteId()));
    }
  }
}
BENCHMARK(BM_HistorySameStreamLinear)->Arg(256)->Arg(1024)->Arg(4096);

//===----------------------------------------------------------------------===
// Epoch backend vs vector-clock baseline (docs/DETECTORS.md).
//
// The same happens-before relation, two shadow-state representations.
// The same-epoch benchmark times the one-compare fast path that retires
// the overwhelmingly common repeated access; the lock-handoff pair times
// a fully ordered cross-thread write stream at increasing thread counts,
// where the vector-clock baseline pays O(T) per access and the epoch
// backend stays O(1).
//===----------------------------------------------------------------------===

void BM_EpochSameEpochAccess(benchmark::State &State) {
  // A thread re-accessing a location with no intervening sync: one
  // 64-bit compare per event, the detector's dominant path.
  EpochDetector Det;
  Det.onAccess(ThreadId(1), keyOf(1), AccessKind::Write, SiteId());
  for (auto _ : State)
    Det.onAccess(ThreadId(1), keyOf(1), AccessKind::Write, SiteId());
}
BENCHMARK(BM_EpochSameEpochAccess);

void BM_VectorClockSameLocationAccess(benchmark::State &State) {
  // The same stream through the vector-clock baseline: every event walks
  // the location's clock state even though nothing changed.
  VectorClockDetector Det;
  Det.onAccess(ThreadId(1), keyOf(1), AccessKind::Write, SiteId());
  for (auto _ : State)
    Det.onAccess(ThreadId(1), keyOf(1), AccessKind::Write, SiteId());
}
BENCHMARK(BM_VectorClockSameLocationAccess);

// One round of a fully ordered write relay: each thread takes the lock,
// writes the hot location, and hands the lock on.  No races; every write
// is ordered after the previous one through the lock's clock.
template <typename Detector>
void lockHandoffRound(Detector &Det, uint32_t NumThreads) {
  for (uint32_t T = 0; T != NumThreads; ++T) {
    Det.onMonitorEnter(ThreadId(T), LockId(1), /*Recursive=*/false);
    Det.onAccess(ThreadId(T), keyOf(1), AccessKind::Write, SiteId());
    Det.onMonitorExit(ThreadId(T), LockId(1), /*StillHeld=*/false);
  }
}

void BM_EpochLockHandoffWrites(benchmark::State &State) {
  uint32_t NumThreads = uint32_t(State.range(0));
  EpochDetector Det;
  lockHandoffRound(Det, NumThreads); // populate thread + lock state
  for (auto _ : State)
    lockHandoffRound(Det, NumThreads);
  State.SetItemsProcessed(int64_t(State.iterations()) * NumThreads);
}
BENCHMARK(BM_EpochLockHandoffWrites)->Arg(2)->Arg(8)->Arg(32);

void BM_VectorClockLockHandoffWrites(benchmark::State &State) {
  uint32_t NumThreads = uint32_t(State.range(0));
  VectorClockDetector Det;
  lockHandoffRound(Det, NumThreads);
  for (auto _ : State)
    lockHandoffRound(Det, NumThreads);
  State.SetItemsProcessed(int64_t(State.iterations()) * NumThreads);
}
BENCHMARK(BM_VectorClockLockHandoffWrites)->Arg(2)->Arg(8)->Arg(32);

void BM_EpochReadInflationCycle(benchmark::State &State) {
  // The adaptive read state's worst case, exercised on purpose: two
  // concurrent readers inflate the location into a pooled vector clock;
  // a later ordered write collapses it back to an epoch and recycles the
  // ClockStore row, so the cycle is allocation-free in the steady state.
  EpochDetector Det;
  Det.onThreadCreate(ThreadId(1), ThreadId(0), ObjectId(1));
  Det.onThreadCreate(ThreadId(2), ThreadId(0), ObjectId(2));
  auto Sync = [&](uint32_t T) {
    Det.onMonitorEnter(ThreadId(T), LockId(1), false);
    Det.onMonitorExit(ThreadId(T), LockId(1), false);
  };
  for (auto _ : State) {
    // Each reader first syncs with the previous round's write, then
    // reads at a not-yet-published clock — the two reads are mutually
    // concurrent but race with nothing.
    Sync(1);
    Det.onAccess(ThreadId(1), keyOf(1), AccessKind::Read, SiteId());
    Sync(2);
    Det.onAccess(ThreadId(2), keyOf(1), AccessKind::Read, SiteId());
    // Publish both reads, then write ordered after them: the shared
    // read state collapses and its ClockStore row recycles.
    Sync(1);
    Sync(2);
    Det.onMonitorEnter(ThreadId(0), LockId(1), false);
    Det.onAccess(ThreadId(0), keyOf(1), AccessKind::Write, SiteId());
    Det.onMonitorExit(ThreadId(0), LockId(1), false);
  }
}
BENCHMARK(BM_EpochReadInflationCycle);

//===----------------------------------------------------------------------===
// Serial vs sharded event throughput (docs/SHARDING.md).
//
// The same pre-generated stream — many locations, deep locksets so the
// trie work dominates routing overhead — pushed through one serial
// detector and through the ShardPool at increasing shard counts.
// events/sec is reported as items_per_second; on a multicore host the
// shard workers process disjoint location sets concurrently, so
// throughput scales with the shard count until the producer saturates.
//===----------------------------------------------------------------------===

std::vector<AccessEvent> makeThroughputStream(size_t NumEvents) {
  Rng R(271828);
  std::vector<AccessEvent> Events;
  Events.reserve(NumEvents);
  for (size_t I = 0; I != NumEvents; ++I) {
    AccessEvent E;
    E.Location = keyOf(uint32_t(R.nextBelow(1024)), uint32_t(R.nextBelow(2)));
    E.Thread = ThreadId(uint32_t(R.nextBelow(4)));
    size_t Depth = 4 + R.nextBelow(3); // 4..6 of 12 locks: deep meets
    for (size_t L = 0; L != Depth; ++L)
      E.Locks.insert(LockId(uint32_t(R.nextBelow(12))));
    E.Access = R.nextChance(1, 3) ? AccessKind::Write : AccessKind::Read;
    Events.push_back(std::move(E));
  }
  return Events;
}

void BM_SerialEventStream(benchmark::State &State) {
  std::vector<AccessEvent> Events = makeThroughputStream(1 << 14);
  for (auto _ : State) {
    State.PauseTiming();
    RaceReporter Reporter;
    Detector Det(Reporter,
                 {/*UseOwnership=*/false, /*FieldsMerged=*/false});
    State.ResumeTiming();
    for (const AccessEvent &E : Events)
      Det.handleAccess(E);
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Events.size()));
}
BENCHMARK(BM_SerialEventStream);

void BM_ShardedEventStream(benchmark::State &State) {
  uint32_t Shards = uint32_t(State.range(0));
  std::vector<AccessEvent> Events = makeThroughputStream(1 << 14);
  for (auto _ : State) {
    State.PauseTiming();
    ShardPool Pool(Shards, EventBatch::DefaultCapacity,
                   /*QueueDepth=*/16);
    State.ResumeTiming();
    for (const AccessEvent &E : Events)
      Pool.submit(DetectorEvent{E.Location, E.Thread,
                                Pool.interner().intern(E.Locks), E.Access,
                                E.Site});
    Pool.drain();
    State.PauseTiming();
    Pool.finish();
    State.ResumeTiming();
  }
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Events.size()));
}
BENCHMARK(BM_ShardedEventStream)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

} // namespace

BENCHMARK_MAIN();
