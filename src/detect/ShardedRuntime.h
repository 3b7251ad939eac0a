//===- detect/ShardedRuntime.h - Sharded batched detection ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded, batched detection runtime: the serial pipeline of
/// detect/RaceRuntime split across N location-hashed shards, each running
/// its trie detector on a real worker thread fed by a bounded batch queue
/// (see docs/SHARDING.md).
///
/// Division of labour:
///   - producer (the interpreter's hook thread): the per-thread front end
///     shared with RaceRuntime (detect/AccessFrontEnd.h: locksets and
///     dummy join locks, read/write caches, field merging) and the
///     ownership filter — everything whose outcome the next event depends
///     on stays synchronous;
///   - shard workers: the access-history tries and race reporting — the
///     per-event cost the paper's measurements show dominates detection.
///
/// Because a location's entire event stream lands on one shard in program
/// order, each per-location trie evolves exactly as it does serially, so
/// the sharded runtime reports the identical race-record set for the same
/// schedule (tests/sharded_runtime_test.cpp enforces this differentially).
/// Drain barriers at thread joins and at the end of the run make report
/// merging deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_SHARDEDRUNTIME_H
#define HERD_DETECT_SHARDEDRUNTIME_H

#include "detect/AccessFrontEnd.h"
#include "detect/Detector.h"
#include "detect/EventBatch.h"
#include "detect/OwnershipFilter.h"
#include "detect/RaceReport.h"

#include <memory>
#include <thread>
#include <vector>

namespace herd {

class MetricsRegistry;

/// Configuration of the sharded runtime: every RaceRuntimeOptions
/// detection flag, so each ablation runs sharded as well, plus the shard
/// engine's own knobs.  The Plan's location-scaled fields are sliced per
/// shard, with the shared interner planned once at pool level.
struct ShardedRuntimeOptions : RaceRuntimeOptions {
  uint32_t NumShards = 4;      ///< shard (and worker-thread) count
  size_t BatchCapacity = EventBatch::DefaultCapacity;
  size_t QueueDepthBatches = 16; ///< backpressure bound per shard

  /// Observability sink (`herd --trace-json`): per-shard batch spans and
  /// queue-depth samples land here.  Null (the default) records nothing
  /// and keeps the ingest path free of clock reads.
  MetricsRegistry *Metrics = nullptr;
};

/// The shard engine: N trie detectors on worker threads behind bounded
/// batch queues.  Used by ShardedRuntime, and directly by the bench
/// harness to measure raw event throughput without interpreter overhead.
/// submit/flush/drain are producer-thread-only.
class ShardPool {
public:
  /// The most shards a pool runs, one worker thread each (`herd --shards`
  /// rejects more).
  static constexpr uint32_t MaxShards = 64;

  /// \p Locksets is the interner batched lockset ids resolve against; when
  /// null the pool owns a private one (standalone pools in tests/benches).
  /// Interning happens producer-side only; workers call resolve(), which
  /// is safe for ids published through the batch queues.  \p Plan pre-sizes
  /// each shard's detector (location-scaled fields sliced per shard) and
  /// the interner (reserved and pre-interned once, before workers start).
  /// \p Metrics, when set, receives one trace row per shard (tid = 1 +
  /// shard index, named "shard N"), a "batch" span for every batch a
  /// worker processes, and "shardN.queue_depth" counter samples at every
  /// producer push.
  ShardPool(uint32_t NumShards, size_t BatchCapacity, size_t QueueDepth,
            LockSetInterner *Locksets = nullptr,
            const DetectorPlan &Plan = {},
            MetricsRegistry *Metrics = nullptr);
  ~ShardPool();

  /// The shard a location's events are routed to: a hash of the location
  /// key, so the assignment is stable across runs and shard-count-only
  /// changes of configuration.  The key is mixed explicitly (the SplitMix64
  /// finalizer, the same family as AccessCache::indexOf's multiplicative
  /// hash) and the *high* bits feed the modulo: packed (object, field) keys
  /// stride by small constants, and a raw `key % NumShards` collapses onto
  /// a few shards whenever the stride shares a factor with the shard count
  /// (tests/sharded_runtime_test.cpp asserts the spread on strided keys).
  static uint32_t shardOf(LocationKey Key, uint32_t NumShards) {
    uint64_t X = Key.raw();
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    return uint32_t((X >> 32) % NumShards);
  }

  uint32_t numShards() const { return uint32_t(Shards.size()); }

  /// Routes one pre-interned event to its shard, batching; blocks only
  /// when the shard's queue is full (backpressure).  The hot path — and
  /// the only ingest entry point: callers holding an owning AccessEvent
  /// intern its lockset through interner() first, so EventBatch queues
  /// carry nothing but trivially-copyable records.
  void submit(const DetectorEvent &Event);

  /// The interner this pool's shard detectors resolve lockset ids against.
  LockSetInterner &interner() { return *Locksets; }

  /// Pushes every partially filled batch to its queue.
  void flush();

  /// Flush, then block until every shard has processed every event
  /// submitted so far.  On return the shard detectors and reporters are
  /// safe to read from the producer thread.
  void drain();

  /// Drain, then stop and join the workers.  Idempotent; submit must not
  /// be called afterwards.
  void finish();

  /// One shard's reporter, for semantic merging (RaceReporter::merge)
  /// that survives per-shard record caps.  Requires a preceding drain().
  const RaceReporter &shardReporter(uint32_t Shard) const;

  /// Per-shard counters.  Requires a preceding drain().
  ShardStats shardStats(uint32_t Shard) const;

  /// Sum of the shard detectors' counters.  Requires a preceding drain().
  DetectorStats aggregateDetectorStats() const;

private:
  struct Shard {
    BoundedBatchQueue Queue;
    RaceReporter Reporter;
    Detector Det;
    std::thread Worker;

    // Producer-side ingest counters and the open (partial) batch.
    EventBatch Open;
    uint64_t EventsIngested = 0;
    uint64_t BatchesIngested = 0;

    // Observability identity: the trace row this shard's spans land on
    // (1 + shard index; row 0 is the pipeline thread) and the cached
    // queue-depth counter name, so sampling never builds strings.
    uint32_t Tid = 0;
    std::string QueueDepthName;

    Shard(size_t QueueDepth, LockSetInterner &Interner)
        : Queue(QueueDepth),
          Det(Reporter,
              Detector::Options{/*UseOwnership=*/false,
                                /*FieldsMerged=*/false},
              &Interner) {}
  };

  void workerLoop(Shard &S);
  void pushOpen(Shard &S);

  std::unique_ptr<LockSetInterner> OwnedInterner; ///< set iff none shared
  LockSetInterner *Locksets = nullptr;            ///< never null
  MetricsRegistry *Metrics = nullptr;             ///< null = no recording
  std::vector<std::unique_ptr<Shard>> Shards;
  size_t BatchCapacity;
  bool Finished = false;
};

/// The sharded detection runtime: a drop-in alternative to RaceRuntime
/// behind the same RuntimeHooks interface and the same per-thread front
/// end.  It adds the producer-side ownership filter, submits each event
/// that passes it straight to the shard pool, and drains the shards at
/// joins.
class ShardedRuntime : public AccessFrontEnd<ShardedRuntime> {
public:
  explicit ShardedRuntime(ShardedRuntimeOptions Opts = {});
  ~ShardedRuntime() override;

  void onRunEnd() override;

  /// Drains the shards and returns the merged reporter (shard order, then
  /// per-shard program order).
  const RaceReporter &reporter();

  /// reporter(), handed over by move: for a caller done with the runtime.
  /// A later reporter() merges the shards again.
  RaceReporter takeReporter();

  /// Drains the shards and returns aggregate counters.  For the same
  /// program and schedule every field equals the serial RaceRuntime's
  /// (tests/stats_test.cpp asserts this).
  RaceRuntimeStats stats();

  /// Drains the shards and returns per-shard counters.
  std::vector<ShardStats> shardStats();

  /// Stops the shard workers after a final drain.  Called automatically by
  /// the destructor and onRunEnd.
  void finish();

private:
  friend class AccessFrontEnd<ShardedRuntime>;

  void deliver(PerThread &T, ThreadId Thread, LocationKey Key,
               AccessKind Access, SiteId Site);
  /// Joins are drain barriers; other sync operations need nothing here.
  void syncPoint(bool Join);

  ShardPool Pool;
  OwnershipFilter Ownership;
  RaceReporter Merged;
  bool MergedValid = false;
  uint64_t EventsToDetector = 0; ///< post-cache events (EventsIn serially)
};

extern template class AccessFrontEnd<ShardedRuntime>;

} // namespace herd

#endif // HERD_DETECT_SHARDEDRUNTIME_H
