//===- detect/ShardedRuntime.cpp - Sharded batched detection --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/ShardedRuntime.h"

#include "support/Compiler.h"
#include "support/Metrics.h"

#include <cassert>

using namespace herd;

//===----------------------------------------------------------------------===
// ShardPool
//===----------------------------------------------------------------------===

ShardPool::ShardPool(uint32_t NumShards, size_t BatchCapacity,
                     size_t QueueDepth, LockSetInterner *Locksets,
                     const DetectorPlan &Plan, MetricsRegistry *Metrics)
    : Locksets(Locksets), Metrics(Metrics),
      BatchCapacity(BatchCapacity == 0 ? 1 : BatchCapacity) {
  if (!this->Locksets) {
    OwnedInterner = std::make_unique<LockSetInterner>();
    this->Locksets = OwnedInterner.get();
  }
  if (NumShards == 0)
    NumShards = 1;
  if (QueueDepth == 0)
    QueueDepth = 1;
  // Interner-scoped hints apply once here, before any worker exists (intern
  // and reserve are producer-thread-only); the per-shard slice that each
  // detector applies below carries only location-scaled fields.
  DetectorPlan Clamped = Plan.clamped();
  this->Locksets->reserve(Clamped.ExpectedLocksets);
  for (const LockSet &Set : Clamped.PreinternLocksets)
    this->Locksets->intern(Set);
  Shards.reserve(NumShards);
  for (uint32_t I = 0; I != NumShards; ++I) {
    Shards.push_back(std::make_unique<Shard>(QueueDepth, *this->Locksets));
    Shards.back()->Det.applyPlan(Clamped.forShard(I, NumShards));
    Shards.back()->Open.Events.reserve(this->BatchCapacity);
    // Row 0 is the pipeline (producer) thread; shards get 1..N.
    Shards.back()->Tid = 1 + I;
    Shards.back()->QueueDepthName =
        "shard" + std::to_string(I) + ".queue_depth";
    if (Metrics)
      Metrics->nameThread(1 + I, "shard " + std::to_string(I));
  }
  for (auto &S : Shards)
    S->Worker = std::thread([this, Raw = S.get()] { workerLoop(*Raw); });
}

ShardPool::~ShardPool() { finish(); }

void ShardPool::workerLoop(Shard &S) {
  EventBatch Batch;
  while (S.Queue.pop(Batch)) {
    {
      // One span per processed batch on this shard's trace row; a null
      // registry makes the Span a no-op without branching here.
      Span BatchSpan(Metrics, "batch", "shard", S.Tid);
      for (const DetectorEvent &Event : Batch.Events)
        S.Det.handleEvent(Event);
    }
    // Hand the emptied buffer back through the queue so the producer can
    // reuse it: steady-state transport allocates nothing.
    S.Queue.completeOne(std::move(Batch));
    Batch = EventBatch();
  }
}

void ShardPool::pushOpen(Shard &S) {
  ++S.BatchesIngested;
  bool Pushed = S.Queue.push(std::move(S.Open));
  (void)Pushed;
  assert(Pushed && "shard queue stopped while ingesting");
  if (HERD_UNLIKELY(Metrics != nullptr))
    Metrics->recordCounterSample(S.QueueDepthName, S.Tid,
                                 int64_t(S.Queue.depth()));
  if (!S.Queue.takeSpare(S.Open)) {
    S.Open = EventBatch();
    S.Open.Events.reserve(BatchCapacity);
  }
}

void ShardPool::submit(const DetectorEvent &Event) {
  assert(!Finished && "submit after finish");
  Shard &S = *Shards[shardOf(Event.Location, numShards())];
  ++S.EventsIngested;
  S.Open.Events.push_back(Event);
  if (S.Open.Events.size() >= BatchCapacity)
    pushOpen(S);
}

void ShardPool::flush() {
  if (Finished)
    return; // the final drain already ran; queues are stopped
  for (auto &S : Shards) {
    if (S->Open.Events.empty())
      continue;
    pushOpen(*S);
  }
}

void ShardPool::drain() {
  if (Finished)
    return;
  flush();
  for (auto &S : Shards)
    S->Queue.waitIdle();
}

void ShardPool::finish() {
  if (Finished)
    return;
  drain();
  Finished = true;
  for (auto &S : Shards)
    S->Queue.stop();
  for (auto &S : Shards)
    if (S->Worker.joinable())
      S->Worker.join();
}

const RaceReporter &ShardPool::shardReporter(uint32_t Shard) const {
  assert(Shard < Shards.size());
  return Shards[Shard]->Reporter;
}

ShardStats ShardPool::shardStats(uint32_t Shard) const {
  assert(Shard < Shards.size());
  const auto &S = *Shards[Shard];
  ShardStats Stats;
  Stats.EventsIngested = S.EventsIngested;
  Stats.BatchesIngested = S.BatchesIngested;
  Stats.MaxQueueDepthBatches = S.Queue.maxDepthSeen();
  Stats.Detector = S.Det.stats();
  return Stats;
}

DetectorStats ShardPool::aggregateDetectorStats() const {
  DetectorStats Sum;
  for (const auto &S : Shards) {
    DetectorStats D = S->Det.stats();
    Sum.EventsIn += D.EventsIn;
    Sum.OwnedFiltered += D.OwnedFiltered;
    Sum.WeakerFiltered += D.WeakerFiltered;
    Sum.RacesReported += D.RacesReported;
    Sum.LocationsTracked += D.LocationsTracked;
    Sum.LocationsShared += D.LocationsShared;
    Sum.TrieNodes += D.TrieNodes;
  }
  return Sum;
}

//===----------------------------------------------------------------------===
// ShardedRuntime
//===----------------------------------------------------------------------===

template class herd::AccessFrontEnd<ShardedRuntime>;

ShardedRuntime::ShardedRuntime(ShardedRuntimeOptions Opts)
    : AccessFrontEnd(Opts), FastOn(Opts.HookFilter),
      StageCapacity(Opts.BatchCapacity == 0 ? 1 : Opts.BatchCapacity),
      Pool(Opts.NumShards, Opts.BatchCapacity, Opts.QueueDepthBatches,
           /*Locksets=*/nullptr, Opts.Plan, Opts.Metrics) {
  Ownership.reserve(Opts.Plan.clamped().ExpectedLocations);
  if (FastOn)
    Staged.Events.reserve(StageCapacity);
  // Ownership runs on the producer thread, so the Section 7.2 eviction is
  // synchronous with ingest exactly as in the serial runtime.
  Ownership.setOnShared(
      [this](LocationKey Key, ThreadId Owner) { evictShared(Key, Owner); });
}

ShardedRuntime::~ShardedRuntime() { finish(); }

void ShardedRuntime::syncPoint(bool Join) {
  // Join points are drain barriers: every event from before the join is
  // fully processed before execution continues, which bounds queue skew
  // and makes mid-run statistics snapshots deterministic.  drain() flushes
  // the staging batch first.
  if (Join)
    drain();
  else if (FastOn)
    flushStaged();
}

void ShardedRuntime::deliver(PerThread &T, ThreadId Thread, LocationKey Key,
                             AccessKind Access, SiteId Site) {
  MergedValid = false;
  ++EventsToDetector;
  if (Opts.UseOwnership && !Ownership.passes(Thread, Key))
    return;
  DetectorEvent Event = eventFor(T, Pool.interner(), Thread, Key, Access, Site);
  if (FastOn)
    stage(Event);
  else
    Pool.submit(Event);
}

void ShardedRuntime::stage(const DetectorEvent &Event) {
  if (!Staged.Events.empty() && StagedThread != Event.Thread)
    flushStaged(); // thread switch: keep the global submit order exact
  StagedThread = Event.Thread;
  Staged.Events.push_back(Event);
  if (Staged.Events.size() >= StageCapacity)
    flushStaged();
}

void ShardedRuntime::flushStaged() {
  if (Staged.Events.empty())
    return;
  for (const DetectorEvent &Event : Staged.Events)
    Pool.submit(Event);
  ++BatchFlushes;
  BatchedEvents += Staged.Events.size();
  Staged.Events.clear();
}

void ShardedRuntime::onQuantumEnd(ThreadId /*Thread*/) {
  if (FastOn)
    flushStaged();
}

void ShardedRuntime::onRunEnd() { finish(); }

void ShardedRuntime::drain() {
  flushStaged();
  Pool.drain();
}

void ShardedRuntime::finish() {
  flushStaged();
  Pool.finish();
}

const RaceReporter &ShardedRuntime::reporter() {
  drain();
  if (!MergedValid) {
    // Semantic merge, not record re-reporting: per-shard reporters are
    // individually capped, and a records()-only merge would lose the
    // locations and occurrence counts a saturated shard shed past its
    // cap.  merge() carries the exact location/object sets, the group
    // counts, and the drop counters (shard order, so deterministic).
    Merged.clear();
    for (uint32_t I = 0; I != Pool.numShards(); ++I)
      Merged.merge(Pool.shardReporter(I));
    MergedValid = true;
  }
  return Merged;
}

RaceRuntimeStats ShardedRuntime::stats() {
  drain();
  RaceRuntimeStats S = frontEndStats();
  S.Hook.BatchFlushes = BatchFlushes;
  S.Hook.BatchedEvents = BatchedEvents;
  DetectorStats Agg = Pool.aggregateDetectorStats();
  S.Detector.EventsIn = EventsToDetector;
  S.Detector.WeakerFiltered = Agg.WeakerFiltered;
  S.Detector.RacesReported = Agg.RacesReported;
  S.Detector.TrieNodes = Agg.TrieNodes;
  if (Opts.UseOwnership) {
    // The shard detectors only ever see post-ownership events; the global
    // ownership picture lives in the producer-side filter.
    S.Detector.OwnedFiltered = Ownership.ownedFiltered();
    S.Detector.LocationsTracked = Ownership.locationsTracked();
    S.Detector.LocationsShared = Ownership.locationsShared();
  } else {
    S.Detector.OwnedFiltered = Agg.OwnedFiltered;
    S.Detector.LocationsTracked = Agg.LocationsTracked;
    S.Detector.LocationsShared = Agg.LocationsShared;
  }
  return S;
}

std::vector<ShardStats> ShardedRuntime::shardStats() {
  drain();
  std::vector<ShardStats> Out;
  for (uint32_t I = 0; I != Pool.numShards(); ++I)
    Out.push_back(Pool.shardStats(I));
  return Out;
}
