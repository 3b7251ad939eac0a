//===- tests/sharded_runtime_test.cpp - Sharded vs serial oracle ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle for the sharded detection runtime: for every
/// seed program, shard count and schedule seed, the sharded runtime must
/// report exactly the race-record set the serial runtime reports —
/// sharding is a throughput change, never a detection change
/// (docs/SHARDING.md).  Also unit-checks the ShardPool engine against a
/// serial Detector on a raw event stream.
///
//===----------------------------------------------------------------------===//

#include "FuzzPrograms.h"
#include "RaceRecords.h"
#include "TestPrograms.h"
#include "detect/Detector.h"
#include "detect/EventBatch.h"
#include "detect/ShardedRuntime.h"
#include "herd/Pipeline.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>

using namespace herd;
using testprogs::canonicalRecords;

namespace {

struct NamedProgram {
  std::string Name;
  Program P;
};

std::vector<NamedProgram> seedPrograms() {
  std::vector<NamedProgram> Out;
  Out.push_back({"counter_unlocked",
                 testprogs::buildCounter(/*Locked=*/false, 40).P});
  Out.push_back({"counter_locked",
                 testprogs::buildCounter(/*Locked=*/true, 40).P});
  Out.push_back({"figure2", testprogs::buildFigure2(/*SamePQ=*/false)});
  Out.push_back({"figure2_samepq", testprogs::buildFigure2(/*SamePQ=*/true)});
  Out.push_back({"fig3_loop", testprogs::buildFig3Loop(30)});
  for (uint64_t Seed : {2u, 5u, 11u, 17u}) {
    Out.push_back({"fuzz_" + std::to_string(Seed),
                   fuzzprogs::generateProgram(Seed)});
  }
  return Out;
}

constexpr uint32_t ShardCounts[] = {1, 2, 4, 8};
constexpr int NumScheduleSeeds = 16;

TEST(ShardedRuntimeTest, ReportsIdenticalToSerialAcrossShardCountsAndSeeds) {
  for (const NamedProgram &Prog : seedPrograms()) {
    for (int SeedIdx = 0; SeedIdx != NumScheduleSeeds; ++SeedIdx) {
      uint64_t Seed = 1 + uint64_t(SeedIdx);
      ToolConfig SerialCfg = ToolConfig::full();
      SerialCfg.Seed = Seed;
      PipelineResult Serial = runPipeline(Prog.P, SerialCfg);
      ASSERT_TRUE(Serial.Run.Ok)
          << Prog.Name << " seed " << Seed << ": " << Serial.Run.Error;
      std::multiset<std::string> Want = canonicalRecords(Serial.Reports);

      for (uint32_t Shards : ShardCounts) {
        ToolConfig Cfg = SerialCfg;
        Cfg.Shards = Shards;
        PipelineResult Result = runPipeline(Prog.P, Cfg);
        ASSERT_TRUE(Result.Run.Ok)
            << Prog.Name << " seed " << Seed << " shards " << Shards << ": "
            << Result.Run.Error;
        // The schedule must be byte-identical (detection never perturbs
        // the interpreter), so record sets are directly comparable.
        ASSERT_EQ(Serial.Run.InstructionsExecuted,
                  Result.Run.InstructionsExecuted)
            << Prog.Name << " seed " << Seed << " shards " << Shards;
        EXPECT_EQ(Want, canonicalRecords(Result.Reports))
            << Prog.Name << " seed " << Seed << " shards " << Shards;
      }
    }
  }
}

TEST(ShardedRuntimeTest, AblationConfigsAgreeWithSerialWhenSharded) {
  // The detection flags must mean the same thing under sharding.
  Program P = fuzzprogs::generateProgram(23);
  for (ToolConfig Base :
       {ToolConfig::noCache(), ToolConfig::noOwnership(),
        ToolConfig::fieldsMerged(), ToolConfig::noStatic()}) {
    Base.Seed = 9;
    PipelineResult Serial = runPipeline(P, Base);
    ASSERT_TRUE(Serial.Run.Ok) << Serial.Run.Error;
    ToolConfig Cfg = Base;
    Cfg.Shards = 4;
    PipelineResult Result = runPipeline(P, Cfg);
    ASSERT_TRUE(Result.Run.Ok) << Result.Run.Error;
    EXPECT_EQ(canonicalRecords(Serial.Reports),
              canonicalRecords(Result.Reports));
  }
}

TEST(ShardedRuntimeTest, ShardPoolMatchesSerialDetectorOnRawEvents) {
  // Engine-level differential: a random event stream through ShardPool
  // must yield the same per-location reports as one serial Detector.
  for (uint32_t Shards : ShardCounts) {
    Rng R(77);
    RaceReporter SerialReporter;
    Detector Serial(SerialReporter, {/*UseOwnership=*/false});
    ShardPool Pool(Shards, /*BatchCapacity=*/8, /*QueueDepth=*/4);

    for (int Step = 0; Step != 4000; ++Step) {
      AccessEvent E;
      E.Location = LocationKey::forField(ObjectId(uint32_t(R.nextBelow(32))),
                                         FieldId(uint32_t(R.nextBelow(2))));
      E.Thread = ThreadId(uint32_t(R.nextBelow(3)));
      if (R.nextChance(1, 2))
        E.Locks.insert(LockId(uint32_t(R.nextBelow(3))));
      E.Access = R.nextChance(1, 3) ? AccessKind::Write : AccessKind::Read;
      Serial.handleAccess(E);
      // The pool ingests only pre-interned DetectorEvents (the live path's
      // contract); interning here plays the producer's role.
      Pool.submit(DetectorEvent{E.Location, E.Thread,
                                Pool.interner().intern(E.Locks), E.Access,
                                E.Site});
    }
    Pool.finish();

    RaceReporter PoolReporter;
    for (uint32_t I = 0; I != Pool.numShards(); ++I)
      PoolReporter.merge(Pool.shardReporter(I));
    EXPECT_EQ(canonicalRecords(SerialReporter),
              canonicalRecords(PoolReporter))
        << "shards " << Shards;
    EXPECT_EQ(Serial.stats().RacesReported,
              Pool.aggregateDetectorStats().RacesReported);
    EXPECT_EQ(Serial.stats().TrieNodes,
              Pool.aggregateDetectorStats().TrieNodes);
  }
}

/// Checks every part of \p Got a reader can observe against \p Want: the
/// records in order with their locksets (and lockset ids, between
/// reporters of one interner), the fingerprint groups, the counts, the
/// drops and the locations.
void expectSameReporter(const RaceReporter &Got, const RaceReporter &Want) {
  ASSERT_EQ(Got.records().size(), Want.records().size());
  const bool OneInterner = Got.locksets() == Want.locksets();
  auto SameSet = [&](LockSetId A, LockSetId B) {
    return (!OneInterner || A == B) &&
           std::ranges::equal(Got.locks(A), Want.locks(B));
  };
  for (size_t I = 0; I != Want.records().size(); ++I) {
    const RaceRecord &G = Got.records()[I];
    const RaceRecord &W = Want.records()[I];
    ASSERT_TRUE(G.Location == W.Location && G.Fingerprint == W.Fingerprint &&
                G.CurrentThread == W.CurrentThread &&
                G.CurrentSite == W.CurrentSite &&
                SameSet(G.CurrentLocks, W.CurrentLocks) &&
                G.PriorThread == W.PriorThread &&
                G.PriorSite == W.PriorSite &&
                SameSet(G.PriorLocks, W.PriorLocks) &&
                G.CurrentAccess == W.CurrentAccess &&
                G.PriorAccess == W.PriorAccess &&
                G.PriorThreadKnown == W.PriorThreadKnown)
        << "record " << I;
  }
  ASSERT_EQ(Got.groups().size(), Want.groups().size());
  for (size_t I = 0; I != Want.groups().size(); ++I) {
    const RaceReporter::Group &G = Got.groups()[I];
    const RaceReporter::Group &W = Want.groups()[I];
    ASSERT_TRUE(G.Fingerprint == W.Fingerprint &&
                G.FirstRecord == W.FirstRecord && G.Count == W.Count)
        << "group " << I;
  }
  EXPECT_EQ(Got.reportedLocations(), Want.reportedLocations());
  EXPECT_EQ(Got.countDistinctObjects(), Want.countDistinctObjects());
  EXPECT_EQ(Got.droppedRecords(), Want.droppedRecords());
  EXPECT_EQ(Got.totalReported(), Want.totalReported());
  EXPECT_EQ(Got.capacity(), Want.capacity());
}

/// The shards of \p Pool merged into an empty reporter, in shard order.
RaceReporter mergedFromEmpty(const ShardPool &Pool) {
  RaceReporter Out;
  for (uint32_t I = 0; I != Pool.numShards(); ++I)
    Out.merge(Pool.shardReporter(I));
  return Out;
}

TEST(ShardedRuntimeTest, MergedReportersEqualMergingIntoAnEmptyReporter) {
  // Both ways a sharded runtime hands out its reporter start from shard
  // 0's reporter (a copy mid-run, moved out at the end) and merge the
  // other shards in.  The result must be what merging every shard into an
  // empty reporter gives.  A reference pool with the same shard count
  // sees the events the runtime submits, so its shards are the runtime's.
  struct Stream {
    const char *Name;
    uint32_t Accesses, Objects, Sites, Locks;
    uint64_t WriteOdds; ///< an access is a write with chance 1 in this
    bool PastCap;       ///< reports more than RaceReporter retains
  };
  // An access holds one of Locks locks, or none.  With few locks most
  // accesses are weaker than one stored before them.  With many, and
  // writes only, nearly every access races, and the second stream reports
  // past the 2^16-record cap with fingerprints both known and new after
  // it.
  for (Stream St : {Stream{"small", 3000, 48, 8, 3, 2, false},
                    Stream{"past-cap", 84000, 4096, 256, 256, 1, true}}) {
    for (uint32_t Shards : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(St.Name) + ", " + std::to_string(Shards) +
                   " shards");
      ShardedRuntimeOptions Opts;
      Opts.NumShards = Shards;
      Opts.UseCache = false;     // every access reaches the pool
      Opts.UseOwnership = false; // unfiltered, like the reference's events
      ShardedRuntime Runtime(Opts);
      ShardPool Ref(Shards, Opts.BatchCapacity, Opts.QueueDepthBatches);
      Rng R(St.Accesses);
      for (uint32_t T = 1; T <= 3; ++T)
        Runtime.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));
      for (uint32_t Step = 0; Step != St.Accesses; ++Step) {
        ThreadId T(1 + uint32_t(R.nextBelow(3)));
        LockId Lock(uint32_t(R.nextBelow(St.Locks + 1)));
        bool Locked = Lock.index() != St.Locks;
        if (Locked)
          Runtime.onMonitorEnter(T, Lock, /*Recursive=*/false);
        LocationKey Key = LocationKey::forField(
            ObjectId(uint32_t(R.nextBelow(St.Objects))),
            FieldId(uint32_t(R.nextBelow(2))));
        AccessKind Kind = R.nextChance(1, St.WriteOdds) ? AccessKind::Write
                                                         : AccessKind::Read;
        SiteId Site(uint32_t(R.nextBelow(St.Sites)));
        Runtime.onAccess(T, Key, Kind, Site);
        Ref.submit(DetectorEvent{Key, T,
                                 Ref.interner().intern(Runtime.lockSetOf(T)),
                                 Kind, Site});
        if (Locked)
          Runtime.onMonitorExit(T, Lock, /*StillHeld=*/false);
        if (Step == St.Accesses / 2) {
          // Mid-run, as a traced benchmark run reads it.
          Ref.drain();
          expectSameReporter(Runtime.reporter(), mergedFromEmpty(Ref));
        }
      }
      Runtime.onRunEnd();
      Ref.finish();
      RaceReporter Want = mergedFromEmpty(Ref);
      if (St.PastCap) {
        ASSERT_GT(Want.totalReported(), RaceReporter::DefaultCapacity);
        ASSERT_GT(Want.droppedRecords(), 0u);
      }
      expectSameReporter(Runtime.reporter(), Want);
      expectSameReporter(Ref.mergedReporter(), Want);
      expectSameReporter(Runtime.takeReporter(), Want);
      expectSameReporter(Ref.takeMergedReporter(), Want);
    }
  }
}

TEST(ShardedRuntimeTest, ShardAssignmentIsStableAndExhaustive) {
  // Every location maps to exactly one shard, and the mapping does not
  // depend on anything but the key and the shard count.
  for (uint32_t Shards : ShardCounts) {
    for (uint32_t Obj = 0; Obj != 100; ++Obj) {
      LocationKey Key = LocationKey::forField(ObjectId(Obj), FieldId(1));
      uint32_t S = ShardPool::shardOf(Key, Shards);
      EXPECT_LT(S, Shards);
      EXPECT_EQ(S, ShardPool::shardOf(Key, Shards));
    }
  }
}

TEST(ShardedRuntimeTest, ShardAssignmentSpreadsStridedKeys) {
  // Regression for the unmixed `raw % NumShards` assignment: location keys
  // produced by real programs are strided (object ids in the high word,
  // field ids in the low), so any stride sharing a factor with the shard
  // count piled every key onto a few shards.  With the mixed hash no shard
  // may receive more than twice its fair share for any strided pattern.
  constexpr uint32_t NumKeys = 4096;
  for (uint32_t Shards : {3u, 4u, 8u}) {
    for (uint64_t Stride : {uint64_t(Shards), uint64_t(2 * Shards),
                            uint64_t(8), uint64_t(64), uint64_t(1) << 32}) {
      std::vector<uint32_t> Counts(Shards, 0);
      for (uint64_t I = 0; I != NumKeys; ++I) {
        uint32_t S =
            ShardPool::shardOf(LocationKey::fromRaw(I * Stride), Shards);
        ASSERT_LT(S, Shards);
        ++Counts[S];
      }
      uint32_t FairShare = NumKeys / Shards;
      for (uint32_t S = 0; S != Shards; ++S)
        EXPECT_LE(Counts[S], 2 * FairShare)
            << "shard " << S << " of " << Shards << ", stride " << Stride;
    }
  }
}

TEST(BoundedBatchQueueTest, StopUnblocksABlockedProducer) {
  // Regression for the producer deadlock: push() used to wait on NotFull
  // with a predicate that never checked Stopped, so a producer blocked on
  // backpressure slept forever once the consumer was gone.
  BoundedBatchQueue Queue(/*MaxBatches=*/1);
  EventBatch First;
  First.Events.resize(1);
  ASSERT_TRUE(Queue.push(std::move(First))); // fill the queue; no consumer

  std::atomic<bool> SecondPushReturned{false};
  std::atomic<bool> SecondPushResult{true};
  std::thread Producer([&] {
    EventBatch Second;
    Second.Events.resize(1);
    SecondPushResult = Queue.push(std::move(Second)); // blocks: queue full
    SecondPushReturned = true;
  });

  // Give the producer time to actually block on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(SecondPushReturned);

  Queue.stop();
  Producer.join(); // without the fix this join hangs (ctest TIMEOUT)
  EXPECT_TRUE(SecondPushReturned);
  EXPECT_FALSE(SecondPushResult) << "a stopped push must report rejection";
}

TEST(BoundedBatchQueueTest, PushAfterStopIsRejectedImmediately) {
  BoundedBatchQueue Queue(/*MaxBatches=*/4);
  Queue.stop();
  EventBatch Batch;
  Batch.Events.resize(1);
  EXPECT_FALSE(Queue.push(std::move(Batch)));
}

TEST(BoundedBatchQueueTest, StopDrainsRemainingBatchesToTheConsumer) {
  // stop() must not lose batches already queued: the consumer keeps
  // popping until empty, and only then sees the stop.
  BoundedBatchQueue Queue(/*MaxBatches=*/8);
  for (int I = 0; I != 3; ++I) {
    EventBatch Batch;
    Batch.Events.resize(size_t(I) + 1);
    ASSERT_TRUE(Queue.push(std::move(Batch)));
  }
  Queue.stop();
  EventBatch Out;
  int Popped = 0;
  while (Queue.pop(Out)) {
    ++Popped;
    Queue.completeOne();
  }
  EXPECT_EQ(Popped, 3);
}

TEST(ShardedRuntimeTest, ThroughputBenchPreconditionHolds) {
  // The bench harness claims sharded throughput by feeding ShardPool
  // directly; sanity-check here that a drained pool saw every event.
  ShardPool Pool(4, /*BatchCapacity=*/16, /*QueueDepth=*/8);
  for (int I = 0; I != 1000; ++I) {
    DetectorEvent E;
    E.Location = LocationKey::forField(ObjectId(uint32_t(I % 64)), FieldId(0));
    E.Thread = ThreadId(uint32_t(I % 2));
    E.Locks = LockSetInterner::emptySet();
    E.Access = AccessKind::Write;
    Pool.submit(E);
  }
  Pool.drain();
  uint64_t Total = 0;
  for (uint32_t S = 0; S != Pool.numShards(); ++S)
    Total += Pool.shardStats(S).EventsIngested;
  EXPECT_EQ(Total, 1000u);
  EXPECT_EQ(Pool.aggregateDetectorStats().EventsIn, 1000u);
  Pool.finish();
}

} // namespace
