//===- bench/bench_hotpath.cpp - Detector hot-path regression harness -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation/throughput regression harness for the detector hot path
/// (docs/PERFORMANCE.md).  Records a set of traces once, timing each
/// recording: a synthetic detector-bound "refhot" stream, the five
/// benchmark replicas and the hook-bound "hotfield" loop.  Then it measures
/// every trace through two lane tables with one best-of-N helper:
///
///  * Replay lanes replay the trace, pass by pass, into one fresh detector
///    per rep.  `serial`, `serial+plan` (pre-sized by a DetectorPlan) and
///    `sharded<N>` replay cold, warm and steady passes: the cold pass builds
///    the access structures, the warm pass flushes the ownership filter's
///    first-touch shadow, the steady pass is the converged, allocation-free
///    state.  `vclock` replays cold, `epoch` cold plus steady
///    (docs/DETECTORS.md).
///  * Live lanes interpret each replica driving a plan-pre-sized serial
///    runtime: `switch` (the reference interpreter), `threaded` (computed
///    goto over the superinstruction shadow code, docs/INTERPRETER.md),
///    `threaded+probe` (the devirtualized sink with the inline cache probe:
///    the default `herd` path, docs/HOOKPATH.md) and `threaded+prov` (a
///    ProvenanceStore fanned out next to the detector, docs/REPORTS.md).
///
/// Every lane must report its reference lane's racy-location set on every
/// rep (`serial` for the lockset lanes, `vclock` for `epoch`), or the run
/// fails.  A counting global allocator measures allocations per event;
/// best-of-N lifts the timings out of scheduler noise.
///
/// `--smoke` shrinks every trace for CI; `--reps=N` sets the repetition
/// count (default 3, 1 under --smoke); `--out=PATH` writes the
/// herd-bench-hotpath-v6 JSON that scripts/check_bench_gate.py gates (the
/// checked-in BENCH_hotpath.json is a full run).
///
//===----------------------------------------------------------------------===//

#include "analysis/DetectorPlanner.h"
#include "analysis/StaticRace.h"
#include "baselines/EpochDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/Provenance.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "instr/Superinstr.h"
#include "ir/IRBuilder.h"
#include "runtime/Interpreter.h"
#include "support/Json.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

using namespace herd;

//===----------------------------------------------------------------------===
// Counting allocator: every global new/delete in the process, including the
// shard worker threads, lands here.  Counters are relaxed atomics; the
// measurement windows are bracketed by joins/drains, so totals are exact.
//===----------------------------------------------------------------------===

namespace {
std::atomic<uint64_t> GAllocCalls{0};
std::atomic<uint64_t> GAllocBytes{0};

void *countedAlloc(std::size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    std::abort();
  GAllocCalls.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  return P;
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

void *operator new(std::size_t Size, std::align_val_t Align) {
  std::size_t A = std::size_t(Align);
  void *P = std::aligned_alloc(A, (Size + A - 1) / A * A);
  if (!P)
    std::abort();
  GAllocCalls.fetch_add(1, std::memory_order_relaxed);
  GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  return P;
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return operator new(Size, Align);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

void check(const TraceResult &TR, const std::string &What) {
  if (!TR.Ok)
    throw std::runtime_error(What + ": " + TR.Error);
}

//===----------------------------------------------------------------------===
// The synthetic reference stream
//===----------------------------------------------------------------------===

/// Shape of the detector-bound reference stream.  Every access happens
/// under at least one real lock, so the cache eviction at the matching
/// monitorexit guarantees the next round misses the cache; the
/// location window strides through a footprint far larger than the cache,
/// and threads overlap on the same objects under differing locksets, so
/// the tries see growth, weaker-than filtering, and genuine races.
struct RefParams {
  uint32_t Threads = 8;  ///< worker threads (ids 1..Threads; 0 is main)
  uint32_t Locks = 16;   ///< real lock universe
  uint32_t Objects = 4096;
  uint32_t Fields = 4;
  uint32_t Window = 64;  ///< accesses per locked region
  uint32_t Rounds = 3600;
};

/// Emits the reference stream into \p Sink (a TraceWriter when recording).
/// Fully deterministic arithmetic — no RNG — so old and new builds replay
/// the byte-identical trace.
void emitReferenceStream(RuntimeHooks &Sink, const RefParams &P) {
  for (uint32_t T = 1; T <= P.Threads; ++T)
    Sink.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));

  for (uint32_t Round = 0; Round != P.Rounds; ++Round) {
    for (uint32_t T = 1; T <= P.Threads; ++T) {
      LockId Outer = LockId((Round + T) % P.Locks);
      LockId Inner = LockId((Round * 5 + T * 7 + 1) % P.Locks);
      bool Nest = ((Round + T) % 3 == 0) && Inner != Outer;

      Sink.onMonitorEnter(ThreadId(T), Outer, /*Recursive=*/false);
      if (Nest)
        Sink.onMonitorEnter(ThreadId(T), Inner, /*Recursive=*/false);

      for (uint32_t I = 0; I != P.Window; ++I) {
        uint32_t Obj = (Round * 97 + T * 31 + I * 13) % P.Objects;
        uint32_t Field = I % P.Fields;
        AccessKind Kind =
            (I + T) % 3 == 0 ? AccessKind::Write : AccessKind::Read;
        Sink.onAccess(ThreadId(T), LocationKey::forField(ObjectId(Obj),
                                                         FieldId(Field)),
                      Kind, SiteId(I % 32));
      }

      if (Nest)
        Sink.onMonitorExit(ThreadId(T), Inner, /*StillHeld=*/false);
      Sink.onMonitorExit(ThreadId(T), Outer, /*StillHeld=*/false);
    }
  }
}

/// Synthesizes the capacity plan for the reference stream from its own
/// parameters — the stand-in for `--plan=auto` on a trace that has no
/// program behind it.  The location count is exact (every (object, field)
/// pair is touched); the trie sizing uses the measured full-run density of
/// ~54 nodes per location, rounded up to 64.
DetectorPlan refhotPlan(const RefParams &P) {
  DetectorPlan Plan;
  Plan.ExpectedLocations = uint64_t(P.Objects) * P.Fields;
  Plan.ExpectedSharedLocations = Plan.ExpectedLocations;
  Plan.ExpectedTrieNodes = Plan.ExpectedLocations * 64;
  Plan.ExpectedThreads = P.Threads;
  // Locksets: {S_t, outer} and {S_t, outer, inner} per (thread, lock)
  // combination, plus transients — 8*16 + 8*16*16 ≈ 2.2k for the default
  // shape; the next power of two covers it.
  Plan.ExpectedLocksets = 4096;
  for (uint32_t T = 1; T <= P.Threads; ++T) {
    SortedIdSet<LockId> Dummy;
    Dummy.insert(RaceRuntime::dummyLockOf(ThreadId(T)));
    Plan.PreinternLocksets.push_back(std::move(Dummy));
  }
  return Plan;
}

/// `hotfield` — a tight single-threaded loop whose body is sixteen accesses
/// to the same field (docs/HOOKPATH.md).  After the first iteration every
/// access is a detector-side cache hit, so under the fused threaded
/// dispatch the per-event interpretation cost is a few nanoseconds and the
/// hook path dominates a live run.  The five replicas are
/// interpretation-bound, so their probed/unprobed live A/B hovers near
/// 1.0x however cheap the probe is; hotfield isolates the inline probe.
Workload buildHotField(uint32_t Scale) {
  Workload W;
  W.Name = "hotfield";
  W.Description = "hook-bound synthetic: tight redundant same-field loop";
  W.DynamicThreads = 1;
  W.ExpectedRacyObjectsFull = 0;
  IRBuilder B(W.P);
  ClassId Box = B.makeClass("Box");
  FieldId F = B.makeField(Box, "f");
  B.startMain();
  RegId Obj = B.emitNew(Box);
  B.emitPutField(Obj, F, B.emitConst(1));
  RegId N = B.emitConst(int64_t(20000) * Scale);
  B.forLoop(0, N, 1, [&](RegId) {
    // Eight read/write pairs: enough straight-line accesses that the loop
    // bookkeeping amortizes away and the stream is ~100% cache hits.
    for (int K = 0; K != 8; ++K)
      B.emitPutField(Obj, F, B.emitGetField(Obj, F));
  });
  B.emitPrint(B.emitGetField(Obj, F));
  B.emitReturn();
  return W;
}

//===----------------------------------------------------------------------===
// Measurement
//===----------------------------------------------------------------------===

/// One timed window — a replay pass or a live run — and what it cost.
struct Measure {
  std::string Lane; ///< "serial", "sharded2", "switch", "threaded+probe", ...
  const char *Pass = "cold"; ///< "cold", "warm" or "steady"
  double Seconds = 0;
  double EventsPerSec = 0;
  uint64_t Allocs = 0;
  double AllocsPerEvent = 0;
  double AllocBytesPerEvent = 0;
  // Live lanes only.  Deterministic per (program, lane), so the best rep's
  // counters are every rep's.
  InterpResult Run;
  RaceRuntimeStats Stats;
  uint64_t ProvenanceAccesses = 0;
};

/// Runs \p Body as one measured window over \p Events events.
template <typename Fn>
Measure timed(const std::string &Lane, const char *Pass, uint64_t Events,
              Fn Body) {
  uint64_t Allocs0 = GAllocCalls.load(std::memory_order_relaxed);
  uint64_t Bytes0 = GAllocBytes.load(std::memory_order_relaxed);
  auto T0 = std::chrono::steady_clock::now();
  Body();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  uint64_t Allocs = GAllocCalls.load(std::memory_order_relaxed) - Allocs0;
  uint64_t Bytes = GAllocBytes.load(std::memory_order_relaxed) - Bytes0;
  Measure M;
  M.Lane = Lane;
  M.Pass = Pass;
  M.Seconds = Seconds;
  M.EventsPerSec = ratio(double(Events), Seconds);
  M.Allocs = Allocs;
  M.AllocsPerEvent = ratio(double(Allocs), double(Events));
  M.AllocBytesPerEvent = ratio(double(Bytes), double(Events));
  return M;
}

/// The one best-of-N helper: runs \p Rep (one rep of a lane, returning its
/// windows in pass order) \p Reps times and keeps each window's fastest.
template <typename Fn> std::vector<Measure> bestOf(uint32_t Reps, Fn Rep) {
  std::vector<Measure> Best = Rep();
  for (uint32_t I = 1; I < Reps; ++I) {
    std::vector<Measure> One = Rep();
    for (size_t P = 0; P != Best.size(); ++P)
      if (One[P].EventsPerSec > Best[P].EventsPerSec)
        Best[P] = std::move(One[P]);
  }
  return Best;
}

/// A recorded trace, its inputs for the lanes, and what they measured.
struct Trace {
  explicit Trace(const std::string &Name)
      : Name(Name), Path("hotpath-" + Name) {}

  std::string Name;
  TempPath Path;
  uint64_t Events = 0;
  uint64_t Bytes = 0;
  double RecordEventsPerSec = 0;
  DetectorPlan Plan; ///< pre-sizing for the planned lanes
  /// Replicas only: the program and its shadow code, for the live lanes.
  const Program *Prog = nullptr;
  std::unique_ptr<ThreadedCode> Fused;

  std::vector<Measure> Passes;         ///< replay lanes, in table order
  std::map<std::string, Measure> Live; ///< live lanes by name
  std::map<std::string, std::set<LocationKey>> Races; ///< last rep, by lane
  std::map<std::string, bool> Agrees; ///< lane: matched its reference

  bool agreement() const {
    return std::all_of(Agrees.begin(), Agrees.end(),
                       [](const auto &A) { return A.second; });
  }
  const Measure &pass(const std::string &Lane, const char *P) const {
    for (const Measure &M : Passes)
      if (M.Lane == Lane && std::strcmp(M.Pass, P) == 0)
        return M;
    throw std::logic_error(Name + ": no " + Lane + " " + P + " pass");
  }
};

/// Records \p Emit's event stream into \p Name's trace file, timing it.
template <typename Fn> Trace record(const std::string &Name, Fn Emit) {
  Trace T(Name);
  TraceWriter Writer;
  check(Writer.open(T.Path), Name);
  double Seconds = timed(Name, "record", 0, [&] { Emit(Writer); }).Seconds;
  check(Writer.close(), Name);
  T.Events = Writer.recordsWritten();
  T.Bytes = Writer.bytesWritten();
  T.RecordEventsPerSec = ratio(double(T.Events), Seconds);
  return T;
}

//===----------------------------------------------------------------------===
// The lane tables
//===----------------------------------------------------------------------===

/// A lane: one configuration under test.  Once runs one rep over a trace,
/// leaves the rep's race set in Trace::Races and returns its windows.
struct Lane {
  std::string Name;
  std::string Reference; ///< lane whose race set this one must equal
  std::function<std::vector<Measure>(Trace &)> Once;
};

/// A replay lane over detector type D: each rep replays \p Passes into one
/// fresh D from \p Make, each pass in its own timed window.
template <typename D, typename MakeFn>
Lane replayLane(const std::string &Name, std::vector<const char *> Passes,
                const std::string &Reference, MakeFn Make) {
  return {Name, Reference, [=](Trace &T) {
            std::unique_ptr<D> Det = Make(T);
            std::vector<Measure> Windows;
            for (const char *Pass : Passes) {
              TraceReader Reader;
              check(Reader.open(T.Path), T.Name);
              Windows.push_back(timed(Name, Pass, T.Events, [&] {
                check(Reader.replayInto(*Det), T.Name);
                // stats() is the public drain barrier: the window covers
                // every event being processed, not just enqueued.
                if constexpr (std::is_same_v<D, ShardedRuntime>)
                  (void)Det->stats();
              }));
            }
            Det->onRunEnd();
            if constexpr (requires { Det->reporter(); })
              T.Races[Name] = Det->reporter().reportedLocations();
            else
              T.Races[Name] = Det->reportedLocations();
            return Windows;
          }};
}

std::vector<Lane> replayLanes(bool Smoke) {
  const std::vector<const char *> Converge = {"cold", "warm", "steady"};
  std::vector<Lane> Lanes = {
      replayLane<RaceRuntime>("serial", Converge, "", [](const Trace &) {
        return std::make_unique<RaceRuntime>();
      }),
      replayLane<RaceRuntime>("serial+plan", Converge, "serial",
                              [](const Trace &T) {
                                RaceRuntimeOptions Opts;
                                Opts.Plan = T.Plan;
                                return std::make_unique<RaceRuntime>(Opts);
                              }),
  };
  for (uint32_t Shards : Smoke ? std::vector<uint32_t>{2}
                               : std::vector<uint32_t>{2, 4}) {
    ShardedRuntimeOptions Opts;
    Opts.NumShards = Shards;
    Lanes.push_back(replayLane<ShardedRuntime>(
        "sharded" + std::to_string(Shards), Converge, "serial",
        [Opts](const Trace &) {
          return std::make_unique<ShardedRuntime>(Opts);
        }));
  }
  // The happens-before pair: its race notion differs from the lockset
  // lanes', so epoch answers to the vector-clock baseline it optimizes.
  Lanes.push_back(replayLane<VectorClockDetector>(
      "vclock", {"cold"}, "",
      [](const Trace &) { return std::make_unique<VectorClockDetector>(); }));
  Lanes.push_back(replayLane<EpochDetector>(
      "epoch", {"cold", "steady"}, "vclock",
      [](const Trace &T) { return std::make_unique<EpochDetector>(T.Plan); }));
  return Lanes;
}

/// A live lane: the replica interpreted once per rep, driving a fresh
/// plan-pre-sized serial runtime.
Lane liveLane(const char *Name, DispatchMode Dispatch, bool Devirt,
              bool Provenance) {
  return {Name, "serial", [=](Trace &T) {
            RaceRuntimeOptions ROpts;
            ROpts.Plan = T.Plan;
            auto RT = std::make_unique<RaceRuntime>(ROpts);
            ProvenanceStore Prov;
            FanoutHooks Fanout{RT.get(), &Prov};
            InterpOptions IOpts;
            IOpts.TraceEveryAccess = true;
            IOpts.Dispatch = Dispatch;
            if (Dispatch == DispatchMode::Threaded)
              IOpts.Fused = T.Fused.get();
            IOpts.SerialSink = Devirt ? RT.get() : nullptr;
            RuntimeHooks *Serial = RT.get();
            Interpreter Interp(*T.Prog, Provenance ? &Fanout : Serial, IOpts);
            InterpResult R;
            Measure M = timed(Name, "cold", T.Events, [&] {
              R = Interp.run();
            });
            RT->onRunEnd();
            if (!R.Ok)
              throw std::runtime_error(T.Name + " live: " + R.Error);
            M.Run = std::move(R);
            M.Stats = RT->stats();
            M.ProvenanceAccesses = Prov.accessesObserved();
            T.Races[Name] = RT->reporter().reportedLocations();
            return std::vector<Measure>{M};
          }};
}

/// The live lane table: dispatch mode, devirtualized sink + inline cache
/// probe, ProvenanceStore fanned out next to the detector.
const Lane LiveLanes[] = {
    liveLane("switch", DispatchMode::Switch, false, false),
    liveLane("threaded", DispatchMode::Threaded, false, false),
    liveLane("threaded+probe", DispatchMode::Threaded, true, false),
    liveLane("threaded+prov", DispatchMode::Threaded, false, true),
};

/// Runs \p L best-of-\p Reps over \p T, checking every rep's race set
/// against the lane's reference, and prints the best windows.
std::vector<Measure> run(const Lane &L, Trace &T, uint32_t Reps) {
  bool Agree = true;
  std::vector<Measure> Best = bestOf(Reps, [&] {
    std::vector<Measure> Windows = L.Once(T);
    if (!L.Reference.empty())
      Agree = Agree && T.Races[L.Name] == T.Races[L.Reference];
    return Windows;
  });
  T.Agrees[L.Name] = Agree;
  for (const Measure &M : Best)
    std::printf("%-8s %-13s %-6s %12.0f %10.4f %10llu %9.3f %9.1f\n",
                T.Name.c_str(), M.Lane.c_str(), M.Pass, M.EventsPerSec,
                M.Seconds, (unsigned long long)M.Allocs, M.AllocsPerEvent,
                M.AllocBytesPerEvent);
  return Best;
}

/// Writes `"Key": {...}`, \p Body emitting the members.
template <typename Fn> void object(JsonWriter &W, const char *Key, Fn Body) {
  W.key(Key);
  W.beginObject();
  Body();
  W.endObject();
}

void writeLive(JsonWriter &W, const char *Key, const Measure &M,
               double ReplayColdEps) {
  object(W, Key, [&] {
    W.member("seconds", M.Seconds);
    W.member("events_per_sec", M.EventsPerSec);
    W.member("allocs_per_event", M.AllocsPerEvent);
    W.member("ratio_vs_replay_cold", ratio(M.EventsPerSec, ReplayColdEps));
    W.member("fused_execs", M.Run.Fused.total());
    W.member("block_retire_hits", M.Run.BlockRetireHits);
    W.member("block_retired_steps", M.Run.BlockRetiredSteps);
  });
}

void writeTrace(JsonWriter &W, const Trace &T) {
  W.beginObject();
  W.member("name", T.Name);
  W.member("events", T.Events);
  W.member("file_bytes", T.Bytes);
  W.member("bytes_per_event", ratio(double(T.Bytes), double(T.Events)));
  W.member("record_events_per_sec", T.RecordEventsPerSec);
  W.member("agreement", T.agreement());
  object(W, "cold_ab", [&] {
    W.member("allocs_per_event", T.pass("serial", "cold").AllocsPerEvent);
    W.member("allocs_per_event_planned",
             T.pass("serial+plan", "cold").AllocsPerEvent);
  });
  if (T.Prog) {
    const Measure &Th = T.Live.at("threaded"),
                  &Probe = T.Live.at("threaded+probe"),
                  &Pv = T.Live.at("threaded+prov");
    double Cold = T.pass("serial", "cold").EventsPerSec;
    writeLive(W, "live", Th, Cold);
    object(W, "live_by_dispatch", [&] {
      writeLive(W, "switch", T.Live.at("switch"), Cold);
      writeLive(W, "threaded", Th, Cold);
    });
    // The schema keeps its filter_* names for the inline probe: every
    // access event was a probe hit or reached the detector, so
    // access_events == filter_hits + events_delivered.
    const RaceRuntimeStats &S = Probe.Stats;
    object(W, "hook_path", [&] {
      W.member("live_unfiltered_events_per_sec", Th.EventsPerSec);
      W.member("live_filtered_events_per_sec", Probe.EventsPerSec);
      W.member("speedup", ratio(Probe.EventsPerSec, Th.EventsPerSec));
      W.member("access_events", Probe.Run.AccessEvents);
      W.member("filter_hits", S.CacheHits);
      W.member("filter_misses", S.CacheMisses);
      W.member("filter_hit_rate",
               ratio(double(S.CacheHits),
                     double(S.CacheHits + S.CacheMisses)));
      W.member("events_delivered", S.Detector.EventsIn);
      W.member("counters_reconcile",
               Probe.Run.AccessEvents == S.CacheHits + S.Detector.EventsIn);
    });
    object(W, "provenance_ab", [&] {
      W.member("off_events_per_sec", Probe.EventsPerSec);
      W.member("on_events_per_sec", Pv.EventsPerSec);
      W.member("overhead_ratio", ratio(Probe.EventsPerSec, Pv.EventsPerSec));
      W.member("accesses_observed", Pv.ProvenanceAccesses);
      W.member("agreement", T.Agrees.at("threaded+prov"));
    });
  }
  const Measure &Vc = T.pass("vclock", "cold");
  const Measure &Cold = T.pass("epoch", "cold"),
                &Steady = T.pass("epoch", "steady");
  object(W, "epoch_ab", [&] {
    W.member("vc_events_per_sec", Vc.EventsPerSec);
    W.member("epoch_cold_events_per_sec", Cold.EventsPerSec);
    W.member("epoch_steady_events_per_sec", Steady.EventsPerSec);
    W.member("speedup", ratio(Cold.EventsPerSec, Vc.EventsPerSec));
    W.member("steady_allocs_per_event", Steady.AllocsPerEvent);
    W.member("racy_locations", uint64_t(T.Races.at("epoch").size()));
    W.member("agreement", T.Agrees.at("epoch"));
  });
  W.key("passes");
  W.beginArray();
  for (const Measure &M : T.Passes) {
    W.beginObject();
    W.member("runtime", M.Lane);
    W.member("pass", M.Pass);
    W.member("seconds", M.Seconds);
    W.member("events_per_sec", M.EventsPerSec);
    W.member("allocs", M.Allocs);
    W.member("allocs_per_event", M.AllocsPerEvent);
    W.member("alloc_bytes_per_event", M.AllocBytesPerEvent);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string writeJson(const std::vector<Trace> &Traces, bool Smoke,
                      uint32_t Reps) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "herd-bench-hotpath-v6");
  W.member("smoke", Smoke);
  W.member("reps", Reps);
  // The dispatch lanes' interpreter counters, name-sorted like the
  // `--stats=json` metrics: fused executions, batched quantum retirement.
  std::map<std::string, uint64_t> Metrics;
  for (const Trace &T : Traces)
    for (const char *Mode : {"switch", "threaded"})
      if (auto It = T.Live.find(Mode); It != T.Live.end()) {
        std::string Prefix = "live." + T.Name + "." + Mode + ".";
        const InterpResult &R = It->second.Run;
        Metrics[Prefix + "fused_execs"] = R.Fused.total();
        Metrics[Prefix + "block_retire_hits"] = R.BlockRetireHits;
        Metrics[Prefix + "block_retired_steps"] = R.BlockRetiredSteps;
      }
  object(W, "metrics", [&] {
    for (const auto &[Name, Value] : Metrics)
      W.member(Name, Value);
  });
  W.key("traces");
  W.beginArray();
  for (const Trace &T : Traces)
    writeTrace(W, T);
  W.endArray();
  W.endObject();
  return Out + "\n";
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  uint32_t Reps = 0; // 0 = default (3, or 1 under --smoke)
  std::string OutPath;
  for (int I = 1; I != argc; ++I) {
    long N = 0;
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else if (std::strncmp(argv[I], "--reps=", 7) == 0 &&
               (N = std::atol(argv[I] + 7)) >= 1 && N <= 100) {
      Reps = uint32_t(N);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--reps=N (1..100)] [--out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (Reps == 0)
    Reps = Smoke ? 1 : 3;

  try {
    std::vector<Trace> Traces;
    RefParams Ref;
    if (Smoke)
      Ref.Rounds = 150;
    Traces.push_back(record(
        "refhot", [&](RuntimeHooks &Sink) { emitReferenceStream(Sink, Ref); }));
    Traces.back().Plan = refhotPlan(Ref);

    // The replicas plus hotfield, recorded through the interpreter; the
    // workloads outlive the measurement so the live lanes can re-run them.
    std::vector<Workload> Workloads = buildAllWorkloads(Smoke ? 1 : 4);
    Workloads.push_back(buildHotField(Smoke ? 1 : 4));
    for (Workload &W : Workloads) {
      Traces.push_back(record(W.Name, [&](RuntimeHooks &Sink) {
        InterpOptions Opts;
        Opts.TraceEveryAccess = true;
        InterpResult R = Interpreter(W.P, &Sink, Opts).run();
        if (!R.Ok)
          throw std::runtime_error(W.Name + " failed: " + R.Error);
      }));
      // The analysis-driven plan: what `--plan=auto` computes.
      StaticRaceAnalysis Races(W.P);
      Races.run();
      Traces.back().Plan = planDetector(W.P, Races);
      Traces.back().Prog = &W.P;
      Traces.back().Fused =
          std::make_unique<ThreadedCode>(buildThreadedCode(W.P));
    }

    std::printf("Detector hot-path regression harness "
                "(docs/PERFORMANCE.md)%s\n\n",
                Smoke ? " [smoke]" : "");
    std::printf("%-8s %-13s %-6s %12s %10s %10s %9s %9s\n", "trace", "lane",
                "pass", "events/s", "seconds", "allocs", "allocs/ev",
                "bytes/ev");
    std::vector<Lane> Lanes = replayLanes(Smoke);
    bool AllAgree = true;
    for (Trace &T : Traces) {
      for (const Lane &L : Lanes)
        for (Measure &M : run(L, T, Reps))
          T.Passes.push_back(std::move(M));
      if (T.Prog)
        for (const Lane &L : LiveLanes)
          T.Live[L.Name] = run(L, T, Reps)[0];
      std::printf("%-8s agreement: %s (recorded at %.0f events/s)\n",
                  T.Name.c_str(), T.agreement() ? "yes" : "NO!",
                  T.RecordEventsPerSec);
      AllAgree = AllAgree && T.agreement();
    }

    if (!OutPath.empty()) {
      if (!(std::ofstream(OutPath) << writeJson(Traces, Smoke, Reps)))
        throw std::runtime_error("cannot write " + OutPath);
      std::printf("\nwrote %s\n", OutPath.c_str());
    }
    if (!AllAgree) {
      std::fprintf(stderr, "FAIL: lanes disagree on reported races\n");
      return 1;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "%s\n", E.what());
    return 1;
  }
  return 0;
}
