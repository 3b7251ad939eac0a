//===- herdbench/Traced.cpp - The traced per-layer run ---------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One traced iteration runs, under the same schedule seed:
///
///  1. the Full job decomposed into its layers' public calls (Steps.h),
///     each timed and recorded as a "layer" span;
///  2. live only: the Base job's execution;
///  3. the real job, timed from outside and given a MetricsRegistry, so the
///     pipeline's own phase spans nest under the benchmark's "job" span;
///  4. a replay of the workload's trace through a decomposed runtime, and a
///     read of it into a counting sink.  Live workloads replay a trace
///     recorded from one of their Full jobs at set-up.
///
/// The counter identities are recomputed from the raw counters, and the
/// decomposed job must execute exactly what the real job executed.  Any
/// mismatch fails the iteration's job.  Each per-layer metric is the median
/// over the iterations.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Steps.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace herd;

namespace herdbench {

namespace {

/// Per-layer samples, one per iteration, in first-recorded order.
class Samples {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    for (Series &S : All)
      if (S.Name == Name) {
        S.Values.push_back(Value);
        return;
      }
    All.push_back({Name, Unit, {Value}});
  }

  std::vector<Metric> medians() const {
    std::vector<Metric> Out;
    for (const Series &S : All)
      Out.push_back({S.Name, median(S.Values), S.Unit});
    return Out;
  }

  const std::vector<double> &values(const std::string &Name) const {
    static const std::vector<double> None;
    for (const Series &S : All)
      if (S.Name == Name)
        return S.Values;
    return None;
  }

private:
  struct Series {
    std::string Name;
    std::string Unit;
    std::vector<double> Values;
  };
  std::vector<Series> All;
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// The two counter identities of docs/HOOKPATH.md and detect/DetectorStats.h:
/// every access is an L0 hit or reaches the runtime, and every access that
/// reaches the runtime is a cache hit or goes to the trie.  \p Accesses is
/// counted independently of the runtime.  Returns why one fails.
std::string checkIdentities(const char *What, uint64_t Accesses,
                            const RaceRuntimeStats &S) {
  std::string Where = std::string(What) + ": ";
  if (Accesses != S.Hook.FilterHits + S.EventsSeen)
    return Where + "access_events " + std::to_string(Accesses) +
           " != filter.hits " + std::to_string(S.Hook.FilterHits) +
           " + events_seen " + std::to_string(S.EventsSeen);
  if (S.EventsSeen != S.CacheHits + S.Detector.EventsIn)
    return Where + "events_seen " + std::to_string(S.EventsSeen) +
           " != cache.hits " + std::to_string(S.CacheHits) +
           " + trie.events_in " + std::to_string(S.Detector.EventsIn);
  return std::string();
}

/// The detection layers' counters, shared by every workload.
void addDetectCounters(Samples &Out, const RaceRuntimeStats &S) {
  const HookPathStats &H = S.Hook;
  const DetectorStats &D = S.Detector;
  Out.add("detect.filter.hits", double(H.FilterHits), "count");
  Out.add("detect.filter.hit_rate",
          ratio(double(H.FilterHits), double(H.FilterHits + H.FilterMisses)),
          "ratio");
  Out.add("detect.filter.epoch_bumps", double(H.EpochBumps), "count");
  Out.add("detect.cache.hits", double(S.CacheHits), "count");
  Out.add("detect.cache.hit_rate",
          ratio(double(S.CacheHits), double(S.CacheHits + S.CacheMisses)),
          "ratio");
  Out.add("detect.cache.evictions", double(S.CacheEvictions), "count");
  Out.add("detect.ownership.filtered", double(D.OwnedFiltered), "count");
  Out.add("detect.trie.events_in", double(D.EventsIn), "count");
  Out.add("detect.trie.weaker_filtered", double(D.WeakerFiltered), "count");
  Out.add("detect.trie.nodes", double(D.TrieNodes), "count");
  Out.add("detect.trie.locations", double(D.LocationsTracked), "count");
  Out.add("detect.lockset.memo_hit_rate",
          ratio(double(D.LocksetMemoHits),
                double(D.LocksetMemoHits + D.LocksetMemoMisses)),
          "ratio");
  Out.add("detect.report.races", double(D.RacesReported), "count");
}

/// The shard layer: queue depth, load balance, and the sharded replay's
/// detection and reporter-merge times.
void addShardLayer(Samples &Out, const std::vector<ShardStats> &Shards,
                   double ReplaySeconds, double CollectSeconds) {
  size_t MaxDepth = 0;
  uint64_t MaxEvents = 0, SumEvents = 0;
  for (const ShardStats &S : Shards) {
    MaxDepth = std::max(MaxDepth, S.MaxQueueDepthBatches);
    MaxEvents = std::max(MaxEvents, S.EventsIngested);
    SumEvents += S.EventsIngested;
  }
  Out.add("detect.shards.max_queue_depth", double(MaxDepth), "count");
  double Mean = Shards.empty() ? 0.0 : double(SumEvents) / Shards.size();
  Out.add("detect.shards.imbalance", ratio(double(MaxEvents), Mean), "ratio");
  Out.add("detect.shards.replay_s", ReplaySeconds, "s");
  Out.add("detect.shards.collect_s", CollectSeconds, "s");
}

/// Replays \p Path through a decomposed runtime (steps runtime.init,
/// detect.replay, herd.collect and herd.teardown) and reads it into a
/// counting sink.
struct ReplayOutcome {
  bool Ok = false;
  RaceRuntimeStats Stats;
  std::vector<ShardStats> Shards;
  std::set<LocationKey> Locations;
  TraceRead Read;
};

ReplayOutcome replayDecomposed(const std::string &Path,
                               const ToolConfig &Config, Steps &S,
                               MetricsRegistry &Reg) {
  ReplayOutcome Out;
  ReplayParts Parts;
  if (!replaySetup(Path, Config, S, Parts))
    return Out;
  bool Replayed = false;
  S("detect.replay", [&] {
    Replayed = Parts.Reader.replayInto(Parts.sink()).Ok;
    Parts.sink().onRunEnd();
  });
  RaceReporter Reports;
  S("herd.collect", [&] {
    Out.Stats = Parts.stats();
    Reports = Parts.Serial ? Parts.Serial->reporter()
                           : Parts.Sharded->reporter();
  });
  if (Parts.Sharded)
    Out.Shards = Parts.Sharded->shardStats();
  Out.Locations = Reports.reportedLocations();
  S("herd.teardown", [&] {
    Parts.Serial.reset();
    Parts.Sharded.reset();
  });
  {
    Span ReadSpan(&Reg, "detect.trace.read", "layer");
    Out.Read = timeTraceRead(Path);
  }
  Out.Ok = Replayed && Out.Read.Ok;
  return Out;
}

/// The real job, timed from outside.  The pipeline records its phase spans
/// into a registry of the job's own; they are copied into \p Reg, nested
/// under the benchmark's "job" span.
struct TracedJob {
  Job J;
  double Format = 0; ///< the format-reports phase
  double Replay = 0; ///< the replay and detect-drain phases
};

TracedJob tracedJob(const Workload &W, ToolConfig Config,
                    MetricsRegistry &Reg) {
  MetricsRegistry JobReg; // same process-wide clock as Reg
  Config.Metrics = &JobReg;
  TracedJob Out;
  {
    Span JobSpan(&Reg, "job", "job");
    Out.J = runJob(W, Config);
  }
  for (const TraceEvent &E : JobReg.traceEvents()) {
    if (E.Phase != 'X' || E.Tid != 0)
      continue;
    Reg.recordSpan(E.Name, E.Category, E.Tid, E.StartNanos, E.DurNanos);
    double Seconds = double(E.DurNanos) * 1e-9;
    if (E.Name == "format-reports")
      Out.Format += Seconds;
    if (E.Name == "replay" || E.Name == "detect-drain")
      Out.Replay += Seconds;
  }
  return Out;
}

/// One live iteration; returns why its job failed, empty when it passed.
std::string liveIteration(const Workload &W, const ToolConfig &Config,
                          const std::string &Recorded,
                          const std::set<LocationKey> &RecordedLocations,
                          MetricsRegistry &Reg, Samples &Out) {
  Steps S(&Reg);
  LiveParts Parts;
  liveSetup(W.Prog, Config, S, Parts);
  InterpResult Run;
  S("runtime.exec", [&] { Run = Parts.Interp->run(); });
  RaceRuntimeStats Stats;
  RaceReporter Reports;
  S("herd.collect", [&] {
    Stats = Parts.Runtime->stats();
    Reports = Parts.Runtime->reporter();
  });
  S("herd.teardown", [&] {
    Parts.Interp.reset();
    Parts.Runtime.reset();
    Parts.Shadow.reset();
  });
  Steps BaseSteps(&Reg);
  InterpResult BaseRun = runBase(W.Prog, Config, BaseSteps);

  TracedJob T = tracedJob(W, Config, Reg);
  const Job &J = T.J;
  double Format = T.Format;

  Steps RS(&Reg);
  ReplayOutcome Replay = replayDecomposed(Recorded, Config, RS, Reg);

  Out.add("analysis.static_s", S.seconds("analysis.static"), "s");
  Out.add("analysis.plan_s", S.seconds("analysis.plan"), "s");
  Out.add("analysis.race_set", double(Parts.Races->stats().RaceSetSize),
          "count");
  Out.add("instr.instrument_s", S.seconds("instr.instrument"), "s");
  Out.add("instr.fuse_s", S.seconds("instr.fuse"), "s");
  Out.add("instr.traces_inserted", double(Parts.Instr.TracesInserted),
          "count");
  Out.add("instr.traces_removed", double(Parts.Instr.TracesRemoved), "count");
  Out.add("instr.fused_sites",
          Parts.Shadow ? double(Parts.Shadow->Stats.sites()) : 0.0, "count");
  Out.add("runtime.init_s", S.seconds("runtime.init"), "s");
  Out.add("runtime.exec_s", S.seconds("runtime.exec"), "s");
  Out.add("runtime.base_s", BaseSteps.seconds("runtime.base"), "s");
  Out.add("runtime.instructions", double(Run.InstructionsExecuted), "count");
  Out.add("runtime.instr_ratio",
          ratio(double(Run.InstructionsExecuted),
                double(BaseRun.InstructionsExecuted)),
          "ratio");
  Out.add("runtime.access_events", double(Run.AccessEvents), "count");
  addDetectCounters(Out, Stats);
  Out.add("detect.report.dropped", double(J.Result.Reports.droppedRecords()),
          "count");
  Out.add("detect.report.entries", double(J.Result.Entries.size()), "count");
  Out.add("detect.replay_s", RS.seconds("detect.replay"), "s");
  Out.add("detect.trace.read_s", Replay.Read.Seconds, "s");
  addShardLayer(Out, {}, 0.0, 0.0);
  Out.add("herd.format_s", Format, "s");
  Out.add("herd.collect_s", S.seconds("herd.collect"), "s");
  Out.add("herd.teardown_s", S.seconds("herd.teardown"), "s");
  Out.add("herd.job_s", J.Seconds, "s");
  Out.add("herd.residual_s", J.Seconds - S.total() - Format, "s");

  if (std::string Why = checkFull(W, J.Result, &BaseRun); !Why.empty())
    return Why;
  if (!BaseRun.Ok || !Run.Ok)
    return "decomposed job failed: " + Run.Error + BaseRun.Error;
  if (Run.InstructionsExecuted != J.Result.Run.InstructionsExecuted ||
      Run.AccessEvents != J.Result.Run.AccessEvents ||
      Stats.EventsSeen != J.Result.Stats.EventsSeen ||
      Reports.countDistinctObjects() != W.ExpectedRacyObjects)
    return "the decomposed job diverged from the pipeline's";
  if (std::string Why = checkIdentities("decomposed", Run.AccessEvents, Stats);
      !Why.empty())
    return Why;
  if (std::string Why = checkIdentities("job", J.Result.Run.AccessEvents,
                                        J.Result.Stats);
      !Why.empty())
    return Why;
  if (!Replay.Ok)
    return "the recorded trace failed to replay";
  if (std::string Why =
          checkIdentities("replay", Replay.Read.Accesses, Replay.Stats);
      !Why.empty())
    return Why;
  if (Replay.Locations != RecordedLocations)
    return "the replayed race set differs from the recording job's";
  return std::string();
}

/// One replay iteration; returns why its job failed, empty when it passed.
std::string replayIteration(const Workload &W, const ToolConfig &Config,
                            MetricsRegistry &Reg, Samples &Out) {
  Steps S(&Reg);
  ReplayOutcome Replay = replayDecomposed(W.Trace->path(), Config, S, Reg);

  // The shard layer: the same trace through the sharded runtime.  Its steps
  // stay out of the trace, under one span, so the serial steps keep their
  // names.
  ToolConfig ShardedConfig = Config;
  ShardedConfig.Shards = shardCount();
  Steps Sharded(nullptr);
  ReplayOutcome ShardedReplay;
  {
    Span ShardedSpan(&Reg, "detect.shards", "layer");
    ShardedReplay =
        replayDecomposed(W.Trace->path(), ShardedConfig, Sharded, Reg);
  }

  TracedJob T = tracedJob(W, Config, Reg);
  const Job &J = T.J;
  double Format = T.Format;
  double Exec = T.Replay;

  // A replay job runs no static phase, instrumentation or interpreter.
  for (const char *Name :
       {"analysis.static_s", "analysis.plan_s", "instr.instrument_s",
        "instr.fuse_s"})
    Out.add(Name, 0.0, "s");
  for (const char *Name :
       {"analysis.race_set", "instr.traces_inserted", "instr.traces_removed",
        "instr.fused_sites"})
    Out.add(Name, 0.0, "count");
  Out.add("runtime.init_s", S.seconds("runtime.init"), "s");
  Out.add("runtime.exec_s", Exec, "s");
  Out.add("runtime.base_s", Replay.Read.Seconds, "s");
  Out.add("runtime.instructions", 0.0, "count");
  Out.add("runtime.instr_ratio", 0.0, "ratio");
  Out.add("runtime.access_events", double(Replay.Read.Accesses), "count");
  addDetectCounters(Out, Replay.Stats);
  Out.add("detect.report.dropped", double(J.Result.Reports.droppedRecords()),
          "count");
  Out.add("detect.report.entries", double(J.Result.Entries.size()), "count");
  Out.add("detect.replay_s", S.seconds("detect.replay"), "s");
  Out.add("detect.trace.read_s", Replay.Read.Seconds, "s");
  addShardLayer(Out, ShardedReplay.Shards, Sharded.seconds("detect.replay"),
                Sharded.seconds("herd.collect"));
  Out.add("herd.format_s", Format, "s");
  Out.add("herd.collect_s", S.seconds("herd.collect"), "s");
  Out.add("herd.teardown_s", S.seconds("herd.teardown"), "s");
  Out.add("herd.job_s", J.Seconds, "s");
  Out.add("herd.residual_s", J.Seconds - S.total() - Format, "s");

  if (std::string Why = checkFull(W, J.Result, nullptr); !Why.empty())
    return Why;
  if (!Replay.Ok)
    return "the decomposed replay failed";
  if (Replay.Read.Accesses != W.TraceAccesses)
    return "the trace holds " + std::to_string(Replay.Read.Accesses) +
           " accesses, expected " + std::to_string(W.TraceAccesses);
  if (std::string Why =
          checkIdentities("decomposed", Replay.Read.Accesses, Replay.Stats);
      !Why.empty())
    return Why;
  if (std::string Why =
          checkIdentities("job", Replay.Read.Accesses, J.Result.Stats);
      !Why.empty())
    return Why;
  if (Replay.Locations != W.Reference)
    return "the decomposed replay's race set differs from the reference";
  if (!ShardedReplay.Ok)
    return "the sharded replay failed";
  if (std::string Why = checkIdentities("sharded", Replay.Read.Accesses,
                                        ShardedReplay.Stats);
      !Why.empty())
    return Why;
  if (ShardedReplay.Locations != W.Reference)
    return "the sharded replay's race set differs from the reference";
  return std::string();
}

/// Writes the registry as Chrome trace JSON, with the environment stamp
/// and the per-layer medians added as one more top-level key (trace
/// viewers ignore keys they do not know).
bool writeTrace(const MetricsRegistry &Reg, const std::string &Path,
                const std::string &EnvJson,
                const std::vector<Metric> &Layers) {
  std::string Json = renderChromeTraceJson(Reg);
  size_t Close = Json.rfind('}');
  if (Close == std::string::npos)
    return false;
  std::string Extra = ",\"herdbench\":{\"env\":" + EnvJson + ",\"layers\":{";
  for (size_t I = 0; I != Layers.size(); ++I)
    Extra += (I ? ",\"" : "\"") + Layers[I].Name + "\":{\"value\":" +
             jsonNumber(Layers[I].Value) + ",\"unit\":\"" + Layers[I].Unit +
             "\"}";
  Extra += "}}";
  Json.insert(Close, Extra);
  std::ofstream OS(Path, std::ios::binary);
  OS << Json;
  return bool(OS.flush());
}

} // namespace

std::vector<Metric> runTraced(const Workload &W, uint64_t Seed,
                              double Seconds, const std::string &WorkDir,
                              const std::string &TracePath,
                              const std::string &EnvJson, uint64_t &Attempted,
                              uint64_t &Failed) {
  MetricsRegistry Reg;
  Reg.nameThread(0, "herdbench");
  Samples Out;
  auto Fail = [&](const std::string &Why) {
    ++Failed;
    if (Failed <= 5)
      std::fprintf(stderr, "herdbench: traced job failed: %s\n", Why.c_str());
  };

  // Live workloads replay a trace of one of their own Full jobs, against
  // the program that recorded it.
  std::unique_ptr<TempFile> Recorded;
  std::set<LocationKey> RecordedLocations;
  if (W.Live) {
    Recorded = std::make_unique<TempFile>(WorkDir, W.Name + "-recorded");
    ToolConfig Config = jobConfig(/*Full=*/true, jobSeed(Seed, 0));
    Config.RecordTracePath = Recorded->path();
    Job J = runJob(W, Config);
    ++Attempted;
    if (std::string Why = checkFull(W, J.Result, nullptr);
        !Why.empty() || !J.Result.Trace.Ok) {
      Fail("recording job: " + Why + J.Result.Trace.Error);
      return Out.medians();
    }
    RecordedLocations = J.Result.Reports.reportedLocations();
  }

  Clock::time_point Start = Clock::now();
  for (uint64_t I = 0; I < 3 || secondsSince(Start) < Seconds; ++I) {
    ToolConfig Config = jobConfig(/*Full=*/true, jobSeed(Seed, I));
    ++Attempted;
    std::string Why =
        W.Live ? liveIteration(W, Config, Recorded->path(),
                               RecordedLocations, Reg, Out)
               : replayIteration(W, Config, Reg, Out);
    if (!Why.empty())
      Fail(Why);
  }

  std::vector<Metric> Layers = Out.medians();
  const std::vector<double> &Jobs = Out.values("herd.job_s");
  Layers.push_back(
      {"herd.job_s_p90", quantile(Jobs, tailQuantile(Jobs.size())), "s"});
  if (!writeTrace(Reg, TracePath, EnvJson, Layers))
    Fail("cannot write " + TracePath);
  return Layers;
}

} // namespace herdbench
