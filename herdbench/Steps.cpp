//===- herdbench/Steps.cpp - A job decomposed into layer calls ------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "Steps.h"

using namespace herd;

namespace herdbench {

double Steps::seconds(std::string_view Name) const {
  double Sum = 0;
  for (const auto &[StepName, Seconds] : Times)
    if (StepName == Name)
      Sum += Seconds;
  return Sum;
}

double Steps::total() const {
  double Sum = 0;
  for (const auto &Step : Times)
    Sum += Step.second;
  return Sum;
}

namespace {

InterpOptions interpOptions(const ToolConfig &Config,
                            const ThreadedCode *Shadow) {
  InterpOptions Opts;
  Opts.Seed = Config.Seed;
  Opts.MaxQuantum = Config.MaxQuantum;
  Opts.MaxInstructions = Config.MaxInstructions;
  Opts.Dispatch = Config.Dispatch;
  Opts.Fused = Shadow;
  return Opts;
}

std::unique_ptr<ThreadedCode> fuse(const Program &P,
                                   const ToolConfig &Config) {
  if (Config.Dispatch != DispatchMode::Threaded)
    return nullptr;
  SuperinstrOptions Opts;
  Opts.Fuse = Config.Superinstructions;
  return std::make_unique<ThreadedCode>(buildThreadedCode(P, Opts));
}

RaceRuntimeOptions serialOptions(const ToolConfig &Config,
                                 const DetectorPlan &Plan) {
  RaceRuntimeOptions Opts;
  Opts.UseCache = Config.UseCache;
  Opts.CacheEntries = Config.CacheEntries;
  Opts.UseOwnership = Config.UseOwnership;
  Opts.FieldsMerged = Config.FieldsMerged;
  Opts.ModelJoin = Config.ModelJoin;
  Opts.HookFilter = Config.HookFilter;
  Opts.Plan = Plan;
  return Opts;
}

ShardedRuntimeOptions shardedOptions(const ToolConfig &Config) {
  ShardedRuntimeOptions Opts;
  Opts.NumShards = Config.Shards;
  Opts.UseCache = Config.UseCache;
  Opts.CacheEntries = Config.CacheEntries;
  Opts.UseOwnership = Config.UseOwnership;
  Opts.FieldsMerged = Config.FieldsMerged;
  Opts.ModelJoin = Config.ModelJoin;
  Opts.HookFilter = Config.HookFilter;
  Opts.Metrics = Config.Metrics;
  return Opts;
}

} // namespace

void liveSetup(const Program &Input, const ToolConfig &Config, Steps &S,
               LiveParts &Out) {
  S("herd.copy", [&] { Out.P = Input; });
  S("analysis.static", [&] {
    Out.Races = std::make_unique<StaticRaceAnalysis>(Out.P);
    Out.Races->run();
  });
  S("analysis.plan", [&] { Out.Plan = planDetector(Out.P, *Out.Races); });
  S("instr.instrument", [&] {
    InstrumenterOptions Opts;
    Opts.UseStaticRaceSet = Config.StaticAnalysis;
    Opts.StaticWeakerThan = Config.StaticWeakerThan;
    Opts.LoopPeeling = Config.LoopPeeling;
    Out.Instr = instrumentProgram(Out.P, Opts, Out.Races.get());
  });
  S("instr.fuse", [&] { Out.Shadow = fuse(Out.P, Config); });
  S("runtime.init", [&] {
    Out.Runtime =
        std::make_unique<RaceRuntime>(serialOptions(Config, Out.Plan));
    // The pipeline's devirtualized lane: the runtime is the only sink.
    InterpOptions Opts = interpOptions(Config, Out.Shadow.get());
    if (Config.HookFilter)
      Opts.SerialSink = Out.Runtime.get();
    Out.Interp =
        std::make_unique<Interpreter>(Out.P, Out.Runtime.get(), Opts);
  });
}

InterpResult runBase(const Program &Input, const ToolConfig &Config,
                     Steps &S) {
  Program P = Input;
  std::unique_ptr<ThreadedCode> Shadow = fuse(P, Config);
  Interpreter Interp(P, nullptr, interpOptions(Config, Shadow.get()));
  InterpResult Run;
  S("runtime.base", [&] { Run = Interp.run(); });
  return Run;
}

bool replaySetup(const std::string &TracePath, const ToolConfig &Config,
                 Steps &S, ReplayParts &Out) {
  bool Opened = false;
  S("runtime.init", [&] {
    // Replay honours no analysis-derived plan, like replayTracePipeline.
    if (Config.Shards >= 1)
      Out.Sharded = std::make_unique<ShardedRuntime>(shardedOptions(Config));
    else
      Out.Serial = std::make_unique<RaceRuntime>(
          serialOptions(Config, DetectorPlan()));
    Opened = Out.Reader.open(TracePath).Ok;
  });
  return Opened;
}

} // namespace herdbench
