//===- herd/StatsJson.cpp - Machine-readable run statistics ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "herd/StatsJson.h"

#include "runtime/InterpProfiler.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <string_view>

using namespace herd;

namespace {

void writeDetectorStats(JsonWriter &W, const DetectorStats &D) {
  W.beginObject();
  W.member("events_in", D.EventsIn);
  W.member("owned_filtered", D.OwnedFiltered);
  W.member("weaker_filtered", D.WeakerFiltered);
  W.member("races_reported", D.RacesReported);
  W.member("locations_tracked", uint64_t(D.LocationsTracked));
  W.member("locations_shared", uint64_t(D.LocationsShared));
  W.member("trie_nodes", uint64_t(D.TrieNodes));
  W.endObject();
}

void writeRuntimeStats(JsonWriter &W, const RaceRuntimeStats &S) {
  W.beginObject();
  W.member("events_seen", S.EventsSeen);
  W.member("cache_hits", S.CacheHits);
  W.member("cache_misses", S.CacheMisses);
  W.member("cache_evictions", S.CacheEvictions);
  W.key("detector");
  writeDetectorStats(W, S.Detector);
  W.key("per_thread_cache");
  W.beginArray();
  for (const ThreadCacheStats &T : S.PerThreadCache) {
    W.beginObject();
    W.member("thread", T.Thread);
    W.member("read_hits", T.ReadHits);
    W.member("read_misses", T.ReadMisses);
    W.member("write_hits", T.WriteHits);
    W.member("write_misses", T.WriteMisses);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

void writeMetrics(JsonWriter &W, const MetricsRegistry &Reg) {
  W.beginObject();
  W.key("counters");
  W.beginObject();
  for (const auto &[Name, Value] : Reg.counterValues())
    W.member(Name, Value);
  W.endObject();
  W.endObject();
}

void writeProfile(JsonWriter &W, const InterpProfiler &Prof) {
  W.beginObject();
  W.member("sample_every", Prof.sampleEvery());
  W.member("total_dispatches", Prof.totalDispatches());
  W.member("instrumented_dispatches", Prof.instrumentedDispatches());
  W.member("total_samples", Prof.totalSamples());
  W.member("sampled_nanos", Prof.totalSampledNanos());
  W.member("hook_nanos", Prof.totalHookNanos());
  W.key("opcodes");
  W.beginArray();
  for (const InterpProfiler::Row &R : Prof.rankedRows()) {
    W.beginObject();
    W.member("opcode", opcodeName(R.Op));
    W.member("dispatches", R.Dispatches);
    W.member("samples", R.Samples);
    W.member("sampled_nanos", R.SampledNanos);
    W.member("hook_nanos", R.HookNanos);
    W.member("estimated_nanos", R.EstimatedNanos);
    W.endObject();
  }
  W.endArray();
  W.key("pairs");
  W.beginArray();
  for (const InterpProfiler::PairRow &R : Prof.rankedPairs()) {
    W.beginObject();
    W.member("first", opcodeName(R.First));
    W.member("second", opcodeName(R.Second));
    W.member("count", R.Count);
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

} // namespace

std::string herd::renderStatsJson(const PipelineResult &Result,
                                  const MetricsRegistry *Metrics,
                                  const InterpProfiler *Prof) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", StatsSchemaName);
  W.member("version", StatsSchemaVersion);

  W.key("run");
  W.beginObject();
  W.member("ok", Result.Run.Ok);
  W.member("error", Result.Run.Error);
  W.member("instructions", Result.Run.InstructionsExecuted);
  W.member("access_events", Result.Run.AccessEvents);
  W.member("context_switches", Result.Run.ContextSwitches);
  W.member("threads_created", Result.Run.ThreadsCreated);
  W.member("output_values", uint64_t(Result.Run.Output.size()));
  W.endObject();

  W.key("timings");
  W.beginObject();
  W.member("analysis_seconds", Result.AnalysisSeconds);
  W.member("exec_seconds", Result.ExecSeconds);
  W.endObject();

  W.key("static");
  W.beginObject();
  W.member("reachable_access_statements",
           uint64_t(Result.Static.ReachableAccessStatements));
  W.member("thread_local_filtered",
           uint64_t(Result.Static.ThreadLocalFiltered));
  W.member("thread_specific_filtered",
           uint64_t(Result.Static.ThreadSpecificFiltered));
  W.member("same_thread_filtered",
           uint64_t(Result.Static.SameThreadFiltered));
  W.member("common_sync_filtered",
           uint64_t(Result.Static.CommonSyncFiltered));
  W.member("race_set_size", uint64_t(Result.Static.RaceSetSize));
  W.member("may_race_pairs", uint64_t(Result.Static.MayRacePairs));
  W.endObject();

  W.key("instrumentation");
  W.beginObject();
  W.member("traces_inserted", uint64_t(Result.Instr.TracesInserted));
  W.member("traces_removed", uint64_t(Result.Instr.TracesRemoved));
  W.member("loops_peeled", uint64_t(Result.Instr.LoopsPeeled));
  W.endObject();

  W.key("dispatch");
  W.beginObject();
  W.member("mode", dispatchModeName(Result.Dispatch));
  W.key("fused_sites");
  W.beginObject();
  W.member("const_binop", Result.Fusion.ConstBinOpSites);
  W.member("const_putfield", Result.Fusion.ConstPutFieldSites);
  W.member("get_binop_put", Result.Fusion.GetBinPutSites);
  W.member("binop_branch", Result.Fusion.BinOpBranchSites);
  W.member("getfield_binop", Result.Fusion.GetFieldBinOpSites);
  W.member("binop_putfield", Result.Fusion.BinOpPutFieldSites);
  W.member("binop_move", Result.Fusion.BinOpMoveSites);
  W.member("access_trace", Result.Fusion.AccessTraceSites);
  W.member("total", Result.Fusion.sites());
  W.endObject();
  W.key("fused_exec");
  W.beginObject();
  W.member("const_binop", Result.Run.Fused.ConstBinOp);
  W.member("const_putfield", Result.Run.Fused.ConstPutField);
  W.member("get_binop_put", Result.Run.Fused.GetBinPut);
  W.member("binop_branch", Result.Run.Fused.BinOpBranch);
  W.member("getfield_binop", Result.Run.Fused.GetFieldBinOp);
  W.member("binop_putfield", Result.Run.Fused.BinOpPutField);
  W.member("binop_move", Result.Run.Fused.BinOpMove);
  W.member("access_trace", Result.Run.Fused.AccessTrace);
  W.member("total", Result.Run.Fused.total());
  W.endObject();
  W.key("batch_retirement");
  W.beginObject();
  W.member("planned_blocks", Result.Fusion.BatchBlocks);
  W.member("planned_steps", Result.Fusion.BatchSteps);
  W.member("hits", Result.Run.BlockRetireHits);
  W.member("retired_steps", Result.Run.BlockRetiredSteps);
  W.endObject();
  W.endObject();

  W.key("runtime");
  writeRuntimeStats(W, Result.Stats);

  W.key("shards");
  W.beginArray();
  for (const ShardStats &S : Result.ShardBreakdown) {
    W.beginObject();
    W.member("events_ingested", S.EventsIngested);
    W.member("batches_ingested", S.BatchesIngested);
    W.member("max_queue_depth_batches", uint64_t(S.MaxQueueDepthBatches));
    W.key("detector");
    writeDetectorStats(W, S.Detector);
    W.endObject();
  }
  W.endArray();

  W.key("races");
  W.beginArray();
  for (std::string_view Race : Result.FormattedRaces)
    W.value(Race);
  W.endArray();

  W.key("deadlocks");
  W.beginArray();
  for (const std::string &Line : Result.FormattedDeadlocks)
    W.value(Line);
  W.endArray();

  W.key("trace");
  W.beginObject();
  W.member("ok", Result.Trace.Ok);
  W.member("error", Result.Trace.Error);
  W.member("records", Result.TraceRecords);
  W.member("bytes", Result.TraceBytes);
  W.endObject();

  // Additive within schema v1: the bounded reporter's dedup/truncation
  // counters and the provenance capture summary (docs/REPORTS.md).
  W.key("report");
  W.beginObject();
  W.member("entries", uint64_t(Result.Entries.size()));
  W.member("total_reported", Result.Reports.totalReported());
  W.member("distinct_fingerprints", uint64_t(Result.Reports.groups().size()));
  W.member("dropped_records", Result.Reports.droppedRecords());
  W.member("reporter_capacity", uint64_t(Result.Reports.capacity()));
  W.member("provenance_enabled", Result.ProvenanceOn);
  W.member("provenance_threads",
           uint64_t(Result.Provenance.threadsTracked()));
  W.member("provenance_locks", uint64_t(Result.Provenance.locksTracked()));
  W.member("provenance_accesses", Result.Provenance.accessesObserved());
  W.endObject();

  if (Result.EpochBackend) {
    W.key("epoch");
    W.beginObject();
    W.member("events", Result.Epoch.Events);
    W.member("reads", Result.Epoch.Reads);
    W.member("writes", Result.Epoch.Writes);
    W.member("same_epoch_reads", Result.Epoch.SameEpochReads);
    W.member("same_epoch_writes", Result.Epoch.SameEpochWrites);
    W.member("read_inflations", Result.Epoch.ReadInflations);
    W.member("shared_collapses", Result.Epoch.SharedCollapses);
    W.member("races_reported", Result.Epoch.RacesReported);
    W.member("locations_tracked", Result.Epoch.LocationsTracked);
    W.member("threads_seen", Result.Epoch.ThreadsSeen);
    W.member("clock_rows_fresh", Result.Epoch.ClockRowsFresh);
    W.member("clock_rows_reused", Result.Epoch.ClockRowsReused);
    W.endObject();
  }

  if (Metrics) {
    W.key("metrics");
    writeMetrics(W, *Metrics);
  }
  if (Prof) {
    W.key("profile");
    writeProfile(W, *Prof);
  }

  W.endObject();
  Out += '\n';
  return Out;
}
