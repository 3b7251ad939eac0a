//===- herd/Pipeline.h - The end-to-end detection pipeline ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: Figure 1's full architecture in one call.
///
///   program --> static datarace analysis --> optimized instrumentation
///           --> execution with runtime optimizer (caches) --> detector
///
/// ToolConfig exposes every phase as a switch so the paper's ablations
/// (Base / Full / NoStatic / NoDominators / NoPeeling / NoCache of Table 2,
/// and Full / FieldsMerged / NoOwnership of Table 3) are one-liners.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_HERD_PIPELINE_H
#define HERD_HERD_PIPELINE_H

#include "analysis/LockOrder.h"
#include "analysis/StaticRace.h"
#include "baselines/EpochDetector.h"
#include "detect/DeadlockDetector.h"
#include "detect/Provenance.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFormat.h"
#include "instr/Instrumenter.h"
#include "runtime/Interpreter.h"

#include <string>
#include <vector>

namespace herd {

/// Configuration of one pipeline run.
struct ToolConfig {
  // --- Compile-time phases (Table 2 ablations) ---
  bool Instrument = true;      ///< false = "Base": run uninstrumented
  bool StaticAnalysis = true;  ///< false = "NoStatic"
  bool StaticWeakerThan = true;///< false = "NoDominators"
  bool LoopPeeling = true;     ///< false = "NoPeeling"

  // --- Runtime phases ---
  bool UseCache = true;        ///< false = "NoCache"
  bool UseOwnership = true;    ///< false = "NoOwnership" (Table 3)
  bool FieldsMerged = false;   ///< true  = "FieldsMerged" (Table 3)
  bool ModelJoin = true;       ///< dummy join locks (Section 2.3)

  /// Entries per (thread, kind) access cache (`herd --cache-size=N`);
  /// must be a power of two.  The paper's Section 4.3 sweeps this; its
  /// experiments settle on 256.
  uint32_t CacheEntries = 256;

  /// Hook-path fast path (`herd --hook-filter=on|off`, docs/HOOKPATH.md):
  /// the per-thread inline L0 access filter, devirtualized event delivery
  /// into the detection runtime, and (sharded) batched submission.  Purely
  /// an optimization — reports, traces, and schedules are byte-identical
  /// either way; `off` reproduces the legacy virtual hook path for A/B
  /// measurement.  The L0 filter additionally requires UseCache (the
  /// detector-side cache is the invariant it borrows).
  bool HookFilter = true;

  /// Shard count for the detection runtime: 0 runs the serial
  /// detect/RaceRuntime; N >= 1 runs detect/ShardedRuntime with N
  /// location-hashed shard workers (docs/SHARDING.md).  Reports are
  /// identical either way; only throughput and statistics layout change.
  uint32_t Shards = 0;

  /// Which detection backend consumes the event stream
  /// (docs/DETECTORS.md).  Herd is the paper's lockset/trie pipeline
  /// (cache + ownership filter + trie detector); Epoch is the
  /// FastTrack-lineage happens-before backend (`--detector=epoch`),
  /// serial only — it reports racy locations rather than full race
  /// records, and ignores the runtime-optimizer knobs (UseCache,
  /// UseOwnership, Shards, HookFilter).
  enum class DetectorBackend : uint8_t { Herd, Epoch };
  DetectorBackend Backend = DetectorBackend::Herd;

  /// Capacity planning for the detection runtime (`herd --plan=auto|off|N`).
  /// Auto derives a DetectorPlan from the static analysis (requires
  /// Instrument && StaticAnalysis; otherwise no plan is applied); Off
  /// disables pre-sizing for A/B comparison; Explicit sizes for
  /// PlanLocations expected locations without consulting the analysis.
  /// Plans never change race reports — only when memory is allocated.
  enum class PlanMode : uint8_t { Auto, Off, Explicit };
  PlanMode Plan = PlanMode::Auto;
  uint64_t PlanLocations = 0; ///< used only with PlanMode::Explicit

  /// Also run the lock-order deadlock detector (the Section 10 extension)
  /// over the same monitor event stream.
  bool DetectDeadlocks = false;

  /// Capture diagnostic provenance (`herd --provenance=on`,
  /// docs/REPORTS.md): thread-spawn sites, lock-acquisition sites, and a
  /// bounded per-thread ring of recent accesses, observed by a
  /// ProvenanceStore sink next to the detector.  Race sets and schedules
  /// are byte-identical either way (the store only listens); human race
  /// lines gain indented provenance detail.  Off costs nothing — the sink
  /// does not exist.  On adds a second sink, which disables the
  /// devirtualized single-sink delivery lane (docs/HOOKPATH.md), so live
  /// throughput drops to the fanout path; the overhead is measured by
  /// bench/bench_hotpath.cpp and documented honestly in docs/REPORTS.md.
  bool Provenance = false;

  /// When non-empty, every runtime event is also streamed to this trace
  /// file (docs/REPLAY.md) while the run executes.  The trace can later be
  /// re-detected offline with replayTracePipeline / `herd --replay`.
  std::string RecordTracePath;

  // --- Execution ---
  uint64_t Seed = 1;
  uint32_t MaxQuantum = 40;
  uint64_t MaxInstructions = 500'000'000;

  /// Interpreter dispatch strategy (`herd --dispatch=switch|threaded`,
  /// docs/INTERPRETER.md).  Threaded is the fast path: computed-goto
  /// dispatch over superinstruction shadow code with a compiled-out
  /// no-hook lane.  Switch is the reference interpreter.  Race reports,
  /// schedules and output are byte-identical across modes.
#ifdef HERD_DEFAULT_DISPATCH_SWITCH
  DispatchMode Dispatch = DispatchMode::Switch;
#else
  DispatchMode Dispatch = DispatchMode::Threaded;
#endif

  /// Superinstruction fusion for threaded dispatch (A/B lever; no CLI
  /// flag).  Ignored under switch dispatch.
  bool Superinstructions = true;

  // --- Observability (docs/OBSERVABILITY.md) ---
  /// When set, every phase records a span here (parse/lower happen in the
  /// caller; this covers static analysis passes, planning, instrumentation,
  /// execution, detection drain, report formatting) and the sharded runtime
  /// adds per-shard batch spans and queue-depth samples.  Null records
  /// nothing; race reports are byte-identical either way.
  MetricsRegistry *Metrics = nullptr;

  /// When set, the interpreter counts every dispatch into this profiler and
  /// times a 1-in-N sample (`herd --profile`).  Null costs one predictable
  /// branch per step and never changes execution.
  InterpProfiler *Profiler = nullptr;

  /// Named presets for the experiment tables.
  static ToolConfig base();
  static ToolConfig full();
  static ToolConfig noStatic();
  static ToolConfig noDominators();
  static ToolConfig noPeeling();
  static ToolConfig noCache();
  static ToolConfig fieldsMerged();
  static ToolConfig noOwnership();
};

/// One deduplicated, exportable finding: the unit the report renderers
/// (herd/ReportExport.h) consume.  Race entries are one-per-fingerprint
/// (occurrence-counted), unlike FormattedRaces which keeps every report to
/// preserve the historical human output byte-for-byte.
struct ReportEntry {
  enum class Kind : uint8_t {
    Race,              ///< a lockset-detector race record group
    RacyLocation,      ///< an epoch-backend racy location
    Deadlock,          ///< a dynamic lock-order cycle
    DeadlockCandidate, ///< a static allocation-site cycle
  };
  Kind EntryKind = Kind::Race;
  std::string Message;      ///< the human-formatted line (no provenance)
  uint64_t Fingerprint = 0; ///< stable identity (detect/RaceReport.h)
  uint64_t Occurrences = 1; ///< reports collapsed into this entry
  std::string SiteLabel;    ///< primary site label; empty when unknown
  uint32_t Line = 0;        ///< primary 1-based source line; 0 unknown
  std::string PriorSiteLabel; ///< earlier access's site (races only)
  uint32_t PriorLine = 0;
};

/// Everything one run produces.
struct PipelineResult {
  InterpResult Run;
  RaceRuntimeStats Stats;
  RaceReporter Reports;

  /// Per-shard counters; empty when the serial runtime ran (Shards == 0).
  std::vector<ShardStats> ShardBreakdown;
  StaticRaceStats Static;    ///< zeroed when StaticAnalysis was off
  InstrumenterStats Instr;   ///< zeroed when Instrument was off
  double AnalysisSeconds = 0.0; ///< static analysis + instrumentation time
  double ExecSeconds = 0.0;     ///< program execution (incl. detection)
  std::vector<std::string> FormattedRaces; ///< human-readable reports

  /// Potential deadlocks (only populated with DetectDeadlocks): the
  /// dynamic lock-order cycles observed in this run, and the static
  /// candidates from the whole-program lock-order analysis (a superset of
  /// what any single run can witness — the co-analysis pairing).
  std::vector<DeadlockCycle> Deadlocks;
  std::vector<StaticLockCycle> StaticDeadlockCandidates;
  std::vector<std::string> FormattedDeadlocks;

  /// Trace-subsystem outcome: the record/replay status (Ok when no trace
  /// was involved), and how many records/bytes were written or read.
  TraceResult Trace;
  uint64_t TraceRecords = 0;
  uint64_t TraceBytes = 0;

  /// Which dispatch strategy executed the run, and what the plan-time
  /// superinstruction pass fused (zeroed under switch dispatch; runtime
  /// fused-execution counts live in Run.Fused).
  DispatchMode Dispatch = DispatchMode::Switch;
  FusionStats Fusion;

  /// True when the epoch backend ran (ToolConfig::DetectorBackend::Epoch):
  /// Stats/Reports/ShardBreakdown stay zeroed (the epoch detector has no
  /// cache/ownership/trie machinery) and Epoch carries its counters;
  /// FormattedRaces holds one line per racy location.
  bool EpochBackend = false;
  EpochStats Epoch;

  /// Deduplicated findings for the report document (`--report=json|sarif`):
  /// one entry per race fingerprint / racy location / deadlock cycle, in
  /// deterministic first-seen order.  Always populated — the document
  /// renderers need no pipeline re-run.
  std::vector<ReportEntry> Entries;

  /// Provenance capture results (only meaningful with ProvenanceOn; the
  /// store is empty otherwise).
  bool ProvenanceOn = false;
  ProvenanceStore Provenance;
};

/// Runs the full pipeline on a copy of \p Input (the input program is not
/// mutated).
PipelineResult runPipeline(const Program &Input, const ToolConfig &Config);

/// Re-runs detection over a previously recorded trace (docs/REPLAY.md)
/// instead of executing the program.  The trace supplies the complete
/// runtime event stream, so the compile-time knobs of \p Config are
/// ignored; the runtime knobs (UseCache, UseOwnership, FieldsMerged,
/// ModelJoin, Shards, DetectDeadlocks) select the detection configuration
/// exactly as in a live run.  \p Input is only consulted for report
/// formatting (field/site names) and the static half of the deadlock
/// co-analysis; pass the same program that was recorded.  On a malformed
/// or unreadable trace the result carries `Trace.Ok == false` with a
/// diagnostic and `Run.Ok == false`.
PipelineResult replayTracePipeline(const Program &Input,
                                   const ToolConfig &Config,
                                   const std::string &TracePath);

/// Renders a racy location the way a race line renders its location part:
/// "race on <kind> #<object>", then " field <name>" for a declared field.
/// \p TheHeap names the object's class; without one (replay runs) the
/// kind is "object".  The epoch backend's lines and the comparison
/// detectors' replay reports are these lines alone.
std::string formatRacyLocation(const Program &P, const Heap *TheHeap,
                               LocationKey Location);

} // namespace herd

#endif // HERD_HERD_PIPELINE_H
