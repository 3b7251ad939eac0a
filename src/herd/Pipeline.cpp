//===- herd/Pipeline.cpp - The end-to-end detection pipeline --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "herd/Pipeline.h"

#include "analysis/DetectorPlanner.h"
#include "detect/TraceFile.h"
#include "instr/Superinstr.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"

#include <cassert>
#include <charconv>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

using namespace herd;

ToolConfig ToolConfig::base() {
  ToolConfig C;
  C.Instrument = false;
  return C;
}

ToolConfig ToolConfig::full() { return ToolConfig(); }

ToolConfig ToolConfig::noStatic() {
  ToolConfig C;
  C.StaticAnalysis = false;
  return C;
}

ToolConfig ToolConfig::noDominators() {
  ToolConfig C;
  C.StaticWeakerThan = false;
  C.LoopPeeling = false; // useless without the weaker-than check (Sec 8.2)
  return C;
}

ToolConfig ToolConfig::noPeeling() {
  ToolConfig C;
  C.LoopPeeling = false;
  return C;
}

ToolConfig ToolConfig::noCache() {
  ToolConfig C;
  C.UseCache = false;
  return C;
}

ToolConfig ToolConfig::fieldsMerged() {
  ToolConfig C;
  C.FieldsMerged = true;
  return C;
}

ToolConfig ToolConfig::noOwnership() {
  ToolConfig C;
  C.UseOwnership = false;
  return C;
}

namespace {

/// Renders a site reference for diagnostics: the symbolic label, plus
/// "(file:line)" when the frontend recorded a source line ("L7
/// (prog.mj:7)"); empty for an invalid site.
std::string siteRef(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return std::string();
  const SourceSite &S = P.site(Site);
  std::string Out(P.Names.text(S.Label));
  if (S.Line != 0 && !P.SourceName.empty()) {
    Out += " (";
    Out += P.SourceName;
    Out += ':';
    Out += std::to_string(S.Line);
    Out += ')';
  }
  return Out;
}

/// The 1-based source line of \p Site, or 0 when unknown.
uint32_t siteLine(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return 0;
  return P.site(Site).Line;
}

/// The symbolic label of \p Site, or empty when unknown.
std::string siteLabel(const Program &P, SiteId Site) {
  if (!Site.isValid() || Site.index() >= P.numSites())
    return std::string();
  return std::string(P.Names.text(P.site(Site).Label));
}

/// Appends the `--provenance=on` detail lines to a formatted race: where
/// the earlier access was, how the racing thread was spawned, where each
/// held lock (\p CurrentLocks) was acquired, and the thread's recent
/// access history.  Every line is indented continuation text of the same
/// report.
void appendProvenanceDetail(std::string &Out, const Program &P,
                            const ProvenanceStore &Prov,
                            const RaceRecord &Rec,
                            std::span<const LockId> CurrentLocks) {
  if (Rec.PriorSite.isValid()) {
    Out += "\n    earlier access at ";
    Out += siteRef(P, Rec.PriorSite);
  }
  ProvenanceStore::Spawn Sp = Prov.spawnOf(Rec.CurrentThread);
  if (Sp.Parent.isValid()) {
    Out += "\n    thread ";
    Out += std::to_string(Rec.CurrentThread.index());
    Out += " spawned by thread ";
    Out += std::to_string(Sp.Parent.index());
    if (Sp.Site.isValid()) {
      Out += " at ";
      Out += siteRef(P, Sp.Site);
    }
  }
  for (LockId L : CurrentLocks) {
    if (L.index() >= FirstDummyLock)
      continue; // dummy join locks have no acquisition statement
    ProvenanceStore::LockAcquire Acq = Prov.lockAcquire(L);
    if (!Acq.Site.isValid())
      continue;
    Out += "\n    lock #";
    Out += std::to_string(L.index());
    Out += " acquired by thread ";
    Out += std::to_string(Acq.Thread.index());
    Out += " at ";
    Out += siteRef(P, Acq.Site);
  }
  std::vector<ProvenanceStore::AccessEntry> Recent =
      Prov.recentAccesses(Rec.CurrentThread);
  if (!Recent.empty()) {
    Out += "\n    recent by thread ";
    Out += std::to_string(Rec.CurrentThread.index());
    Out += ':';
    // Newest last mirrors program order; cap keeps reports readable.
    size_t Shown = 0;
    size_t First = Recent.size() > 4 ? Recent.size() - 4 : 0;
    for (size_t I = First; I != Recent.size(); ++I) {
      const ProvenanceStore::AccessEntry &A = Recent[I];
      Out += Shown++ ? ", " : " ";
      Out += A.Access == AccessKind::Write ? "write" : "read";
      std::string Site = siteLabel(P, A.Site);
      if (!Site.empty()) {
        Out += " at ";
        Out += Site;
      }
    }
  }
}

/// Writes one report line into a stack buffer, or into a heap buffer when
/// the line could outgrow it, and then makes the line's string at its
/// exact size in one allocation.  Literals are copied with their
/// compile-time sizes and numbers are written in place, so most pieces
/// cost a few fixed-size moves.
class LineWriter {
public:
  /// Room for a line's literals and numbers: a caller bounds its line by
  /// this plus the sizes of the names it writes with text().
  static constexpr size_t FixedBound = 256;

  /// A writer for a line of at most \p Bound characters.
  explicit LineWriter(size_t Bound) {
    if (Bound > sizeof(Stack)) {
      Heap = std::make_unique_for_overwrite<char[]>(Bound);
      Begin = At = Heap.get();
    }
  }
  LineWriter(const LineWriter &) = delete;
  LineWriter &operator=(const LineWriter &) = delete;

  template <size_t N> void literal(const char (&Text)[N]) {
    std::memcpy(At, Text, N - 1);
    At += N - 1;
  }

  void text(std::string_view Text) {
    if (Text.empty())
      return; // a default string_view has no data to copy from
    std::memcpy(At, Text.data(), Text.size());
    At += Text.size();
  }

  void number(uint64_t Value) {
    At = std::to_chars(At, At + 20, Value).ptr; // 2^64 - 1 has 20 digits
  }

  void access(AccessKind Access) {
    if (Access == AccessKind::Write)
      literal("write");
    else
      literal("read");
  }

  std::string str() const { return std::string(Begin, size_t(At - Begin)); }

private:
  char Stack[512];
  std::unique_ptr<char[]> Heap;
  char *Begin = Stack;
  char *At = Stack;
};

/// The names in a race line's location part: "<kind> #<object>", then
/// " field <name>" when the location is a declared field.  The kind comes
/// from the final heap when there is one (the object's class name);
/// replay runs have no heap — the trace carries only event ids — so
/// objects are then reported by index alone.
struct LocationText {
  LocationText(const Program &P, const Heap *TheHeap, LocationKey Location)
      : Object(Location.object().index()) {
    ObjectId Obj = Location.object();
    if (TheHeap && Obj.index() < TheHeap->size()) {
      const HeapObject &H = TheHeap->object(Obj);
      if (H.IsArray)
        Kind = "array";
      else if (H.IsClassStatics)
        Kind = "statics";
      else if (H.Class.isValid())
        Kind = P.Names.text(P.classDecl(H.Class).Name);
    }
    uint32_t FieldBits = uint32_t(Location.raw() & 0xFFFFFFFF);
    if (FieldBits < P.numFields()) {
      HasField = true;
      Field = P.Names.text(P.field(FieldId(FieldBits)).Name);
    }
  }

  /// The characters write() can add beyond LineWriter::FixedBound.
  size_t names() const { return Kind.size() + Field.size(); }

  void write(LineWriter &W) const {
    W.literal("race on ");
    W.text(Kind);
    W.literal(" #");
    W.number(Object);
    if (HasField) {
      W.literal(" field ");
      W.text(Field);
    }
  }

  std::string_view Kind = "object";
  uint32_t Object;
  bool HasField = false;
  std::string_view Field;
};

/// Renders one race record, whose earlier access held \p PriorLocks, using
/// program metadata and, when available, the final heap (for object class
/// names).
std::string formatRace(const Program &P, const Heap *TheHeap,
                       const RaceRecord &Rec,
                       std::span<const LockId> PriorLocks) {
  LocationText L(P, TheHeap, Rec.Location);
  // A replayed trace may name sites the program does not declare; those
  // print like an unknown site.
  bool KnownSite =
      Rec.CurrentSite.isValid() && Rec.CurrentSite.index() < P.numSites();
  std::string_view Site;
  if (KnownSite)
    Site = P.Names.text(P.site(Rec.CurrentSite).Label);
  // Dummy join locks (Section 2.3) are an implementation device; report
  // only program locks, but surface the join ordering when present.
  size_t RealLocks = 0;
  bool HasDummy = false;
  for (LockId Lock : PriorLocks) {
    if (Lock.index() >= FirstDummyLock)
      HasDummy = true;
    else
      ++RealLocks;
  }
  LineWriter W(LineWriter::FixedBound + L.names() + Site.size());
  L.write(W);
  W.literal(": ");
  W.access(Rec.CurrentAccess);
  W.literal(" by thread ");
  W.number(Rec.CurrentThread.index());
  if (KnownSite) {
    W.literal(" at ");
    W.text(Site);
  }
  W.literal(" conflicts with earlier ");
  W.access(Rec.PriorAccess);
  if (Rec.PriorThreadKnown) {
    W.literal(" by thread ");
    W.number(Rec.PriorThread.index());
  } else {
    W.literal(" (thread unknown: multiple earlier threads)");
  }
  W.literal(" holding ");
  W.number(RealLocks);
  W.literal(" lock(s)");
  if (HasDummy)
    W.literal(" (+join ordering)");
  return W.str();
}

} // namespace

std::string herd::formatRacyLocation(const Program &P, const Heap *TheHeap,
                                     LocationKey Location) {
  LocationText L(P, TheHeap, Location);
  LineWriter W(LineWriter::FixedBound + L.names());
  L.write(W);
  return W.str();
}

namespace {

/// Stable identity of a deadlock cycle: the canonicalized lock sequence
/// with each edge's acquisition site (detect/RaceReport.h's mixer).
/// Threads are excluded — the same cycle witnessed by other threads is the
/// same bug.
uint64_t deadlockFingerprint(const DeadlockCycle &Cycle) {
  uint64_t H = fingerprintMix(0xD1);
  for (size_t I = 0; I != Cycle.Locks.size(); ++I) {
    SiteId S = I < Cycle.Sites.size() ? Cycle.Sites[I] : SiteId::invalid();
    H = fingerprintMix(H ^ ((uint64_t(Cycle.Locks[I].index()) << 32) |
                            uint64_t(S.index())));
  }
  return H;
}

/// Stable identity of a static allocation-site cycle.
uint64_t staticDeadlockFingerprint(const StaticLockCycle &Cycle) {
  uint64_t H = fingerprintMix(0xD2);
  for (AllocSiteId Site : Cycle.Sites)
    H = fingerprintMix(H ^ uint64_t(Site.index()));
  return H;
}

/// Runs the static half of the deadlock co-analysis over \p Input, reads
/// the dynamic cycles out of \p Deadlocks, and formats both into
/// \p Result.  Shared between live runs and trace replay.
void collectDeadlockResults(const Program &Input, DeadlockDetector &Deadlocks,
                            PipelineResult &Result) {
  // Static half of the co-analysis: whole-program candidates.
  PointsToAnalysis PT(Input);
  PT.run();
  SingleInstanceAnalysis SI(Input, PT);
  SI.run();
  LockOrderAnalysis LO(Input, PT, SI);
  LO.run();
  Result.StaticDeadlockCandidates = LO.findCycles();
  for (const StaticLockCycle &Cycle : Result.StaticDeadlockCandidates) {
    std::string Line = "static deadlock candidate: allocation-site cycle";
    for (AllocSiteId Site : Cycle.Sites) {
      Line += " -> site #";
      Line += std::to_string(Site.index());
      ClassId Cls = Input.allocSite(Site).Class;
      if (Cls.isValid()) {
        Line += " (";
        Line += Input.Names.text(Input.classDecl(Cls).Name);
        Line += ')';
      }
    }
    if (Cycle.Sites.size() == 1)
      Line += " [two instances of one site in opposite orders]";
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::DeadlockCandidate;
    Entry.Message = Line;
    Entry.Fingerprint = staticDeadlockFingerprint(Cycle);
    Result.Entries.push_back(std::move(Entry));
    Result.FormattedDeadlocks.push_back(std::move(Line));
  }

  Result.Deadlocks = Deadlocks.findPotentialDeadlocks();
  for (const DeadlockCycle &Cycle : Result.Deadlocks) {
    std::string Line = "potential deadlock: lock cycle";
    for (LockId L : Cycle.Locks) {
      Line += " -> object #";
      Line += std::to_string(L.index());
    }
    Line += " (threads";
    for (ThreadId T : Cycle.Threads) {
      Line += ' ';
      Line += std::to_string(T.index());
    }
    Line += ")";
    // Edge acquisition sites ride along when the event stream carried
    // them (live MiniJ runs and v1 traces recorded from them); traces
    // from site-less sources degrade to the bare cycle.
    bool AnySite = false;
    for (SiteId S : Cycle.Sites)
      AnySite = AnySite || S.isValid();
    if (AnySite) {
      Line += " acquired at";
      for (SiteId S : Cycle.Sites) {
        Line += ' ';
        std::string Ref = siteRef(Input, S);
        Line += Ref.empty() ? std::string("?") : Ref;
      }
    }
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::Deadlock;
    Entry.Message = Line;
    Entry.Fingerprint = deadlockFingerprint(Cycle);
    for (SiteId S : Cycle.Sites) {
      if (!S.isValid())
        continue;
      Entry.SiteLabel = siteLabel(Input, S);
      Entry.Line = siteLine(Input, S);
      break;
    }
    Result.Entries.push_back(std::move(Entry));
    Result.FormattedDeadlocks.push_back(std::move(Line));
  }
}

/// Resolves the plan the non-Auto modes can provide without analysis
/// results: Explicit sizes from the CLI; Off and (analysis-less) Auto are
/// empty.  runPipeline overrides Auto with planDetector when the static
/// phase ran.
DetectorPlan configuredPlan(const ToolConfig &Config) {
  if (Config.Plan == ToolConfig::PlanMode::Explicit)
    return DetectorPlan::sized(Config.PlanLocations);
  return DetectorPlan();
}

/// The shared report-formatting phase: renders the human lines (optionally
/// provenance-enriched) and builds the deduplicated ReportEntry list the
/// document renderers consume.  \p TheHeap may be null (replay runs).
void formatRaceResults(const Program &P, const Heap *TheHeap,
                       const EpochDetector *Epoch,
                       const ProvenanceStore *Prov, PipelineResult &Result) {
  if (Epoch) {
    for (LocationKey Loc : Epoch->reportedLocations())
      Result.FormattedRaces.push_back(formatRacyLocation(P, TheHeap, Loc));
    // Entries come from the first racing access per location, which
    // carries thread/site attribution the location set cannot.
    for (const EpochDetector::RacyAccess &RA : Epoch->racyAccesses()) {
      ReportEntry Entry;
      Entry.EntryKind = ReportEntry::Kind::RacyLocation;
      Entry.Message = formatRacyLocation(P, TheHeap, RA.Location);
      // Happens-before trips on the second access of a pair; the earlier
      // one is unknown, so it fingerprints as the invalid site (stable,
      // documented in docs/REPORTS.md).
      Entry.Fingerprint = raceFingerprint(RA.Location, RA.Site, RA.Access,
                                          SiteId::invalid(),
                                          AccessKind::Read);
      Entry.SiteLabel = siteLabel(P, RA.Site);
      Entry.Line = siteLine(P, RA.Site);
      Result.Entries.push_back(std::move(Entry));
    }
  }
  const RaceReporter &Reports = Result.Reports;
  Result.FormattedRaces.reserve(Result.FormattedRaces.size() +
                                Reports.records().size());
  for (const RaceRecord &Rec : Reports.records()) {
    std::string Line =
        formatRace(P, TheHeap, Rec, Reports.locks(Rec.PriorLocks));
    if (Prov)
      appendProvenanceDetail(Line, P, *Prov, Rec,
                             Reports.locks(Rec.CurrentLocks));
    Result.FormattedRaces.push_back(std::move(Line));
  }
  for (const RaceReporter::Group &G : Reports.groups()) {
    const RaceRecord &Rec = Reports.records()[G.FirstRecord];
    ReportEntry Entry;
    Entry.EntryKind = ReportEntry::Kind::Race;
    Entry.Message = formatRace(P, TheHeap, Rec, Reports.locks(Rec.PriorLocks));
    Entry.Fingerprint = G.Fingerprint;
    Entry.Occurrences = G.Count;
    Entry.SiteLabel = siteLabel(P, Rec.CurrentSite);
    Entry.Line = siteLine(P, Rec.CurrentSite);
    Entry.PriorSiteLabel = siteLabel(P, Rec.PriorSite);
    Entry.PriorLine = siteLine(P, Rec.PriorSite);
    Result.Entries.push_back(std::move(Entry));
  }
}

/// The detection core live runs and trace replay share.  It builds the
/// runtime \p Config asks for (serial RaceRuntime, ShardedRuntime, or the
/// epoch backend) and the sinks around it: the detector, provenance, the
/// deadlock detector and, on a live run, the trace recorder.  Once the
/// event source has run, finish() does everything else.
class DetectionCore {
public:
  /// \p Plan carries the capacity hints resolved for this run (empty = no
  /// pre-sizing).  \p Watch is false on an uninstrumented live ("Base")
  /// run, which produces no access events and skips sync tracking too.
  DetectionCore(const ToolConfig &Config, const DetectorPlan &Plan,
                bool Watch, TraceWriter *Recorder)
      : Config(Config) {
    RaceRuntimeOptions RTOpts;
    RTOpts.UseCache = Config.UseCache;
    RTOpts.CacheEntries = Config.CacheEntries;
    RTOpts.UseOwnership = Config.UseOwnership;
    RTOpts.FieldsMerged = Config.FieldsMerged;
    RTOpts.ModelJoin = Config.ModelJoin;
    RTOpts.HookFilter = Config.HookFilter;
    RTOpts.Plan = Plan;
    if (Config.Backend == ToolConfig::DetectorBackend::Epoch) {
      // Serial only (HerdOptions rejects epoch + --shards); the plan's
      // capacity hints pre-size the clock store and location table.
      Epoch = std::make_unique<EpochDetector>(Plan);
      Detect = Epoch.get();
    } else if (Config.Shards >= 1) {
      ShardedRuntimeOptions SOpts;
      static_cast<RaceRuntimeOptions &>(SOpts) = RTOpts;
      SOpts.NumShards = Config.Shards;
      SOpts.Metrics = Config.Metrics;
      Sharded = std::make_unique<ShardedRuntime>(SOpts);
      Detect = Sharded.get();
    } else {
      Serial = std::make_unique<RaceRuntime>(RTOpts);
      Detect = Serial.get();
    }
    if (Watch)
      Sinks.push_back(Detect);
    // Provenance is a pure listener next to the detector: present only
    // when asked for (zero-cost-when-off), and a second sink by design —
    // which disables the devirtualized delivery lane, never the race set.
    if (Config.Provenance && Watch) {
      Prov.emplace();
      Sinks.push_back(&*Prov);
    }
    if (Config.DetectDeadlocks)
      Sinks.push_back(&Deadlocks);
    if (Recorder)
      Sinks.push_back(Recorder);
    // FanoutHooks is only materialized when several sinks actually watch
    // the run; a single sink is passed directly and pays no forwarding.
    if (Sinks.size() > 1)
      Fanout.emplace(Sinks);
  }
  DetectionCore(const DetectionCore &) = delete; // the sinks point inside
  DetectionCore &operator=(const DetectionCore &) = delete;

  /// What the event source feeds; null when nothing watches the run.
  RuntimeHooks *hooks() {
    if (Fanout)
      return &*Fanout;
    return Sinks.empty() ? nullptr : Sinks.front();
  }

  /// True when the detection runtime is the only sink, so the interpreter
  /// may deliver accesses to it directly.
  bool detectorOnly() const {
    return Sinks.size() == 1 && Sinks.front() == Detect;
  }
  RaceRuntime *serial() const { return Serial.get(); }
  ShardedRuntime *sharded() const { return Sharded.get(); }

  /// After the event source's span, which includes onRunEnd: drains and
  /// collects the detector (detect-drain), formats the reports
  /// (format-reports), then hands off provenance, the run.* counters and
  /// the deadlock results.  \p P names sites and fields, \p TheHeap (null
  /// on replay, which has no heap) names object classes, and \p Input is
  /// the unmodified program for the static deadlock half.
  void finish(const Program &P, const Heap *TheHeap, const Program &Input,
              PipelineResult &Result) {
    MetricsRegistry *Metrics = Config.Metrics;
    {
      Span DrainSpan(Metrics, "detect-drain");
      if (Sharded) {
        Sharded->finish();
        Result.Stats = Sharded->stats();
        Result.Reports = Sharded->reporter();
        Result.ShardBreakdown = Sharded->shardStats();
      } else if (Serial) {
        // The runtime is discarded right after, so its reporter — up to
        // 2^16 records on a saturated stream — is moved out, not copied.
        Result.Stats = Serial->stats();
        Result.Reports = std::exchange(Serial->reporter(), RaceReporter());
      } else {
        Result.EpochBackend = true;
        Result.Epoch = Epoch->stats();
      }
    }
    {
      Span FormatSpan(Metrics, "format-reports");
      formatRaceResults(P, TheHeap, Epoch.get(), Prov ? &*Prov : nullptr,
                        Result);
    }
    if (Prov) {
      Result.ProvenanceOn = true;
      Result.Provenance = std::move(*Prov);
    }
    // Live and replay runs record the same set; a replay interprets
    // nothing, so its instructions and context switches are 0.
    if (Metrics) {
      Metrics->counter("run.instructions").add(Result.Run.InstructionsExecuted);
      Metrics->counter("run.access_events").add(Result.Run.AccessEvents);
      Metrics->counter("run.context_switches").add(Result.Run.ContextSwitches);
      Metrics->counter("run.races").add(Result.FormattedRaces.size());
    }
    if (Config.DetectDeadlocks)
      collectDeadlockResults(Input, Deadlocks, Result);
  }

private:
  const ToolConfig &Config;
  std::unique_ptr<RaceRuntime> Serial;
  std::unique_ptr<ShardedRuntime> Sharded;
  std::unique_ptr<EpochDetector> Epoch;
  RuntimeHooks *Detect = nullptr;
  std::optional<ProvenanceStore> Prov;
  DeadlockDetector Deadlocks;
  std::vector<RuntimeHooks *> Sinks;
  std::optional<FanoutHooks> Fanout;
};

} // namespace

PipelineResult herd::runPipeline(const Program &Input,
                                 const ToolConfig &Config) {
  using Clock = std::chrono::steady_clock;
  PipelineResult Result;

  assert(verifyProgram(Input).empty() &&
         "pipeline input must be a verified program");

  // Phase 1+2: static analysis and instrumentation, on a private copy.
  Program P = Input;
  MetricsRegistry *Metrics = Config.Metrics;
  DetectorPlan Plan = configuredPlan(Config);
  Clock::time_point T0 = Clock::now();
  if (Config.Instrument) {
    std::unique_ptr<StaticRaceAnalysis> Races;
    if (Config.StaticAnalysis) {
      {
        Span AnalysisSpan(Metrics, "static-race");
        Races = std::make_unique<StaticRaceAnalysis>(P);
        Races->run(Metrics);
        Result.Static = Races->stats();
      }
      // The race set bounds what the runtime can see: turn it into
      // capacity hints so the detector pre-sizes instead of growing
      // through the cold pass (charged to analysis time, where it
      // belongs — it is the analysis paying for runtime efficiency).
      if (Config.Plan == ToolConfig::PlanMode::Auto) {
        Span PlanSpan(Metrics, "plan");
        Plan = planDetector(P, *Races);
      }
    }
    Span InstrSpan(Metrics, "instrument");
    InstrumenterOptions Opts;
    Opts.UseStaticRaceSet = Config.StaticAnalysis;
    Opts.StaticWeakerThan = Config.StaticWeakerThan;
    Opts.LoopPeeling = Config.LoopPeeling;
    Result.Instr = instrumentProgram(P, Opts, Races.get());
    assert(verifyProgram(P).empty() &&
           "instrumentation must preserve well-formedness");
  }
  // Superinstruction shadow code for the threaded fast path, built from
  // the program's final (post-instrumentation) form at plan time.  The
  // verified IR is never rewritten; the interpreter runs the shadow
  // blocks (docs/INTERPRETER.md).  Charged to analysis time: it is the
  // plan paying for runtime efficiency, like detector pre-sizing.
  std::unique_ptr<ThreadedCode> Shadow;
  Result.Dispatch = Config.Dispatch;
  if (Config.Dispatch == DispatchMode::Threaded) {
    Span FuseSpan(Metrics, "fuse");
    SuperinstrOptions FuseOpts;
    FuseOpts.Fuse = Config.Superinstructions;
    Shadow = std::make_unique<ThreadedCode>(buildThreadedCode(P, FuseOpts));
    Result.Fusion = Shadow->Stats;
  }
  Result.AnalysisSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();

  TraceWriter Writer;
  if (!Config.RecordTracePath.empty()) {
    Result.Trace = Writer.open(Config.RecordTracePath);
    if (!Result.Trace.Ok) {
      Result.Run.Error = "cannot record trace: " + Result.Trace.Error;
      return Result;
    }
  }
  // Phase 3+4: execution with the runtime optimizer and detector.  The
  // detection runtime is either the serial RaceRuntime or, with
  // Config.Shards >= 1, the sharded batched runtime (docs/SHARDING.md) —
  // both produce the identical race-report set for the same schedule.
  // The detector and provenance watch only instrumented runs ("Base" runs
  // produce no access events anyway but also skip sync tracking).
  DetectionCore Core(Config, Plan, Config.Instrument,
                     Writer.isOpen() ? &Writer : nullptr);

  InterpOptions IOpts;
  IOpts.Seed = Config.Seed;
  IOpts.MaxQuantum = Config.MaxQuantum;
  IOpts.MaxInstructions = Config.MaxInstructions;
  IOpts.Profiler = Config.Profiler;
  IOpts.Dispatch = Config.Dispatch;
  IOpts.Fused = Shadow.get();
  // Devirtualized delivery (docs/HOOKPATH.md): when the detection runtime
  // is the *sole* sink — no recorder, no deadlock detector — and no
  // profiler wants to time hook calls, the interpreter delivers access
  // events straight to the concrete runtime (inline L0 filter included).
  // Any extra sink disables it so recorded traces keep every event.
  if (Config.HookFilter && !Config.Profiler && Core.detectorOnly()) {
    IOpts.SerialSink = Core.serial();
    IOpts.ShardedSink = Core.sharded();
  }
  Interpreter Interp(P, Core.hooks(), IOpts);

  Clock::time_point T1 = Clock::now();
  {
    Span ExecSpan(Metrics, "execute");
    Result.Run = Interp.run();
  }
  Result.ExecSeconds =
      std::chrono::duration<double>(Clock::now() - T1).count();

  Core.finish(P, &Interp.heap(), Input, Result);
  if (Writer.isOpen()) {
    TraceResult Closed = Writer.close();
    if (Result.Trace.Ok && !Closed.Ok)
      Result.Trace = Closed;
    Result.TraceRecords = Writer.recordsWritten();
    Result.TraceBytes = Writer.bytesWritten();
  }
  return Result;
}

PipelineResult herd::replayTracePipeline(const Program &Input,
                                         const ToolConfig &Config,
                                         const std::string &TracePath) {
  using Clock = std::chrono::steady_clock;
  PipelineResult Result;

  // The same detection core a live run with this Config would use; the
  // trace replaces the interpreter as the event source, so the
  // compile-time phases are skipped entirely.  Auto planning needs those
  // phases, so replay only honours an Explicit plan (`--plan=N`).  v1
  // traces carry sites on monitor-enter / thread-create records, so
  // replayed runs capture the same provenance a live run would.
  DetectionCore Core(Config, configuredPlan(Config), /*Watch=*/true,
                     /*Recorder=*/nullptr);
  Result.Dispatch = Config.Dispatch; // no interpretation: fusion stays zero
  TraceReader Reader;
  Result.Trace = Reader.open(TracePath);
  if (Result.Trace.Ok) {
    Clock::time_point T0 = Clock::now();
    {
      Span ReplaySpan(Config.Metrics, "replay");
      Result.Trace = Reader.replayInto(*Core.hooks());
      // Always end the run, as the interpreter does — a sharded runtime
      // must drain even when the trace turned out to be malformed.
      Core.hooks()->onRunEnd();
    }
    Result.ExecSeconds =
        std::chrono::duration<double>(Clock::now() - T0).count();
    Result.TraceRecords = Reader.recordsRead();
    Result.TraceBytes =
        tracefmt::HeaderBytes + Result.TraceRecords * tracefmt::RecordBytes;
  }
  Result.Run.Ok = Result.Trace.Ok;
  if (!Result.Trace.Ok) {
    Result.Run.Error = "trace replay failed: " + Result.Trace.Error;
    return Result;
  }
  // The trace's access and thread-create records are what the live run
  // counted; its sync records are neither.
  Result.Run.AccessEvents =
      Reader.recordsOfKind(EventLog::RecordKind::Access);
  Result.Run.ThreadsCreated =
      uint32_t(Reader.recordsOfKind(EventLog::RecordKind::ThreadCreate));
  Core.finish(Input, nullptr, Input, Result);
  return Result;
}
