//===- tests/report_test.cpp - Race diagnostics and report export ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the actionable-diagnostics layer (docs/REPORTS.md):
///
///   - the stable race fingerprint as a pure function (symmetry, site and
///     kind sensitivity, object-index normalization);
///   - the bounded RaceReporter (duplicate retention below the cap,
///     count-bump vs dropped-record accounting at the cap, O(1) counting
///     queries, clear());
///   - fingerprint-set stability differentials: the same execution must
///     fingerprint identically across dispatch modes, shard counts, the
///     hook-filter fast path, and record→replay;
///   - provenance on/off byte-identity of the race *set* for all three
///     backend families (lockset trie, epoch happens-before, and the
///     vector-clock replay baseline) — the store only listens;
///   - the JSON / SARIF renderers as pure functions of a PipelineResult.
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "baselines/VectorClockDetector.h"
#include "detect/RaceReport.h"
#include "detect/TraceFile.h"
#include "herd/Pipeline.h"
#include "herd/ReportExport.h"
#include "ir/IRBuilder.h"
#include "runtime/Interpreter.h"
#include "support/Rng.h"
#include "support/TempPath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

using namespace herd;

namespace {

/// Sorted fingerprint multiset of every retained record — the structural
/// race-set identity the differentials compare.
std::vector<uint64_t> fingerprints(const RaceReporter &Reporter) {
  std::vector<uint64_t> Out;
  for (const RaceRecord &Rec : Reporter.records())
    Out.push_back(Rec.Fingerprint);
  std::sort(Out.begin(), Out.end());
  return Out;
}

RaceRecord makeRecord(LocationKey Location, uint32_t CurSite,
                      AccessKind CurKind, uint32_t PriorSite,
                      AccessKind PriorKind) {
  RaceRecord R;
  R.Location = Location;
  R.CurrentThread = ThreadId(1);
  R.CurrentAccess = CurKind;
  R.CurrentSite = SiteId(CurSite);
  R.PriorThreadKnown = true;
  R.PriorThread = ThreadId(2);
  R.PriorAccess = PriorKind;
  R.PriorSite = SiteId(PriorSite);
  R.Fingerprint = raceFingerprint(R);
  return R;
}

//===----------------------------------------------------------------------===
// The fingerprint as a pure function.
//===----------------------------------------------------------------------===

TEST(FingerprintTest, SymmetricUnderAccessOrder) {
  // A-vs-B and B-vs-A observations of the same bug must collapse: the
  // (site, kind) pairs are ordered canonically before hashing.
  LocationKey L = LocationKey::forField(ObjectId(3), FieldId(7));
  EXPECT_EQ(raceFingerprint(L, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read),
            raceFingerprint(L, SiteId(29), AccessKind::Read, SiteId(11),
                            AccessKind::Write));
}

TEST(FingerprintTest, SensitiveToSitesAndKinds) {
  LocationKey L = LocationKey::forField(ObjectId(3), FieldId(7));
  uint64_t Base = raceFingerprint(L, SiteId(11), AccessKind::Write,
                                  SiteId(29), AccessKind::Read);
  EXPECT_NE(Base, raceFingerprint(L, SiteId(12), AccessKind::Write,
                                  SiteId(29), AccessKind::Read))
      << "changing a site must change the fingerprint";
  EXPECT_NE(Base, raceFingerprint(L, SiteId(11), AccessKind::Read,
                                  SiteId(29), AccessKind::Read))
      << "changing an access kind must change the fingerprint";
  LocationKey OtherField = LocationKey::forField(ObjectId(3), FieldId(8));
  EXPECT_NE(Base, raceFingerprint(OtherField, SiteId(11), AccessKind::Write,
                                  SiteId(29), AccessKind::Read))
      << "changing the field must change the fingerprint";
}

TEST(FingerprintTest, NormalizesObjectIndexAway) {
  // The object index is a run-specific allocation counter; the same
  // source-level bug on two different instances must fingerprint the
  // same (the low-32-bit field component is all that participates).
  LocationKey A = LocationKey::forField(ObjectId(3), FieldId(7));
  LocationKey B = LocationKey::forField(ObjectId(900), FieldId(7));
  EXPECT_EQ(raceFingerprint(A, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read),
            raceFingerprint(B, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read));
  // Arrays keep their distinct field marker.
  EXPECT_NE(raceFingerprint(LocationKey::forArray(ObjectId(3)), SiteId(11),
                            AccessKind::Write, SiteId(29), AccessKind::Read),
            raceFingerprint(A, SiteId(11), AccessKind::Write, SiteId(29),
                            AccessKind::Read));
}

TEST(FingerprintTest, InvalidSitesAreDeterministic) {
  // Site-less reports (old traces, the epoch backend's unknown earlier
  // access) still fingerprint deterministically.
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(2));
  uint64_t F1 = raceFingerprint(L, SiteId::invalid(), AccessKind::Write,
                                SiteId::invalid(), AccessKind::Read);
  uint64_t F2 = raceFingerprint(L, SiteId::invalid(), AccessKind::Write,
                                SiteId::invalid(), AccessKind::Read);
  EXPECT_EQ(F1, F2);
  EXPECT_NE(F1, 0u);
}

//===----------------------------------------------------------------------===
// The bounded reporter.
//===----------------------------------------------------------------------===

TEST(RaceReporterTest, BelowCapKeepsDuplicatesAndGroups) {
  RaceReporter Reporter(8);
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(5));
  RaceRecord R = makeRecord(L, 10, AccessKind::Write, 20, AccessKind::Read);
  Reporter.report(R);
  Reporter.report(R); // duplicate: retained below the cap
  Reporter.report(
      makeRecord(L, 11, AccessKind::Write, 20, AccessKind::Read));

  EXPECT_EQ(Reporter.size(), 3u) << "below the cap every record is kept";
  ASSERT_EQ(Reporter.groups().size(), 2u);
  EXPECT_EQ(Reporter.groups()[0].Count, 2u);
  EXPECT_EQ(Reporter.groups()[0].FirstRecord, 0u);
  EXPECT_EQ(Reporter.groups()[1].Count, 1u);
  EXPECT_EQ(Reporter.groups()[1].FirstRecord, 2u);
  EXPECT_EQ(Reporter.totalReported(), 3u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);
  EXPECT_EQ(Reporter.records()[0].Fingerprint,
            Reporter.groups()[0].Fingerprint);
}

TEST(RaceReporterTest, AtCapBumpsKnownAndCountsNovel) {
  RaceReporter Reporter(2);
  LocationKey L = LocationKey::forField(ObjectId(1), FieldId(5));
  RaceRecord A = makeRecord(L, 10, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord B = makeRecord(L, 11, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord C = makeRecord(L, 12, AccessKind::Write, 20, AccessKind::Read);
  Reporter.report(A);
  Reporter.report(B);
  ASSERT_EQ(Reporter.size(), 2u);

  // Known fingerprint past the cap: the count bumps, nothing is dropped.
  Reporter.report(A);
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.groups()[0].Count, 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);

  // Novel fingerprint past the cap: counted as dropped, never silent.
  Reporter.report(C);
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.groups().size(), 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 1u);
  EXPECT_EQ(Reporter.totalReported(), 4u);

  // The counting queries stay exact past the cap: a dropped record on a
  // never-seen location (same field, new object — same fingerprint as A
  // after object normalization, so not even counted as dropped) must
  // still reach the distinct location/object sets.
  LocationKey L2 = LocationKey::forField(ObjectId(9), FieldId(5));
  Reporter.report(
      makeRecord(L2, 10, AccessKind::Write, 20, AccessKind::Read));
  EXPECT_EQ(Reporter.size(), 2u);
  EXPECT_EQ(Reporter.droppedRecords(), 1u);
  EXPECT_EQ(Reporter.countDistinctLocations(), 2u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 2u);
  EXPECT_EQ(Reporter.reportedLocations().count(L2), 1u);
}

TEST(RaceReporterTest, MergePreservesCountsAndSetsPastTheCap) {
  LocationKey L1 = LocationKey::forField(ObjectId(1), FieldId(5));
  LocationKey L2 = LocationKey::forField(ObjectId(2), FieldId(6));
  LocationKey L3 = LocationKey::forArray(ObjectId(3));
  RaceRecord A = makeRecord(L1, 10, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord B = makeRecord(L2, 11, AccessKind::Write, 20, AccessKind::Read);
  RaceRecord C = makeRecord(L3, 12, AccessKind::Write, 20, AccessKind::Read);

  // A saturated source: cap 1, so B is past-cap (novel -> dropped, its
  // location only in the sets) and a repeat of A only bumps its count.
  RaceReporter Src(1);
  Src.report(A);
  Src.report(B);
  Src.report(A);
  ASSERT_EQ(Src.size(), 1u);
  ASSERT_EQ(Src.droppedRecords(), 1u);

  // A roomy destination: everything Src ever saw survives the merge
  // semantically — A's retained record with its past-cap count bump,
  // B's drop, the exact location/object sets, the totals.
  RaceReporter Dst(8);
  Dst.report(C);
  Dst.merge(Src);
  EXPECT_EQ(Dst.size(), 2u); // C + A's retained record
  EXPECT_EQ(Dst.totalReported(), 4u);
  EXPECT_EQ(Dst.countDistinctLocations(), 3u);
  EXPECT_EQ(Dst.reportedLocations().count(L2), 1u);
  EXPECT_EQ(Dst.droppedRecords(), 1u);
  bool FoundA = false;
  for (const RaceReporter::Group &G : Dst.groups())
    if (G.Fingerprint == raceFingerprint(A)) {
      FoundA = true;
      EXPECT_EQ(G.Count, 2u);
    }
  EXPECT_TRUE(FoundA);

  // A destination already at its own cap behaves exactly as if Src's
  // stream had been delivered directly: A and B are novel there, so
  // every one of their occurrences lands in droppedRecords() — but the
  // location/object sets stay exact even then.
  RaceReporter Full(1);
  Full.report(C);
  Full.merge(Src);
  EXPECT_EQ(Full.size(), 1u);
  EXPECT_EQ(Full.totalReported(), 4u);
  EXPECT_EQ(Full.countDistinctLocations(), 3u);
  EXPECT_EQ(Full.droppedRecords(), 3u); // A, A again, and Src's own drop
}

TEST(RaceReporterTest, CountingQueriesAndClear) {
  RaceReporter Reporter;
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(1), FieldId(5)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(1), FieldId(6)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  Reporter.report(makeRecord(LocationKey::forField(ObjectId(2), FieldId(5)),
                             10, AccessKind::Write, 20, AccessKind::Read));
  EXPECT_EQ(Reporter.countDistinctLocations(), 3u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 2u);

  Reporter.clear();
  EXPECT_TRUE(Reporter.empty());
  EXPECT_TRUE(Reporter.groups().empty());
  EXPECT_EQ(Reporter.totalReported(), 0u);
  EXPECT_EQ(Reporter.droppedRecords(), 0u);
  EXPECT_EQ(Reporter.countDistinctLocations(), 0u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 0u);
}

//===----------------------------------------------------------------------===
// The reporter against a brute-force model, at several caps.
//===----------------------------------------------------------------------===

/// One report of a stream: the record and its two locksets, held by value.
struct Reported {
  RaceRecord Record;
  std::vector<LockId> Current, Prior;
};

/// RaceReporter's documented semantics recomputed with plain containers and
/// linear scans: no lazy fold, no fingerprint or location index, and each
/// record's locksets kept by value beside it.
struct ModelReporter {
  explicit ModelReporter(size_t Capacity) : Capacity(Capacity) {}

  RaceReporter::Group *find(uint64_t Fingerprint) {
    for (RaceReporter::Group &G : Groups)
      if (G.Fingerprint == Fingerprint)
        return &G;
    return nullptr;
  }

  /// One occurrence of \p Rep: retained while there is room, else counted
  /// against its group or as dropped.
  void deliver(const Reported &Rep) {
    uint64_t Fingerprint = Rep.Record.Fingerprint;
    RaceReporter::Group *G = find(Fingerprint);
    if (Records.size() < Capacity) {
      if (G)
        ++G->Count;
      else
        Groups.push_back({Fingerprint, uint32_t(Records.size()), 1});
      Records.push_back(Rep);
    } else if (G) {
      ++G->Count;
    } else {
      ++Dropped;
    }
  }

  void report(Reported Rep) {
    Rep.Record.Fingerprint = raceFingerprint(Rep.Record);
    ++Total;
    Locations.insert(Rep.Record.Location);
    deliver(Rep);
  }

  void merge(const ModelReporter &Other) {
    for (const Reported &Rep : Other.Records)
      deliver(Rep);
    // Occurrences the other reporter counted past its cap ride along as
    // count excess over the records it kept.
    for (const RaceReporter::Group &G : Other.Groups) {
      uint64_t Kept = 0;
      for (const Reported &Rep : Other.Records)
        Kept += Rep.Record.Fingerprint == G.Fingerprint;
      if (RaceReporter::Group *Mine = find(G.Fingerprint))
        Mine->Count += G.Count - Kept;
      else
        Dropped += G.Count - Kept;
    }
    Locations.insert(Other.Locations.begin(), Other.Locations.end());
    Dropped += Other.Dropped;
    Total += Other.Total;
  }

  size_t Capacity;
  std::vector<Reported> Records;
  std::vector<RaceReporter::Group> Groups;
  std::set<LocationKey> Locations;
  uint64_t Dropped = 0;
  uint64_t Total = 0;
};

std::vector<LockId> resolved(const RaceReporter &Real, LockRun Run) {
  std::span<const LockId> Locks = Real.locks(Run);
  return std::vector<LockId>(Locks.begin(), Locks.end());
}

void expectMatchesModel(const RaceReporter &Real, const ModelReporter &Model,
                        const std::string &What) {
  SCOPED_TRACE(What);
  EXPECT_EQ(Real.reportedLocations(), Model.Locations);
  EXPECT_EQ(Real.countDistinctLocations(), Model.Locations.size());
  std::set<ObjectId> Objects;
  for (LocationKey Location : Model.Locations)
    Objects.insert(Location.object());
  EXPECT_EQ(Real.countDistinctObjects(), Objects.size());
  ASSERT_EQ(Real.size(), Model.Records.size());
  for (size_t I = 0; I != Model.Records.size(); ++I) {
    const RaceRecord &Got = Real.records()[I];
    const Reported &Want = Model.Records[I];
    EXPECT_EQ(Got.Location, Want.Record.Location);
    EXPECT_EQ(Got.Fingerprint, Want.Record.Fingerprint);
    EXPECT_EQ(resolved(Real, Got.CurrentLocks), Want.Current) << "record " << I;
    EXPECT_EQ(resolved(Real, Got.PriorLocks), Want.Prior) << "record " << I;
  }
  ASSERT_EQ(Real.groups().size(), Model.Groups.size());
  for (size_t I = 0; I != Model.Groups.size(); ++I) {
    EXPECT_EQ(Real.groups()[I].Fingerprint, Model.Groups[I].Fingerprint);
    EXPECT_EQ(Real.groups()[I].FirstRecord, Model.Groups[I].FirstRecord);
    EXPECT_EQ(Real.groups()[I].Count, Model.Groups[I].Count);
  }
  EXPECT_EQ(Real.droppedRecords(), Model.Dropped);
  EXPECT_EQ(Real.totalReported(), Model.Total);
  EXPECT_TRUE(Real.checkInvariants());
}

/// A sorted lockset of 0 to 6 locks: program locks from a small pool and,
/// now and then, a dummy join lock.
std::vector<LockId> randomLocks(Rng &R) {
  std::set<LockId> Locks;
  for (uint64_t N = R.nextBelow(7); Locks.size() != N;)
    Locks.insert(R.nextChance(1, 6)
                     ? LockId(FirstDummyLock + uint32_t(R.nextBelow(4)))
                     : LockId(uint32_t(R.nextBelow(12))));
  return std::vector<LockId>(Locks.begin(), Locks.end());
}

/// A seeded report stream over hundreds of locations: 120 objects with
/// gaps between their ids (0 included), five fields each plus the whole
/// array, interleaved across objects, and now and then the all-ones key
/// next to a real key of its object.  Few sites, so fingerprints repeat.
std::vector<Reported> randomStream(uint64_t Seed, size_t Length) {
  Rng R(Seed);
  std::vector<Reported> Out;
  for (size_t I = 0; I != Length; ++I) {
    ObjectId Object(uint32_t(R.nextBelow(120) * 3));
    LocationKey Location =
        R.nextChance(1, 8)
            ? LocationKey::forArray(Object)
            : LocationKey::forField(Object, FieldId(uint32_t(R.nextBelow(5))));
    if (R.nextChance(1, 100))
      Location = R.nextChance(1, 2)
                     ? LocationKey()
                     : LocationKey::forField(ObjectId(0xFFFFFFFF), FieldId(3));
    uint32_t CurSite = uint32_t(R.nextBelow(6));
    AccessKind CurKind = R.nextChance(1, 2) ? AccessKind::Write
                                            : AccessKind::Read;
    uint32_t PriorSite = uint32_t(R.nextBelow(6));
    AccessKind PriorKind = R.nextChance(1, 2) ? AccessKind::Write
                                              : AccessKind::Read;
    Reported Rep;
    Rep.Record = makeRecord(Location, CurSite, CurKind, PriorSite, PriorKind);
    Rep.Current = randomLocks(R);
    Rep.Prior = randomLocks(R);
    Out.push_back(std::move(Rep));
  }
  return Out;
}

/// Feeds \p Stream to \p Real and \p Model alike.  Each report is flagged
/// first at its location as the model sees it, or, with \p AlwaysFirst,
/// every report is (the location set must fold the repeats).
void reportAll(const std::vector<Reported> &Stream, RaceReporter &Real,
               ModelReporter &Model, bool AlwaysFirst = false) {
  for (size_t I = 0; I != Stream.size(); ++I) {
    bool First =
        AlwaysFirst || !Model.Locations.count(Stream[I].Record.Location);
    Real.report(Stream[I].Record, FirstAtLocation(First), Stream[I].Current,
                Stream[I].Prior);
    Model.report(Stream[I]);
    if (I % 97 == 0) // fold part of the stream early
      (void)Real.countDistinctObjects();
  }
}

class ReporterOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ReporterOracleTest, CountsGroupsAndMergesMatchBruteForce) {
  const size_t Cap = GetParam();
  for (bool AlwaysFirst : {false, true}) {
    SCOPED_TRACE(AlwaysFirst ? "every report flagged first"
                             : "first reports flagged by the model");
    std::vector<RaceReporter> Reporters;
    std::vector<ModelReporter> Models;
    for (uint64_t Seed : {1u, 2u, 3u}) {
      RaceReporter Real(Cap);
      ModelReporter Model(Cap);
      reportAll(randomStream(Seed, 1000 + 500 * Seed), Real, Model,
                AlwaysFirst);
      ASSERT_GE(Model.Locations.size(), 300u) << "seed " << Seed;
      expectMatchesModel(Real, Model, "seed " + std::to_string(Seed));
      Reporters.push_back(std::move(Real));
      Models.push_back(std::move(Model));
    }
    // The streams share most of their locations, so the merges below must
    // fold overlapping location lists into their exact union.
    std::vector<LocationKey> Shared;
    std::set_intersection(Models[0].Locations.begin(),
                          Models[0].Locations.end(),
                          Models[1].Locations.begin(),
                          Models[1].Locations.end(),
                          std::back_inserter(Shared));
    ASSERT_GE(Shared.size(), 100u);
    // Merge two and then three of them, into a reporter of the same cap and
    // into a roomy one.
    for (size_t DestCap : {Cap, RaceReporter::DefaultCapacity}) {
      for (size_t Sources : {2u, 3u}) {
        RaceReporter Real(DestCap);
        ModelReporter Model(DestCap);
        for (size_t I = 0; I != Sources; ++I) {
          Real.merge(Reporters[I]);
          Model.merge(Models[I]);
        }
        expectMatchesModel(Real, Model,
                           "merge of " + std::to_string(Sources) +
                               " into cap " + std::to_string(DestCap));
      }
    }
  }
}

TEST(RaceReporterTest, EveryRecordLocationIsListed) {
  // A record whose location never had a first report would be missing
  // from reportedLocations(); the invariant check catches the lost flag.
  RaceReporter Reporter;
  LocationKey A = LocationKey::forField(ObjectId(1), FieldId(0));
  LocationKey B = LocationKey::forField(ObjectId(2), FieldId(0));
  Reporter.report(makeRecord(A, 1, AccessKind::Write, 2, AccessKind::Read),
                  FirstAtLocation::Yes, {}, {});
  Reporter.report(makeRecord(A, 3, AccessKind::Write, 2, AccessKind::Read),
                  FirstAtLocation::No, {}, {});
  EXPECT_TRUE(Reporter.checkInvariants());
  Reporter.report(makeRecord(B, 1, AccessKind::Write, 2, AccessKind::Read),
                  FirstAtLocation::No, {}, {});
  EXPECT_FALSE(Reporter.checkInvariants());
  EXPECT_EQ(Reporter.reportedLocations(), std::set<LocationKey>{A});
}

TEST_P(ReporterOracleTest, CopiesMovesAndClearKeepRecordsWithTheirLocks) {
  const size_t Cap = GetParam();
  RaceReporter Source(Cap);
  ModelReporter Model(Cap);
  reportAll(randomStream(4, 1200), Source, Model);

  // A copy owns its own pool: reporting more into the source afterwards,
  // which may grow the source's pool, leaves the copy as it was.
  RaceReporter Copy = Source;
  RaceReporter Assigned(1);
  Assigned = Source;
  ModelReporter SourceModel = Model;
  reportAll(randomStream(5, 800), Source, SourceModel);
  expectMatchesModel(Copy, Model, "copy");
  expectMatchesModel(Assigned, Model, "copy assignment");
  expectMatchesModel(Source, SourceModel, "source after the copies");

  RaceReporter Moved = std::move(Copy);
  expectMatchesModel(Moved, Model, "move");
  RaceReporter MoveAssigned(1);
  MoveAssigned = std::move(Assigned);
  expectMatchesModel(MoveAssigned, Model, "move assignment");

  // clear() empties the pool with the records; the reporter keeps its cap.
  Moved.clear();
  ModelReporter Fresh(Cap);
  expectMatchesModel(Moved, Fresh, "cleared");
  reportAll(randomStream(6, 900), Moved, Fresh);
  expectMatchesModel(Moved, Fresh, "reused after clear");
}
INSTANTIATE_TEST_SUITE_P(Caps, ReporterOracleTest,
                         ::testing::Values(size_t(1), size_t(16),
                                           RaceReporter::DefaultCapacity));

//===----------------------------------------------------------------------===
// Fingerprint stability across pipeline configurations.
//===----------------------------------------------------------------------===

TEST(FingerprintDifferentialTest, StableAcrossDispatchShardsAndHookFilter) {
  // Dispatch mode, shard count and the hook-filter fast path all promise
  // byte-identical reports; the fingerprint multiset is the structural
  // form of that promise.  Record→replay rides the same oracle: the
  // trace carries sites, so replayed records fingerprint identically.
  struct Case {
    std::string Name;
    Program P;
    ToolConfig Cfg;
  };
  std::vector<Case> Cases;
  Cases.push_back({"figure2", testprogs::buildFigure2(/*SamePQ=*/false),
                   ToolConfig::full()});
  // Peeling can suppress the counter race (Section 7.2), so this case
  // runs the noPeeling ablation — every schedule reports.
  Cases.push_back({"counter_unlocked", testprogs::buildCounter(false, 30).P,
                   ToolConfig::noPeeling()});

  for (const Case &C : Cases) {
    TempPath Path("report-" + C.Name);
    ToolConfig Base = C.Cfg;
    Base.Seed = 7;
    Base.Dispatch = DispatchMode::Threaded;
    Base.RecordTracePath = Path.str();
    PipelineResult Want = runPipeline(C.P, Base);
    ASSERT_TRUE(Want.Run.Ok) << C.Name << ": " << Want.Run.Error;
    ASSERT_TRUE(Want.Trace.Ok) << Want.Trace.Error;
    ASSERT_FALSE(Want.Reports.empty())
        << C.Name << ": need a racy run for the differential to bite";
    std::vector<uint64_t> WantPrints = fingerprints(Want.Reports);

    auto expectSame = [&](const char *What, const PipelineResult &Got) {
      ASSERT_TRUE(Got.Run.Ok) << C.Name << " " << What << ": "
                              << Got.Run.Error;
      EXPECT_EQ(WantPrints, fingerprints(Got.Reports))
          << C.Name << " " << What;
    };

    ToolConfig Switch = C.Cfg;
    Switch.Seed = 7;
    Switch.Dispatch = DispatchMode::Switch;
    expectSame("switch-dispatch", runPipeline(C.P, Switch));

    ToolConfig Sharded = C.Cfg;
    Sharded.Seed = 7;
    Sharded.Shards = 2;
    expectSame("shards=2", runPipeline(C.P, Sharded));

    ToolConfig NoFilter = C.Cfg;
    NoFilter.Seed = 7;
    NoFilter.HookFilter = false;
    expectSame("hook-filter=off", runPipeline(C.P, NoFilter));

    ToolConfig Replay = C.Cfg;
    PipelineResult Replayed = replayTracePipeline(C.P, Replay, Path);
    ASSERT_TRUE(Replayed.Trace.Ok) << Replayed.Trace.Error;
    expectSame("replay", Replayed);
  }
}

TEST(FingerprintDifferentialTest, GroupCountsSumToTotal) {
  // The dedup invariant on a real run: group counts add up to every
  // report() call that was retained or count-bumped.
  PipelineResult R = runPipeline(testprogs::buildCounter(false, 30).P,
                                 ToolConfig::noPeeling());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Reports.empty());
  uint64_t Sum = 0;
  for (const RaceReporter::Group &G : R.Reports.groups()) {
    EXPECT_EQ(R.Reports.records()[G.FirstRecord].Fingerprint, G.Fingerprint);
    Sum += G.Count;
  }
  EXPECT_EQ(Sum + R.Reports.droppedRecords(), R.Reports.totalReported());
}

//===----------------------------------------------------------------------===
// Provenance on/off byte-identity of the race set, per backend.
//===----------------------------------------------------------------------===

TEST(ProvenanceDifferentialTest, HerdRaceSetIdenticalOnOff) {
  // The ProvenanceStore is a pure listener: with it on, the schedule, the
  // race records and the deduplicated entries must be byte-identical;
  // only the human lines gain indented detail.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  for (uint32_t Shards : {0u, 2u}) {
    ToolConfig Off = ToolConfig::full();
    Off.Seed = 5;
    Off.Shards = Shards;
    PipelineResult ROff = runPipeline(P, Off);
    ASSERT_TRUE(ROff.Run.Ok) << ROff.Run.Error;
    ASSERT_FALSE(ROff.Reports.empty());
    EXPECT_FALSE(ROff.ProvenanceOn);

    ToolConfig On = Off;
    On.Provenance = true;
    PipelineResult ROn = runPipeline(P, On);
    ASSERT_TRUE(ROn.Run.Ok) << ROn.Run.Error;
    EXPECT_TRUE(ROn.ProvenanceOn);
    EXPECT_GT(ROn.Provenance.accessesObserved(), 0u);

    EXPECT_EQ(ROff.Run.InstructionsExecuted, ROn.Run.InstructionsExecuted)
        << "shards=" << Shards << ": provenance must not perturb the run";
    EXPECT_EQ(fingerprints(ROff.Reports), fingerprints(ROn.Reports))
        << "shards=" << Shards;
    ASSERT_EQ(ROff.Entries.size(), ROn.Entries.size()) << "shards=" << Shards;
    for (size_t I = 0; I != ROff.Entries.size(); ++I) {
      EXPECT_EQ(ROff.Entries[I].Message, ROn.Entries[I].Message);
      EXPECT_EQ(ROff.Entries[I].Fingerprint, ROn.Entries[I].Fingerprint);
      EXPECT_EQ(ROff.Entries[I].Occurrences, ROn.Entries[I].Occurrences);
    }
    // The human lines are a superset: same first line, enrichment after.
    ASSERT_EQ(ROff.FormattedRaces.size(), ROn.FormattedRaces.size());
    bool Enriched = false;
    for (size_t I = 0; I != ROff.FormattedRaces.size(); ++I) {
      EXPECT_EQ(ROn.FormattedRaces[I].compare(0, ROff.FormattedRaces[I].size(),
                                              ROff.FormattedRaces[I]),
                0)
          << "enriched line must extend, not rewrite, the plain line";
      if (ROn.FormattedRaces[I].size() > ROff.FormattedRaces[I].size())
        Enriched = true;
    }
    if (Shards == 0) {
      EXPECT_TRUE(Enriched) << "provenance=on should add detail somewhere";
    }
  }
}

TEST(ProvenanceDifferentialTest, EpochRaceSetIdenticalOnOff) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Off = ToolConfig::full();
  Off.Seed = 5;
  Off.Backend = ToolConfig::DetectorBackend::Epoch;
  PipelineResult ROff = runPipeline(P, Off);
  ASSERT_TRUE(ROff.Run.Ok) << ROff.Run.Error;
  ASSERT_TRUE(ROff.EpochBackend);
  ASSERT_FALSE(ROff.FormattedRaces.empty());

  ToolConfig On = Off;
  On.Provenance = true;
  PipelineResult ROn = runPipeline(P, On);
  ASSERT_TRUE(ROn.Run.Ok) << ROn.Run.Error;
  EXPECT_TRUE(ROn.ProvenanceOn);

  EXPECT_EQ(ROff.Run.InstructionsExecuted, ROn.Run.InstructionsExecuted);
  EXPECT_EQ(ROff.FormattedRaces, ROn.FormattedRaces)
      << "epoch racy-location lines carry no provenance detail; the sets "
         "must match exactly";
  ASSERT_EQ(ROff.Entries.size(), ROn.Entries.size());
  for (size_t I = 0; I != ROff.Entries.size(); ++I)
    EXPECT_EQ(ROff.Entries[I].Fingerprint, ROn.Entries[I].Fingerprint);
}

TEST(ProvenanceDifferentialTest, VectorClockReplayIdenticalWithStore) {
  // Third backend family: a vector-clock baseline consuming a recorded
  // trace with and without a ProvenanceStore fanned out next to it.
  Program P = testprogs::buildCounter(/*Locked=*/false, 25).P;
  TempPath Path("report-vc");
  {
    TraceWriter Writer;
    ASSERT_TRUE(Writer.open(Path).Ok);
    InterpOptions Opts;
    Opts.Seed = 3;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(P, &Writer, Opts);
    ASSERT_TRUE(Interp.run().Ok);
    ASSERT_TRUE(Writer.close().Ok);
  }

  VectorClockDetector Alone;
  {
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Path).Ok);
    ASSERT_TRUE(Reader.replayInto(Alone).Ok);
  }

  VectorClockDetector WithStore;
  ProvenanceStore Prov;
  {
    FanoutHooks Fanout{&WithStore, &Prov};
    TraceReader Reader;
    ASSERT_TRUE(Reader.open(Path).Ok);
    ASSERT_TRUE(Reader.replayInto(Fanout).Ok);
  }

  EXPECT_FALSE(Alone.reportedLocations().empty())
      << "need a racy trace for the comparison to mean anything";
  EXPECT_EQ(Alone.reportedLocations(), WithStore.reportedLocations());
  EXPECT_GT(Prov.accessesObserved(), 0u);
}

TEST(ProvenanceDifferentialTest, ReplayPipelineCarriesProvenance) {
  // v1 traces record sites on every record, so provenance works offline:
  // a replayed run with --provenance=on enriches from the trace alone.
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  TempPath Path("report-replay-prov");
  ToolConfig Rec = ToolConfig::full();
  Rec.Seed = 5;
  Rec.RecordTracePath = Path.str();
  PipelineResult Live = runPipeline(P, Rec);
  ASSERT_TRUE(Live.Run.Ok);
  ASSERT_TRUE(Live.Trace.Ok) << Live.Trace.Error;

  ToolConfig Off = ToolConfig::full();
  PipelineResult ROff = replayTracePipeline(P, Off, Path);
  ASSERT_TRUE(ROff.Trace.Ok) << ROff.Trace.Error;

  ToolConfig On = Off;
  On.Provenance = true;
  PipelineResult ROn = replayTracePipeline(P, On, Path);
  ASSERT_TRUE(ROn.Trace.Ok) << ROn.Trace.Error;
  EXPECT_TRUE(ROn.ProvenanceOn);
  EXPECT_GT(ROn.Provenance.accessesObserved(), 0u);
  EXPECT_EQ(fingerprints(ROff.Reports), fingerprints(ROn.Reports));
}

//===----------------------------------------------------------------------===
// The report renderers.
//===----------------------------------------------------------------------===

TEST(ReportExportTest, JsonDocumentShapeAndContent) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Seed = 5;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());

  std::string Doc = renderReportJson(P, R);
  EXPECT_NE(Doc.find("\"schema\":\"herd-report\""), std::string::npos);
  EXPECT_NE(Doc.find("\"version\":1"), std::string::npos);
  EXPECT_NE(Doc.find("\"detector\":\"herd\""), std::string::npos);
  EXPECT_NE(Doc.find("\"rule\":\"herd/datarace\""), std::string::npos);
  EXPECT_NE(Doc.find("\"dropped_records\":0"), std::string::npos);
  EXPECT_EQ(Doc.back(), '\n');

  // Fingerprints travel as 16-digit hex strings (doubles corrupt them).
  char Hex[40];
  std::snprintf(Hex, sizeof(Hex), "\"fingerprint\":\"%016llx\"",
                (unsigned long long)R.Entries[0].Fingerprint);
  EXPECT_NE(Doc.find(Hex), std::string::npos) << Doc;

  // The document is a pure function of the result.
  EXPECT_EQ(Doc, renderReportJson(P, R));
}

TEST(ReportExportTest, SarifDocumentShapeAndContent) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Seed = 5;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());

  std::string Doc = renderReportSarif(P, R);
  EXPECT_NE(Doc.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(Doc.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(Doc.find("\"name\":\"herd\""), std::string::npos);
  EXPECT_NE(Doc.find("\"ruleId\":\"herd/datarace\""), std::string::npos);
  EXPECT_NE(Doc.find("\"partialFingerprints\""), std::string::npos);
  EXPECT_NE(Doc.find("\"herdRace/v1\""), std::string::npos);
  EXPECT_NE(Doc.find("\"level\":\"warning\""), std::string::npos);
  EXPECT_EQ(Doc, renderReportSarif(P, R));
}

TEST(ReportExportTest, CleanRunRendersEmptyResults) {
  Program P = testprogs::buildCounter(/*Locked=*/true, 20).P;
  PipelineResult R = runPipeline(P, ToolConfig::full());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_TRUE(R.Reports.empty());

  std::string Json = renderReportJson(P, R);
  EXPECT_NE(Json.find("\"distinct_races\":0"), std::string::npos);
  EXPECT_NE(Json.find("\"results\":[]"), std::string::npos);
  std::string Sarif = renderReportSarif(P, R);
  EXPECT_NE(Sarif.find("\"results\":[]"), std::string::npos);
}

TEST(ReportExportTest, EpochEntriesUseRacyLocationRule) {
  Program P = testprogs::buildFigure2(/*SamePQ=*/false);
  ToolConfig Cfg = ToolConfig::full();
  Cfg.Backend = ToolConfig::DetectorBackend::Epoch;
  PipelineResult R = runPipeline(P, Cfg);
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Entries.empty());
  for (const ReportEntry &E : R.Entries)
    EXPECT_EQ(E.EntryKind, ReportEntry::Kind::RacyLocation);

  std::string Json = renderReportJson(P, R);
  EXPECT_NE(Json.find("\"detector\":\"epoch\""), std::string::npos);
  EXPECT_NE(Json.find("\"rule\":\"herd/racy-location\""), std::string::npos);
  std::string Sarif = renderReportSarif(P, R);
  EXPECT_NE(Sarif.find("\"ruleId\":\"herd/racy-location\""),
            std::string::npos);
}

TEST(ReportExportTest, EntriesMatchReporterGroups) {
  // Entries are the groups, one-to-one, in first-seen order, with the
  // occurrence counts carried over.
  Program P = testprogs::buildCounter(/*Locked=*/false, 30).P;
  PipelineResult R = runPipeline(P, ToolConfig::noPeeling());
  ASSERT_TRUE(R.Run.Ok);
  ASSERT_FALSE(R.Reports.empty());
  size_t RaceEntries = 0;
  for (const ReportEntry &E : R.Entries)
    if (E.EntryKind == ReportEntry::Kind::Race)
      ++RaceEntries;
  ASSERT_EQ(RaceEntries, R.Reports.groups().size());
  size_t I = 0;
  for (const ReportEntry &E : R.Entries) {
    if (E.EntryKind != ReportEntry::Kind::Race)
      continue;
    EXPECT_EQ(E.Fingerprint, R.Reports.groups()[I].Fingerprint);
    EXPECT_EQ(E.Occurrences, R.Reports.groups()[I].Count);
    ++I;
  }
}

//===----------------------------------------------------------------------===
// Race lines against the concatenating formatter they replaced.
//===----------------------------------------------------------------------===

/// Joins \p Pieces with one allocation: how race lines were built before
/// the fixed-size line writer, kept here as the reference.
std::string concat(std::initializer_list<std::string_view> Pieces) {
  size_t Size = 0;
  for (std::string_view Piece : Pieces)
    Size += Piece.size();
  std::string Out;
  Out.reserve(Size);
  for (std::string_view Piece : Pieces)
    Out += Piece;
  return Out;
}

/// The reference race line of \p Rec from a replay, which has no heap to
/// name classes from; its earlier access held \p PriorLocks.
std::string referenceLine(const Program &P, const RaceRecord &Rec,
                          std::span<const LockId> PriorLocks) {
  uint32_t FieldBits = uint32_t(Rec.Location.raw() & 0xFFFFFFFF);
  bool HasField = FieldBits < P.numFields();
  bool KnownSite =
      Rec.CurrentSite.isValid() && Rec.CurrentSite.index() < P.numSites();
  size_t RealLocks = 0;
  bool HasDummy = false;
  for (LockId Lock : PriorLocks) {
    if (Lock.index() >= FirstDummyLock)
      HasDummy = true;
    else
      ++RealLocks;
  }
  auto Access = [](AccessKind Kind) {
    return Kind == AccessKind::Write ? "write" : "read";
  };
  return concat(
      {"race on object #", std::to_string(Rec.Location.object().index()),
       HasField ? " field " : "",
       HasField ? P.Names.text(P.field(FieldId(FieldBits)).Name) : "",
       ": ", Access(Rec.CurrentAccess), " by thread ",
       std::to_string(Rec.CurrentThread.index()), KnownSite ? " at " : "",
       KnownSite ? P.Names.text(P.site(Rec.CurrentSite).Label) : "",
       " conflicts with earlier ", Access(Rec.PriorAccess),
       Rec.PriorThreadKnown ? " by thread "
                            : " (thread unknown: multiple earlier threads)",
       Rec.PriorThreadKnown ? std::to_string(Rec.PriorThread.index()) : "",
       " holding ", std::to_string(RealLocks), " lock(s)",
       HasDummy ? " (+join ordering)" : ""});
}

TEST(RaceLineTest, LinesMatchTheConcatenatingReference) {
  // Names longer than the line writer's stack buffer, so those lines take
  // its heap buffer.
  const std::string LongField(1500, 'f');
  const std::string LongSite(1500, 's');
  Program P;
  IRBuilder B(P);
  ClassId Shared = B.makeClass("Shared");
  B.makeField(Shared, "x");
  B.makeField(Shared, LongField);
  MethodId Main = B.startMain();
  P.addSite("S0", Main);
  P.addSite(LongSite, Main);
  B.emitReturn();
  const SiteId Undeclared(999);

  // Threads 1..3 from thread 0, which holds no dummy join lock of its own.
  TempPath Path("race-lines");
  TraceWriter W;
  ASSERT_TRUE(W.open(Path).Ok);
  for (uint32_t T = 1; T <= 3; ++T)
    W.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));
  auto Access = [&](uint32_t T, uint32_t Object, uint32_t Field,
                    AccessKind Kind, SiteId Site) {
    W.onAccess(ThreadId(T), LocationKey::forField(ObjectId(Object),
                                                  FieldId(Field)),
               Kind, Site);
  };
  // The long field at the long site.
  Access(1, 10, 1, AccessKind::Write, SiteId(1));
  Access(2, 10, 1, AccessKind::Write, SiteId(1));
  // A current access at a site the program does not declare.
  Access(2, 11, 0, AccessKind::Read, SiteId(0));
  Access(1, 11, 0, AccessKind::Write, Undeclared);
  // Two threads read under lock 5, then a third writes: without dummy
  // locks the two reads meet into one access whose thread is unknown.
  for (uint32_t T = 1; T <= 2; ++T) {
    W.onMonitorEnter(ThreadId(T), LockId(5), false, SiteId(0));
    Access(T, 12, 0, AccessKind::Read, SiteId(0));
    W.onMonitorExit(ThreadId(T), LockId(5), false);
  }
  Access(3, 12, 0, AccessKind::Write, SiteId(1));
  // An earlier access under a program lock alone (thread 0's).
  W.onMonitorEnter(ThreadId(0), LockId(7), false, SiteId(0));
  Access(0, 13, 0, AccessKind::Write, SiteId(0));
  W.onMonitorExit(ThreadId(0), LockId(7), false);
  Access(1, 13, 0, AccessKind::Read, SiteId(1));
  ASSERT_TRUE(W.close().Ok);

  // Without ownership, so the first access to each location is stored.
  ToolConfig Plain = ToolConfig::noOwnership();
  ToolConfig NoJoin = ToolConfig::noOwnership();
  NoJoin.ModelJoin = false;
  ToolConfig Prov = ToolConfig::noOwnership();
  Prov.Provenance = true;
  bool SawHeapLine = false, SawUndeclared = false, SawUnknownThread = false,
       SawDummy = false, SawLockWithoutDummy = false, SawDetail = false;
  PipelineResult PlainRun;
  for (const ToolConfig *Cfg : {&Plain, &NoJoin, &Prov}) {
    PipelineResult R = replayTracePipeline(P, *Cfg, Path);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    const RaceReporter &Reports = R.Reports;
    ASSERT_EQ(R.FormattedRaces.size(), Reports.size());
    ASSERT_GE(Reports.size(), 4u);
    if (Cfg == &Prov) {
      ASSERT_EQ(Reports.size(), PlainRun.FormattedRaces.size());
    }
    for (size_t I = 0; I != Reports.size(); ++I) {
      const RaceRecord &Rec = Reports.records()[I];
      std::string Want =
          referenceLine(P, Rec, Reports.locks(Rec.PriorLocks));
      const std::string &Got = R.FormattedRaces[I];
      if (Cfg == &Prov) {
        // The provenance detail follows the line as continuation text.
        ASSERT_EQ(Got.substr(0, Want.size()), Want) << "record " << I;
        if (Got.size() != Want.size()) {
          EXPECT_EQ(Got.compare(Want.size(), 5, "\n    "), 0) << Got;
          SawDetail = true;
        }
        EXPECT_EQ(Want, PlainRun.FormattedRaces[I]) << "record " << I;
        continue;
      }
      EXPECT_EQ(Got, Want) << "record " << I;
      SawHeapLine |= Got.size() > LongField.size() + LongSite.size();
      SawUndeclared |= Rec.CurrentSite == Undeclared;
      SawUnknownThread |= !Rec.PriorThreadKnown;
      SawDummy |= Got.find("(+join ordering)") != std::string::npos;
      SawLockWithoutDummy |=
          Got.find("holding 1 lock(s)") != std::string::npos &&
          Got.find("(+join ordering)") == std::string::npos;
    }
    // Each group's entry carries its first record's line.
    size_t G = 0;
    for (const ReportEntry &E : R.Entries) {
      if (E.EntryKind != ReportEntry::Kind::Race)
        continue;
      const RaceReporter::Group &Group = Reports.groups()[G++];
      const RaceRecord &Rec = Reports.records()[Group.FirstRecord];
      EXPECT_EQ(E.Message,
                referenceLine(P, Rec, Reports.locks(Rec.PriorLocks)));
    }
    EXPECT_EQ(G, Reports.groups().size());
    if (Cfg == &Plain)
      PlainRun = std::move(R);
  }
  EXPECT_TRUE(SawHeapLine);
  EXPECT_TRUE(SawUndeclared);
  EXPECT_TRUE(SawUnknownThread);
  EXPECT_TRUE(SawDummy);
  EXPECT_TRUE(SawLockWithoutDummy);
  EXPECT_TRUE(SawDetail);
}

} // namespace
