//===- detect/RaceReport.h - Race records and collection --------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Race reports.  Per Definition 1, the detector reports at least one
/// racing access event for every memory location involved in a race; each
/// report pairs the current access with what is known about a prior
/// conflicting access (its lockset, its site, and its thread when the t_⊥
/// space optimization has not erased it — Section 2.6).
///
/// Reports carry a stable *fingerprint* (docs/REPORTS.md): a 64-bit hash
/// of the normalized location kind (the field/array component, dropping
/// the run-specific object index) and the two access (site, kind) pairs in
/// canonical order.  Two reports of the same source-level bug — same field,
/// same pair of statements — fingerprint identically across runs, seeds,
/// shard counts and detector backends, which is what lets the reporter
/// dedup with occurrence counts and lets CI diff race sets structurally.
///
/// RaceReporter is bounded: at most Capacity full records are retained.
/// Past the cap, reports whose fingerprint is already known only bump that
/// fingerprint's occurrence count; genuinely new fingerprints are counted
/// in droppedRecords() so truncation is always visible, never silent.
/// The counting queries (distinct locations/objects) stay exact past the
/// cap — only full records are shed, never set membership — so the
/// Definition 1 coverage checks against the exact oracle hold at any cap.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_RACEREPORT_H
#define HERD_DETECT_RACEREPORT_H

#include "detect/AccessEvent.h"
#include "support/FlatTable.h"

#include <cstdint>
#include <iterator>
#include <set>
#include <unordered_map>
#include <vector>

namespace herd {

/// One reported race.
struct RaceRecord {
  LocationKey Location;

  // The access that triggered the report (reported at the moment it
  // occurs, so a debugger could suspend the program here — Section 2.6).
  ThreadId CurrentThread;
  AccessKind CurrentAccess = AccessKind::Read;
  RaceLockSet CurrentLocks;
  SiteId CurrentSite;

  // What is known about the earlier conflicting access.
  bool PriorThreadKnown = false;
  ThreadId PriorThread;           ///< valid iff PriorThreadKnown
  AccessKind PriorAccess = AccessKind::Read;
  RaceLockSet PriorLocks;
  SiteId PriorSite;               ///< invalid when the trie lost it

  /// Stable identity of this race (see raceFingerprint); filled in by
  /// RaceReporter::report.
  uint64_t Fingerprint = 0;
};

/// SplitMix64 finalizer — the mixing step of the fingerprint hash.
inline uint64_t fingerprintMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The stable race fingerprint (docs/REPORTS.md): hashes the normalized
/// location kind — the field/array component of \p Location, dropping the
/// run-specific object index — together with both access (site, kind)
/// pairs.  The pairs are ordered canonically (smaller (site, kind) first)
/// so an A-vs-B report and the same bug observed B-vs-A collapse to one
/// fingerprint.  Invalid sites participate as the invalid index, so
/// site-less reports (workload replays of old traces) still fingerprint
/// deterministically.
inline uint64_t raceFingerprint(LocationKey Location, SiteId SiteA,
                                AccessKind KindA, SiteId SiteB,
                                AccessKind KindB) {
  uint64_t A = (uint64_t(SiteA.index()) << 1) | uint64_t(KindA);
  uint64_t B = (uint64_t(SiteB.index()) << 1) | uint64_t(KindB);
  if (B < A) {
    uint64_t T = A;
    A = B;
    B = T;
  }
  uint64_t H = fingerprintMix(uint64_t(uint32_t(Location.raw())));
  H = fingerprintMix(H ^ A);
  H = fingerprintMix(H ^ B);
  return H;
}

inline uint64_t raceFingerprint(const RaceRecord &R) {
  return raceFingerprint(R.Location, R.CurrentSite, R.CurrentAccess,
                         R.PriorSite, R.PriorAccess);
}

/// Collects race records, dedups them by fingerprint with occurrence
/// counts, and answers the counting queries used by the Table 3
/// experiments in amortized O(1): each retained record is folded into the
/// dedup/counting indexes exactly once, *lazily* on the first query after
/// it arrived, so the detector-facing report() stays a fingerprint hash
/// plus a vector append — the hot path on racy streams, where nearly
/// every event can produce a report (bench_hotpath's refhot stream).
///
/// Queries are const but fold pending records under the hood (mutable
/// indexes); like the detection runtimes themselves, the reporter is not
/// meant for concurrent use — queries happen after the drain barrier.
class RaceReporter {
public:
  /// Default cap on retained full records — far above any workload's
  /// report count, so behaviour below the cap is exactly the unbounded
  /// reporter's (records() keeps every report, duplicates included).
  static constexpr size_t DefaultCapacity = 1u << 16;

  /// One fingerprint's aggregate: its first retained record and how many
  /// times it was reported (duplicates included, capped reports included).
  struct Group {
    uint64_t Fingerprint = 0;
    uint32_t FirstRecord = 0; ///< index into records()
    uint64_t Count = 0;
  };

  explicit RaceReporter(size_t Capacity = DefaultCapacity)
      : Capacity(Capacity) {}

  void report(RaceRecord Record) {
    Record.Fingerprint = raceFingerprint(Record);
    ++TotalReported;
    if (Records.size() >= Capacity) {
      // Past the cap the indexes must be current to tell a known bug
      // (count bump) from a novel fingerprint (honest drop counter).
      fold();
      // The cap bounds record *retention*, not counting: the distinct
      // location/object sets stay exact (a known fingerprint does not
      // imply a known location — fingerprints drop the object index),
      // so reportedLocations() still matches the unbounded oracle.
      noteLocation(Record.Location);
      auto It = GroupIndex.find(Record.Fingerprint);
      if (It != GroupIndex.end())
        ++Groups[It->second].Count; // known bug, full record dropped
      else
        ++Dropped; // novel fingerprint lost to the cap: never silent
      return;
    }
    Records.push_back(std::move(Record));
  }

  const std::vector<RaceRecord> &records() const { return Records; }
  bool empty() const { return Records.empty(); }
  size_t size() const { return Records.size(); }

  void clear() {
    Records.clear();
    Groups.clear();
    GroupIndex.clear();
    Locations.clear();
    LocationIndex = LocationTable<bool>();
    ObjectCount = 0;
    Folded = 0;
    Dropped = 0;
    TotalReported = 0;
  }

  /// Distinct logical memory locations with at least one report.
  size_t countDistinctLocations() const {
    fold();
    return Locations.size();
  }

  /// Distinct *objects* with at least one report — the measure of Table 3
  /// ("here we count only the number of distinct objects mentioned").
  size_t countDistinctObjects() const {
    fold();
    return ObjectCount;
  }

  /// The distinct locations reported, for set-equality tests against the
  /// exact oracle.
  const std::set<LocationKey> &reportedLocations() const {
    fold();
    return Locations;
  }

  /// Deduplicated fingerprint groups in first-seen order.
  const std::vector<Group> &groups() const {
    fold();
    return Groups;
  }

  /// Folds another reporter's findings into this one, preserving the
  /// bounded-retention semantics as if every one of its reports had been
  /// delivered here directly: records are retained up to this reporter's
  /// cap, occurrence counts carry over (including the other reporter's
  /// own past-cap bumps), the distinct location/object sets stay exact,
  /// and the drop/total counters add up.  The sharded runtime merges its
  /// per-shard reporters with this — per-shard caps must not truncate
  /// the merged location set on report-saturated streams.
  void merge(const RaceReporter &Other) {
    Other.fold();
    // How many of each fingerprint's occurrences the other reporter
    // retained as records (vs counted past its cap) — needed below to
    // carry the count excess without double-counting the records.
    std::unordered_map<uint64_t, uint64_t> Retained;
    for (const RaceRecord &Rec : Other.Records) {
      ++Retained[Rec.Fingerprint];
      if (Records.size() < Capacity) {
        Records.push_back(Rec);
      } else {
        fold();
        auto It = GroupIndex.find(Rec.Fingerprint);
        if (It != GroupIndex.end())
          ++Groups[It->second].Count;
        else
          ++Dropped;
      }
    }
    fold();
    for (const Group &G : Other.Groups) {
      uint64_t Kept = Retained[G.Fingerprint];
      if (G.Count <= Kept)
        continue; // every occurrence rode along with a record above
      uint64_t Excess = G.Count - Kept;
      auto It = GroupIndex.find(G.Fingerprint);
      if (It != GroupIndex.end())
        Groups[It->second].Count += Excess;
      else
        Dropped += Excess;
    }
    for (LocationKey Location : Other.Locations)
      noteLocation(Location);
    Dropped += Other.Dropped;
    TotalReported += Other.TotalReported;
  }

  /// Reports whose fingerprint was new after the cap was hit — the
  /// honest truncation counter surfaced in the report document.
  uint64_t droppedRecords() const { return Dropped; }

  /// Every report() call, retained or not, duplicates included.
  uint64_t totalReported() const { return TotalReported; }

  size_t capacity() const { return Capacity; }

private:
  /// Folds records [Folded, size()) into the dedup/counting indexes.
  void fold() const {
    for (; Folded != Records.size(); ++Folded) {
      const RaceRecord &Record = Records[Folded];
      auto It = GroupIndex.find(Record.Fingerprint);
      if (It != GroupIndex.end()) {
        ++Groups[It->second].Count;
      } else {
        GroupIndex.emplace(Record.Fingerprint, uint32_t(Groups.size()));
        Groups.push_back(Group{Record.Fingerprint, uint32_t(Folded), 1});
      }
      noteLocation(Record.Location);
    }
  }

  /// Adds \p Location to the distinct location set and object count.  The
  /// flat index answers "seen before?" in one probe, so only a new location
  /// pays for the sorted set.  The all-ones key is the index's empty-slot
  /// sentinel and goes straight to the set.
  void noteLocation(LocationKey Location) const {
    if (Location != LocationKey() &&
        !LocationIndex.tryEmplace(Location).second)
      return;
    auto [It, Inserted] = Locations.insert(Location);
    if (!Inserted)
      return;
    // The object is a key's high word, so an object's keys are adjacent in
    // the set: the location is a new object's iff neither neighbour shares
    // its object.
    ObjectId Object = Location.object();
    bool Known = (It != Locations.begin() &&
                  std::prev(It)->object() == Object) ||
                 (std::next(It) != Locations.end() &&
                  std::next(It)->object() == Object);
    if (!Known)
      ++ObjectCount;
  }

  size_t Capacity;
  std::vector<RaceRecord> Records;
  mutable std::vector<Group> Groups;
  mutable std::unordered_map<uint64_t, uint32_t> GroupIndex;
  mutable std::set<LocationKey> Locations;
  mutable LocationTable<bool> LocationIndex; ///< membership of Locations
  mutable size_t ObjectCount = 0;            ///< distinct objects in Locations
  mutable size_t Folded = 0;
  uint64_t Dropped = 0;
  uint64_t TotalReported = 0;
};

} // namespace herd

#endif // HERD_DETECT_RACEREPORT_H
