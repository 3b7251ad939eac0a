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
/// Definition 1 coverage checks against the exact oracle hold at any cap:
/// the detector flags its first report at each location, which goes on a
/// location list whether or not its record is kept.
///
/// A record is 48 bytes and trivially copyable: it names its two locksets
/// by their 4-byte ids in the detection run's LockSetInterner
/// (support/LockSetInterner.h), which the reporter holding the record
/// shares, and reads them back through RaceReporter::locks().  Streams that
/// race on nearly every event (bench_hotpath's refhot) then append, grow
/// and free records as plain bytes, and no report copies a lock.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_RACEREPORT_H
#define HERD_DETECT_RACEREPORT_H

#include "detect/AccessEvent.h"
#include "support/LockSetInterner.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace herd {

/// One reported race.
struct RaceRecord {
  LocationKey Location;

  /// Stable identity of this race, raceFingerprint(*this); set when the
  /// reporter takes the record (RaceReporter::claim or report).
  uint64_t Fingerprint = 0;

  // The access that triggered the report (reported at the moment it
  // occurs, so a debugger could suspend the program here — Section 2.6).
  ThreadId CurrentThread;
  SiteId CurrentSite;
  LockSetId CurrentLocks = LockSetInterner::emptySet(); ///< RaceReporter::locks

  // What is known about the earlier conflicting access.
  ThreadId PriorThread;           ///< valid iff PriorThreadKnown
  SiteId PriorSite;               ///< invalid when the trie lost it
  LockSetId PriorLocks = LockSetInterner::emptySet(); ///< RaceReporter::locks

  AccessKind CurrentAccess = AccessKind::Read;
  AccessKind PriorAccess = AccessKind::Read;
  bool PriorThreadKnown = false;
};

static_assert(std::is_trivially_copyable_v<RaceRecord>,
              "records grow and merge as plain bytes");
static_assert(sizeof(RaceRecord) == 48, "a race record is 48 bytes");

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

/// Whether a report is the first at its location: a Yes too many folds
/// away in the location set, a Yes missing loses the location.
enum class FirstAtLocation : bool { No, Yes };

/// Collects race records, dedups them by fingerprint with occurrence
/// counts, and answers the counting queries used by the Table 3
/// experiments in amortized O(1): each retained record and each listed
/// location is folded into its index exactly once, *lazily* on the first
/// query that needs it, so the detector-facing report() stays a few
/// appends — the hot path on racy streams, where nearly every event can
/// produce a report (bench_hotpath's refhot stream).
///
/// The reporter shares ownership of the interner its records' lockset ids
/// name (useLocksets()), so the sets outlive the detection runtime that
/// made them; copies share it too, and clear() keeps it.  A record is only
/// meaningful next to a reporter of its interner.
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

  /// Makes \p Sets the interner of this reporter's lockset ids.  The
  /// reporter must hold no record of another interner's.
  void useLocksets(std::shared_ptr<LockSetInterner> Sets) {
    assert((!Locksets || Locksets == Sets || Records.empty()) &&
           "records would change interner");
    Locksets = std::move(Sets);
  }

  /// The interner of this reporter's lockset ids, or null before any set
  /// was named.
  const LockSetInterner *locksets() const { return Locksets.get(); }

  /// Starts the report of a race at \p Location whose fingerprint is
  /// \p Fingerprint.  Below the cap it returns the new record, with those
  /// two fields set, for the caller to fill in place (its lockset ids from
  /// locksets()); past the cap it counts the fingerprint and returns null.
  RaceRecord *claim(LocationKey Location, uint64_t Fingerprint,
                    FirstAtLocation First) {
    // The cap bounds record *retention*, not the location list: a known
    // fingerprint does not imply a known location (it drops the object).
    if (First == FirstAtLocation::Yes)
      LocationList.push_back(Location);
    if (Records.size() >= Capacity) {
      // Past the cap the index must be current to tell a known bug
      // (count bump) from a novel fingerprint (honest drop counter).
      fold();
      count(Fingerprint, 1);
      return nullptr;
    }
    ++TotalReported;
    RaceRecord &Kept = Records.emplace_back();
    Kept.Location = Location;
    Kept.Fingerprint = Fingerprint;
    return &Kept;
  }

  /// Reports \p Record, whose fingerprint is set, with the sorted locksets
  /// \p Current and \p Prior, interned into this reporter's interner (one
  /// is made on first need); its own lockset ids are ignored.  Producer-
  /// side only, like interning.
  void report(const RaceRecord &Record, FirstAtLocation First,
              std::span<const LockId> Current,
              std::span<const LockId> Prior) {
    assert(Record.Fingerprint == raceFingerprint(Record) &&
           "report() needs the record's fingerprint");
    RaceRecord Copy = Record; // claim() may move records(), Record's home
    if (RaceRecord *Kept = claim(Copy.Location, Copy.Fingerprint, First)) {
      *Kept = Copy;
      Kept->CurrentLocks = intern(Current);
      Kept->PriorLocks = intern(Prior);
    }
  }

  /// Reports a fingerprinted \p R with no locks, first at its location.
  void report(const RaceRecord &R) { report(R, FirstAtLocation::Yes, {}, {}); }

  const std::vector<RaceRecord> &records() const { return Records; }
  bool empty() const { return Records.empty(); }
  size_t size() const { return Records.size(); }

  /// Calls \p F with each lock of \p Set, a lockset of one of
  /// records(), in ascending order.
  template <class Fn> void forEachLock(LockSetId Set, Fn &&F) const {
    if (Set != LockSetInterner::emptySet())
      Locksets->forEachLock(Set, F);
  }

  /// The locks of \p Set, a lockset of one of records(), in ascending
  /// order.
  std::vector<LockId> locks(LockSetId Set) const {
    std::vector<LockId> Out;
    forEachLock(Set, [&Out](LockId Lock) { Out.push_back(Lock); });
    return Out;
  }

  void clear() {
    Records.clear();
    Groups.clear();
    GroupIndex.clear();
    LocationList.clear();
    Locations.clear();
    Indexed = 0;
    ObjectCount = 0;
    Folded = 0;
    Dropped = 0;
    TotalReported = 0;
  }

  /// Distinct logical memory locations with at least one report.
  size_t countDistinctLocations() const { return reportedLocations().size(); }

  /// Distinct *objects* with at least one report — the measure of Table 3
  /// ("here we count only the number of distinct objects mentioned").
  size_t countDistinctObjects() const {
    reportedLocations();
    return ObjectCount;
  }

  /// The distinct locations reported, for set-equality tests against the
  /// exact oracle; folds in the locations listed since the last query.
  const std::set<LocationKey> &reportedLocations() const {
    for (; Indexed != LocationList.size(); ++Indexed)
      insertLocation(LocationList[Indexed]);
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
  /// cap, with their lockset ids unchanged when both reporters share an
  /// interner (as the sharded runtime's do; a reporter without one adopts
  /// the other's) and re-interned here otherwise; occurrence counts carry
  /// over (including the other reporter's
  /// own past-cap bumps), the location list gains the locations it lacks,
  /// and the drop/total counters add up.  The sharded runtime merges its
  /// per-shard reporters with this, so per-shard caps never truncate the
  /// merged location set.
  void merge(const RaceReporter &Other) {
    assert(&Other != this && "a reporter cannot merge itself");
    // Locations first: every record retained below must find its own.
    reportedLocations();
    for (LocationKey Location : Other.LocationList)
      if (insertLocation(Location))
        LocationList.push_back(Location);
    Indexed = LocationList.size();
    Other.fold();
    // How many of each of the other reporter's groups it retained as
    // records (vs counted past its cap) — needed below to carry the count
    // excess without double-counting the records.
    std::vector<uint64_t> Retained(Other.Groups.size());
    if (!Locksets)
      Locksets = Other.Locksets;
    const bool Shared = Other.Locksets == Locksets || !Other.Locksets;
    for (const RaceRecord &Rec : Other.Records) {
      ++Retained[Other.GroupIndex.find(Rec.Fingerprint)];
      if (Records.size() < Capacity) {
        RaceRecord &Kept = Records.emplace_back(Rec);
        if (!Shared) {
          Kept.CurrentLocks = intern(Other.locks(Rec.CurrentLocks));
          Kept.PriorLocks = intern(Other.locks(Rec.PriorLocks));
        }
        ++TotalReported;
      } else {
        fold();
        count(Rec.Fingerprint, 1);
      }
    }
    fold();
    for (size_t I = 0; I != Other.Groups.size(); ++I) {
      const Group &G = Other.Groups[I];
      // Occurrences the other reporter counted past its cap.
      if (G.Count > Retained[I])
        count(G.Fingerprint, G.Count - Retained[I]);
    }
    // Its drops are the only reports not yet counted here.
    Dropped += Other.Dropped;
    TotalReported += Other.Dropped;
    assert(checkInvariants() && "reporter invariant broken");
  }

  /// Reports whose fingerprint was new after the cap was hit — the
  /// honest truncation counter surfaced in the report document.
  uint64_t droppedRecords() const { return Dropped; }

  /// Every report() call, retained or not, duplicates included.
  uint64_t totalReported() const { return TotalReported; }

  size_t capacity() const { return Capacity; }

  /// Invariants, asserted after merge() and after every fold() that folds
  /// records, in builds without NDEBUG: every record carries its
  /// fingerprint, names locksets its interner holds and has its location
  /// listed; the fingerprint index finds every group at its own position;
  /// and once every record is folded, group counts plus droppedRecords()
  /// equal totalReported().
  bool checkInvariants() const {
    auto Stored = [this](LockSetId Set) {
      return Set == LockSetInterner::emptySet() ||
             (Locksets && Set.index() < Locksets->size());
    };
    std::vector<LocationKey> Listed = LocationList;
    std::sort(Listed.begin(), Listed.end());
    for (const RaceRecord &Rec : Records)
      if (Rec.Fingerprint != raceFingerprint(Rec) ||
          !Stored(Rec.CurrentLocks) || !Stored(Rec.PriorLocks) ||
          !std::binary_search(Listed.begin(), Listed.end(), Rec.Location))
        return false;
    uint64_t Counted = Dropped;
    for (size_t I = 0; I != Groups.size(); ++I) {
      if (GroupIndex.find(Groups[I].Fingerprint) != I)
        return false;
      Counted += Groups[I].Count;
    }
    return Folded != Records.size() || Counted == TotalReported;
  }

private:
  /// An open-addressed map from fingerprint to group index, like
  /// LocationTable: a power-of-two slot array, linear probing, growth at
  /// 3/4 load, insert-only.  Fingerprints are SplitMix64 outputs, so their
  /// low bits pick the slot unmixed.  An empty slot holds group None.
  class GroupTable {
  public:
    static constexpr uint32_t None = 0xFFFFFFFF;

    /// The group of \p Fingerprint, or None.
    uint32_t find(uint64_t Fingerprint) const {
      if (Slots.empty())
        return None;
      return Slots[slotOf(Fingerprint)].Group;
    }

    /// The group of \p Fingerprint; maps it to \p Group first if absent.
    /// The bool is true when it was absent.
    std::pair<uint32_t, bool> tryInsert(uint64_t Fingerprint,
                                        uint32_t Group) {
      if (Count + 1 > (Slots.size() / 4) * 3)
        rehash(Slots.empty() ? 64 : Slots.size() * 2);
      Slot &S = Slots[slotOf(Fingerprint)];
      if (S.Group != None)
        return {S.Group, false};
      S = Slot{Fingerprint, Group};
      ++Count;
      return {Group, true};
    }

    void clear() {
      Slots.clear();
      Count = 0;
    }

  private:
    struct Slot {
      uint64_t Fingerprint = 0;
      uint32_t Group = None;
    };

    /// The slot holding \p Fingerprint, or the empty slot ending its probe.
    size_t slotOf(uint64_t Fingerprint) const {
      size_t Mask = Slots.size() - 1;
      size_t I = size_t(Fingerprint) & Mask;
      while (Slots[I].Group != None && Slots[I].Fingerprint != Fingerprint)
        I = (I + 1) & Mask;
      return I;
    }

    void rehash(size_t NewCapacity) {
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(NewCapacity, Slot());
      for (const Slot &S : Old)
        if (S.Group != None)
          Slots[slotOf(S.Fingerprint)] = S;
    }

    std::vector<Slot> Slots;
    size_t Count = 0;
  };

  /// The id of the sorted set \p Locks in this reporter's interner, made
  /// on first need.
  LockSetId intern(std::span<const LockId> Locks) {
    if (Locks.empty())
      return LockSetInterner::emptySet();
    if (!Locksets)
      Locksets = std::make_shared<LockSetInterner>();
    LockSetId Id = LockSetInterner::emptySet();
    for (LockId Lock : Locks)
      Id = Locksets->withLock(Id, Lock);
    return Id;
  }

  /// Counts \p N reports of \p Fingerprint that keep no record: on its
  /// group when the fingerprint is known, as dropped otherwise.  The
  /// indexes must be folded.
  void count(uint64_t Fingerprint, uint64_t N) {
    uint32_t G = GroupIndex.find(Fingerprint);
    if (G != GroupTable::None)
      Groups[G].Count += N; // known bug, full record dropped
    else
      Dropped += N; // novel fingerprint lost to the cap: never silent
    TotalReported += N;
  }

  /// Folds records [Folded, size()) into the fingerprint index.
  void fold() const {
    if (Folded == Records.size())
      return;
    for (; Folded != Records.size(); ++Folded) {
      const RaceRecord &Record = Records[Folded];
      auto [G, Inserted] =
          GroupIndex.tryInsert(Record.Fingerprint, uint32_t(Groups.size()));
      if (Inserted)
        Groups.push_back(Group{Record.Fingerprint, uint32_t(Folded), 1});
      else
        ++Groups[G].Count;
    }
    assert(checkInvariants() && "reporter invariant broken");
  }

  /// Adds \p Location to the distinct location set and object count;
  /// returns whether it was new.
  bool insertLocation(LocationKey Location) const {
    auto [It, Inserted] = Locations.insert(Location);
    if (!Inserted)
      return false;
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
    return true;
  }

  size_t Capacity;
  std::vector<RaceRecord> Records;
  /// The interner of the records' lockset ids; null until one is named.
  std::shared_ptr<LockSetInterner> Locksets;
  mutable std::vector<Group> Groups;
  mutable GroupTable GroupIndex; ///< fingerprint -> index into Groups
  /// Each location's first report; repeats fold away in Locations.
  std::vector<LocationKey> LocationList;
  mutable std::set<LocationKey> Locations; ///< LocationList[0, Indexed)
  mutable size_t Indexed = 0;
  mutable size_t ObjectCount = 0; ///< distinct objects in Locations
  mutable size_t Folded = 0;
  uint64_t Dropped = 0;
  uint64_t TotalReported = 0;
};

} // namespace herd

#endif // HERD_DETECT_RACEREPORT_H
