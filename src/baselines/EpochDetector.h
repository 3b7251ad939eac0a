//===- baselines/EpochDetector.h - Epoch happens-before detector -*- C++ -*-=//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An epoch-optimized happens-before race detector in the FastTrack
/// lineage (PAPERS.md, arXiv 1905.00494): the drop-in replacement for
/// VectorClockDetector that turns the O(T) vector-clock comparison on
/// every access into an O(1) epoch comparison in the overwhelmingly
/// common case.
///
/// A location's last write is a single *epoch* — `(thread-slot, clock)`
/// packed into one 64-bit word — because writes to a race-free location
/// are totally ordered.  Reads keep a single epoch too until two reads
/// are genuinely concurrent, at which point the read state *inflates*
/// into a pooled vector clock (support/ClockStore.h) and collapses back
/// to an epoch at the next ordered write.  Same-epoch repeats (thread
/// re-accesses a location with no intervening sync) return after one
/// 64-bit compare.
///
/// Race reporting is location-set equivalent to VectorClockDetector on
/// every event stream the hooks can deliver: both insert a location into
/// a reported set at its first race, and the FastTrack argument (writes
/// totally ordered until the first racing write, which is itself
/// reported) carries over — pinned by the differential suites in
/// tests/baselines_test.cpp, tests/corpus_test.cpp, and
/// tests/fuzz_test.cpp, and by the docs/DETECTORS.md discussion.
///
/// Epoch encoding: bits [0,20) hold a dense thread slot assigned in
/// first-appearance order (so arbitrary ThreadIds cost nothing), bits
/// [20,63) hold the clock, and bit 63 distinguishes an inflated read
/// state (low 32 bits then hold a ClockStore row handle).  The zero
/// epoch — slot 0 at clock 0 — is a natural bottom: it is ordered
/// before everything, exactly like the all-zero vector clock the
/// baseline starts from, so no sentinel is needed.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_BASELINES_EPOCHDETECTOR_H
#define HERD_BASELINES_EPOCHDETECTOR_H

#include "detect/DetectorPlan.h"
#include "runtime/Hooks.h"
#include "support/ClockStore.h"
#include "support/FlatTable.h"
#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <set>
#include <vector>

namespace herd {

/// Counters behind the `epoch` stats section (`--stats[=json]`).
struct EpochStats {
  uint64_t Events = 0;          ///< accesses seen
  uint64_t Reads = 0;           ///< read accesses
  uint64_t Writes = 0;          ///< write accesses
  uint64_t SameEpochReads = 0;  ///< reads retired by the one-compare path
  uint64_t SameEpochWrites = 0; ///< writes retired by the one-compare path
  uint64_t ReadInflations = 0;  ///< read epoch -> shared vector clock
  uint64_t SharedCollapses = 0; ///< shared read state released by a write
  uint64_t RacesReported = 0;   ///< distinct racy locations
  uint64_t LocationsTracked = 0;
  uint64_t ThreadsSeen = 0;
  uint64_t ClockRowsFresh = 0;  ///< ClockStore rows allocated from new storage
  uint64_t ClockRowsReused = 0; ///< ClockStore rows recycled via the free list
};

/// The epoch-based happens-before detector (`--detector=epoch`).
class EpochDetector : public RuntimeHooks {
public:
  /// Bits of the packed epoch word holding the dense thread slot.
  static constexpr uint32_t SlotBits = 20;
  // Every input stops at MaxThreads threads (the interpreter faults, trace
  // replay rejects the create), so a slot never aliases another.
  static_assert(MaxThreads <= (uint32_t(1) << SlotBits),
                "the thread limit must fit the epoch's slot bits");
  /// Flag bit marking an inflated (vector-clock) read state.
  static constexpr uint64_t SharedBit = uint64_t(1) << 63;
  /// Largest representable clock (43 bits — comfortably past 2^32).
  static constexpr uint64_t MaxClock = (uint64_t(1) << (63 - SlotBits)) - 1;

  /// Packs a (slot, clock) pair into one epoch word.
  static uint64_t packEpoch(uint32_t Slot, uint64_t Clock) {
    assert(Slot < (uint32_t(1) << SlotBits) && "thread slot overflow");
    assert(Clock <= MaxClock && "clock overflow");
    return (Clock << SlotBits) | Slot;
  }
  static uint32_t epochSlot(uint64_t Epoch) {
    return uint32_t(Epoch) & ((uint32_t(1) << SlotBits) - 1);
  }
  static uint64_t epochClock(uint64_t Epoch) { return Epoch >> SlotBits; }

  EpochDetector() = default;
  explicit EpochDetector(const DetectorPlan &Plan) { reserve(Plan); }

  /// Pre-sizes every structure from the plan's capacity hints so the
  /// steady state never touches the global allocator (hints, not limits).
  void reserve(const DetectorPlan &Plan);

  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId ThreadObj,
                      SiteId Site = SiteId::invalid()) override;
  void onThreadExit(ThreadId Dying) override;
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override;
  void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                      SiteId Site = SiteId::invalid()) override;
  void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) override;
  void onAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                SiteId Site) override;

  const std::set<LocationKey> &reportedLocations() const { return Reported; }

  /// The first racing access observed per reported location, in report
  /// order — the epoch backend's contribution to the report document
  /// (docs/REPORTS.md).  Happens-before detection only knows the *second*
  /// access of a racing pair when it trips, so one access per location is
  /// what this backend can attribute precisely.
  struct RacyAccess {
    LocationKey Location;
    ThreadId Thread;
    AccessKind Access = AccessKind::Read;
    SiteId Site;
  };
  const std::vector<RacyAccess> &racyAccesses() const { return Racy; }

  EpochStats stats() const;

private:
  /// Per-location shadow state: the last-write epoch plus the adaptive
  /// read state (epoch, or SharedBit | ClockStore handle once inflated).
  struct VarState {
    uint64_t WriteEpoch = 0;
    uint64_t Read = 0;
  };

  /// Per-thread state, indexed by dense slot.
  struct PerThread {
    uint32_t Slot = 0;
    uint32_t VC = ClockStore::None;     ///< this thread's clock row
    uint32_t ExitVC = ClockStore::None; ///< snapshot taken at onThreadExit
    uint64_t Epoch = 0;                 ///< cached packEpoch(Slot, VC[Slot])
  };

  /// Insert-only open-addressed map from LockId index to the lock's
  /// ClockStore row (dummy join-lock ids live near 2^30, far outside any
  /// dense array).
  class LockClockMap {
  public:
    static constexpr uint32_t EmptyKey = 0xFFFFFFFF;

    /// Returns the row mapped to \p Key, or ClockStore::None.
    uint32_t find(uint32_t Key) const {
      if (Slots.empty())
        return ClockStore::None;
      for (size_t I = probeOf(Key);; I = (I + 1) & (Slots.size() - 1)) {
        if (Slots[I].Key == Key)
          return Slots[I].Row;
        if (Slots[I].Key == EmptyKey)
          return ClockStore::None;
      }
    }

    /// Maps \p Key to \p Row (must not already be present).
    void insert(uint32_t Key, uint32_t Row) {
      if (Count + 1 > (Slots.size() / 4) * 3)
        grow();
      size_t I = probeOf(Key);
      while (Slots[I].Key != EmptyKey) {
        assert(Slots[I].Key != Key && "duplicate lock key");
        I = (I + 1) & (Slots.size() - 1);
      }
      Slots[I] = {Key, Row};
      ++Count;
    }

    void reserve(size_t Expected) {
      size_t Target = 64;
      while (Expected > (Target / 4) * 3)
        Target *= 2;
      if (Target > Slots.size())
        rehash(Target);
    }

  private:
    struct Slot {
      uint32_t Key = EmptyKey;
      uint32_t Row = ClockStore::None;
    };

    size_t probeOf(uint32_t Key) const {
      uint64_t X = Key; // SplitMix64 finalizer, as in FlatTable.h
      X ^= X >> 30;
      X *= 0xbf58476d1ce4e5b9ull;
      X ^= X >> 27;
      X *= 0x94d049bb133111ebull;
      X ^= X >> 31;
      return size_t(X) & (Slots.size() - 1);
    }

    void grow() { rehash(Slots.empty() ? 64 : Slots.size() * 2); }

    void rehash(size_t NewCapacity) {
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(NewCapacity, Slot());
      for (const Slot &S : Old) {
        if (S.Key == EmptyKey)
          continue;
        size_t I = probeOf(S.Key);
        while (Slots[I].Key != EmptyKey)
          I = (I + 1) & (Slots.size() - 1);
        Slots[I] = S;
      }
    }

    std::vector<Slot> Slots;
    size_t Count = 0;
  };

  PerThread &threadState(ThreadId Thread);

  /// True when epoch \p E happened before (or equals) thread \p T's
  /// current time: Now_T[slot(E)] >= clock(E).
  bool epochOrderedBefore(uint64_t E, const PerThread &T) const {
    return Store.get(T.VC, epochSlot(E)) >= epochClock(E);
  }

  void report(LocationKey Location, ThreadId Thread, AccessKind Access,
              SiteId Site) {
    if (Reported.insert(Location).second) {
      ++Races;
      Racy.push_back(RacyAccess{Location, Thread, Access, Site});
    }
  }

  ClockStore Store;
  LocationTable<VarState> Table;
  LockClockMap LockClocks;
  std::vector<uint32_t> SlotByThread; ///< ThreadId index -> dense slot
  std::vector<PerThread> Threads;     ///< indexed by dense slot
  std::set<LocationKey> Reported;
  std::vector<RacyAccess> Racy;
  uint64_t Races = 0;
  EpochStats Counters; ///< event counters (structure sizes filled by stats())
};

} // namespace herd

#endif // HERD_BASELINES_EPOCHDETECTOR_H
