//===- detect/AccessFilter.h - Inline L0 hook-path filter -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hook-path L0 filter (docs/HOOKPATH.md): a per-thread, fixed-size
/// direct-mapped filter probed inline at the instrumentation site, in front
/// of the detection runtime's full onAccess path.  A hit proves the access
/// redundant by the same invariant AccessCache proves (Section 4.2) under a
/// strictly more conservative validity rule, so hits skip event creation
/// entirely:
///
///  * same thread — the filter is per-thread;
///  * same access kind — a slot stores the kind it was inserted with and a
///    probe must match it exactly (so every hit maps onto exactly one of
///    the thread's per-kind AccessCaches);
///  * same lockset, no intervening sync — a slot stores the thread's sync
///    epoch at insertion time and the epoch is bumped on *every* sync
///    operation the thread performs (monitor enter/exit, thread
///    create/exit/join), which is coarser than AccessCache's acquisition
///    tags (a release evicts only the entries made under the released
///    lock's acquisition and those above it);
///  * no shared-transition or conflict displacement — the owning runtime
///    clears the key's slot whenever the detector-side machinery evicts it
///    (ownership shared-transition evictKey, cache conflict eviction).
///
/// Together these make every L0 hit a guaranteed AccessCache hit — the
/// differential oracle RaceRuntime/ShardedRuntime assert in debug builds
/// via AccessCache::provesRedundant.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSFILTER_H
#define HERD_DETECT_ACCESSFILTER_H

#include "ir/Instr.h"
#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace herd {

/// One thread's L0 filter: direct-mapped (location, kind) -> last-seen
/// sync-epoch slots plus the thread's current sync epoch.
class AccessFilter {
public:
  static constexpr uint32_t DefaultEntries = 256;

  /// \p NumEntries must be a power of two.
  explicit AccessFilter(uint32_t NumEntries = DefaultEntries)
      : Slots(NumEntries), Shift(shiftFor(NumEntries)), Mask(NumEntries - 1) {
    assert(NumEntries != 0 && (NumEntries & (NumEntries - 1)) == 0 &&
           "filter size must be a power of two");
  }

  /// The inline probe: true iff the slot for \p Key holds \p Key with the
  /// same kind and was inserted in the current sync epoch.  Counts a hit or
  /// a miss; use holds() for the counter-free form.
  bool probe(LocationKey Key, AccessKind Kind) {
    if (holds(Key, Kind)) {
      ++HitCount;
      return true;
    }
    ++MissCount;
    return false;
  }

  /// Counter-free probe (tests and assertions).
  bool holds(LocationKey Key, AccessKind Kind) const {
    const Slot &S = Slots[indexOf(Key, Kind)];
    return S.Epoch == Epoch && S.KeyRaw == Key.raw() && S.Kind == Kind;
  }

  /// Records \p Key at the current epoch, displacing whatever occupied its
  /// slot.  Call only after the full delivery path processed the access (or
  /// proved it redundant via the detector-side cache), so a later hit is
  /// backed by detector state.
  void insert(LocationKey Key, AccessKind Kind) {
    Slot &S = Slots[indexOf(Key, Kind)];
    S.KeyRaw = Key.raw();
    S.Epoch = Epoch;
    S.Kind = Kind;
  }

  /// Invalidates every slot in O(1): called on each sync operation the
  /// owning thread performs.  Epoch 0 is reserved as "never valid" so
  /// zero-initialized slots cannot match.
  void bumpEpoch() {
    ++Epoch;
    ++EpochBumpCount;
  }

  /// Drops \p Key's slots (both kinds) if they currently hold \p Key:
  /// called when the detector-side machinery evicts the key (shared
  /// transition, cache conflict displacement).  Clearing both kinds is a
  /// safe over-approximation — a kind whose cache entry survived just
  /// re-seeds its slot on the next full-path delivery.
  void invalidateKey(LocationKey Key) {
    bool Dropped = false;
    for (AccessKind Kind : {AccessKind::Read, AccessKind::Write}) {
      Slot &S = Slots[indexOf(Key, Kind)];
      if (S.KeyRaw == Key.raw() && S.Epoch == Epoch) {
        S.Epoch = 0;
        Dropped = true;
      }
    }
    if (Dropped)
      ++KeyInvalidationCount;
  }

  uint32_t capacity() const { return uint32_t(Slots.size()); }

  uint64_t hits() const { return HitCount; }
  uint64_t misses() const { return MissCount; }
  uint64_t epochBumps() const { return EpochBumpCount; }
  uint64_t keyInvalidations() const { return KeyInvalidationCount; }

private:
  struct Slot {
    uint64_t KeyRaw = 0;
    uint64_t Epoch = 0; ///< sync epoch at insertion; 0 = never valid
    AccessKind Kind = AccessKind::Read;
  };

  static constexpr uint32_t shiftFor(uint32_t NumEntries) {
    uint32_t Shift = 64;
    while (NumEntries > 1) {
      NumEntries >>= 1;
      --Shift;
    }
    return Shift;
  }

  uint32_t indexOf(LocationKey Key, AccessKind Kind) const {
    // Same multiplicative high-bits hash as AccessCache (Section 4.3),
    // with the access kind folded into the low index bit so a location's
    // read and write entries occupy distinct slots — a hot field accessed
    // as load-then-store every iteration must not thrash one slot (the
    // caches are per-kind, so the backing invariant is per-kind too).
    if (Shift >= 64)
      return 0;
    uint32_t Index = uint32_t((Key.raw() * 0x9e3779b97f4a7c15ull) >> Shift);
    return (Index ^ uint32_t(Kind)) & Mask;
  }

  std::vector<Slot> Slots;
  uint32_t Shift;
  uint32_t Mask; ///< capacity - 1 (folding the kind bit stays in range)
  uint64_t Epoch = 1; ///< starts past the reserved "never valid" epoch 0
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
  uint64_t EpochBumpCount = 0;
  uint64_t KeyInvalidationCount = 0;
};

} // namespace herd

#endif // HERD_DETECT_ACCESSFILTER_H
