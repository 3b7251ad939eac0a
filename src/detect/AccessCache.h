//===- detect/AccessCache.h - Per-thread redundant-access cache -*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime optimizer of Section 4: a direct-mapped cache of recent
/// accesses whose hits are guaranteed to be redundant (a weaker access has
/// already reached the detector).
///
/// One cache instance covers one (thread, access-kind) pair — separate
/// caches per thread make p.t = q.t trivially true, and separate caches for
/// reads and writes make p.a = q.a true (Section 4.2).  The lockset subset
/// condition p.Locks ⊆ q.Locks is maintained by eviction: whenever the
/// thread releases a lock l, every entry inserted while l was held goes.
///
/// Section 4.2 keeps a list per innermost releasable lock and flushes it on
/// release.  Here each entry is tagged with that lock's *acquisition*: its
/// depth in the thread's stack of releasable locks (0: none) and an id.
/// An entry is resident iff its id still sits at its depth in the cache's
/// stack of held acquisitions, so a final monitorexit evicts in O(1) by
/// popping the stack.  On LIFO releases (Java's structured locking) that is
/// exactly the released lock's list: deeper acquisitions were released
/// first, shallower ones stay.  A release that is not the innermost
/// (MiniJ's `synchronized (y)` releases whatever y names at the block's
/// end) drops its depth and every depth above, whose locks move down with
/// fresh acquisitions: that evicts every entry that held the released lock
/// and some the lists would keep, which is conservative, never unsound.
/// Ids only grow, so a popped acquisition never validates again (a 32-bit
/// counter that would wrap clears the cache).  Per-depth live counts make
/// evictions() count each resident entry a release removes.  Dummy join
/// locks are never released while the cache is live: no acquisition.
///
/// The entry count is configurable per instance (power of two; the paper's
/// Section 4.3 experiments sweep cache sizes the same way) and defaults to
/// the paper's 256.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSCACHE_H
#define HERD_DETECT_ACCESSCACHE_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace herd {

/// A direct-mapped cache indexed by memory location, tagged by acquisition.
class AccessCache {
public:
  static constexpr uint32_t DefaultEntries = 256;

  /// \p NumEntries must be a power of two.
  explicit AccessCache(uint32_t NumEntries = DefaultEntries)
      : Entries(NumEntries), Shift(shiftFor(NumEntries)) {
    assert(NumEntries != 0 && (NumEntries & (NumEntries - 1)) == 0 &&
           "cache size must be a power of two");
    Levels.reserve(8); // one allocation covers seven nested locks
    Levels.push_back({1, 0});
  }

  /// Returns true when \p Key is present (a guaranteed-redundant access).
  bool lookup(LocationKey Key) {
    bool Hit = provesRedundant(Key);
    ++(Hit ? Hits : Misses);
    return Hit;
  }

  /// The cache's redundancy invariant as a side-effect-free predicate: a
  /// resident entry proves that an access to \p Key by this cache's thread
  /// with this cache's access kind is weaker-or-equal to an event the
  /// detector has already processed (Section 4.2) — same thread and kind by
  /// cache identity, lockset-subset by the entry's acquisition still being
  /// held, and no intervening shared-transition by evictKey.  Unlike
  /// lookup(), no counters move, so layered filters (the hook-path L0
  /// filter) can use it as their differential oracle.
  bool provesRedundant(LocationKey Key) const {
    const Entry &E = Entries[slotOf(Key)];
    return E.Key == Key && resident(E);
  }

  /// Inserts \p Key under the current acquisition, replacing whatever
  /// occupied its slot.  Returns the key a conflict eviction displaced, or
  /// LocationKey() when none, so layered filters can drop their own entry
  /// for it and stay a subset of this cache.
  LocationKey insert(LocationKey Key) {
    Entry &E = Entries[slotOf(Key)];
    LocationKey Displaced;
    if (resident(E)) {
      ++Evictions;
      --Levels[E.Depth].Live;
      if (E.Key != Key)
        Displaced = E.Key;
    }
    uint32_t Top = depth();
    E = Entry{Key, Top, Levels[Top].Id};
    ++Levels[Top].Live;
    return Displaced;
  }

  /// A final (non-nested) monitorenter: the lock is held at depth() + 1.
  void acquire();

  /// The final monitorexit of the lock at \p Depth (1: the outermost).
  void release(uint32_t Depth);

  /// Evicts \p Key if present (called when the location transitions to the
  /// shared ownership state, Section 7.2).
  void evictKey(LocationKey Key) {
    Entry &E = Entries[slotOf(Key)];
    if (E.Key != Key || !resident(E))
      return;
    --Levels[E.Depth].Live;
    E.Acquisition = 0;
    ++Evictions;
  }

  /// Evicts every entry; the held locks stay held.
  void clear();

  /// The number of releasable locks the thread holds.
  uint32_t depth() const { return uint32_t(Levels.size() - 1); }

  /// The slot \p Key maps to.
  uint32_t slotOf(LocationKey Key) const {
    // Multiplicative hash, taking high bits — the same shape as the paper's
    // "multiply by a constant, take the upper bits" function (Section 4.3).
    // Shift keeps exactly log2(capacity) high bits; a one-entry cache would
    // shift by 64, which C++ leaves undefined, hence the guard.
    if (Shift >= 64)
      return 0;
    return uint32_t((Key.raw() * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  /// Asserted after every acquire and release without NDEBUG: ids ascend
  /// up the stack, and each depth's live count equals a recount.
  bool checkInvariants() const;

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }

private:
  struct Entry {
    LocationKey Key;
    uint32_t Depth = 0;       ///< the innermost releasable lock's depth
    uint32_t Acquisition = 0; ///< its acquisition's id; 0 never validates
  };
  static_assert(sizeof(Entry) == 16, "a cache entry is 16 bytes");

  static uint32_t shiftFor(uint32_t NumEntries) {
    uint32_t Shift = 64;
    while (NumEntries > 1) {
      NumEntries >>= 1;
      --Shift;
    }
    return Shift;
  }

  bool resident(const Entry &E) const {
    return E.Depth < Levels.size() && Levels[E.Depth].Id == E.Acquisition;
  }

  /// Gives depths [\p From, depth()] fresh acquisition ids.
  void renumber(uint32_t From);

  struct Level {
    uint32_t Id;   ///< the acquisition held at this depth
    uint32_t Live; ///< resident entries made at this depth
  };

  std::vector<Entry> Entries;
  uint32_t Shift;
  std::vector<Level> Levels; ///< by depth; 0: no releasable lock held
  uint32_t LastId = 1;       ///< the last acquisition id issued
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace herd

#endif // HERD_DETECT_ACCESSCACHE_H
