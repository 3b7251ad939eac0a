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
/// thread releases a lock l, every entry inserted while l was held is
/// evicted.  Java's structured ("last in, first out") locking means it
/// suffices to link each entry onto the list of the innermost *releasable*
/// lock held at insertion time and flush that list when the lock is
/// released.  (Dummy join locks are never released while the cache is live,
/// so they are excluded from the tagging — see detect/RaceRuntime.)
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
#include <optional>
#include <unordered_map>
#include <vector>

namespace herd {

/// A direct-mapped cache indexed by memory location, with per-lock
/// doubly-linked eviction lists threaded through the entries.
class AccessCache {
public:
  static constexpr uint32_t DefaultEntries = 256;

  /// \p NumEntries must be a power of two.
  explicit AccessCache(uint32_t NumEntries = DefaultEntries)
      : Entries(NumEntries), Shift(shiftFor(NumEntries)) {
    assert(NumEntries != 0 && (NumEntries & (NumEntries - 1)) == 0 &&
           "cache size must be a power of two");
  }

  // LastHead points into this cache's own ListHead map.
  AccessCache(const AccessCache &) = delete;
  AccessCache &operator=(const AccessCache &) = delete;

  /// Returns true when \p Key is present (a guaranteed-redundant access).
  bool lookup(LocationKey Key) {
    if (provesRedundant(Key)) {
      ++Hits;
      return true;
    }
    ++Misses;
    return false;
  }

  /// The cache's redundancy invariant as a side-effect-free predicate: a
  /// resident entry proves that an access to \p Key by this cache's thread
  /// with this cache's access kind is weaker-or-equal to an event the
  /// detector has already processed (Section 4.2) — same thread and kind by
  /// cache identity, lockset-subset by the per-lock eviction lists, and no
  /// intervening shared-transition by evictKey.  Unlike lookup(), no
  /// counters move, so layered filters (the hook-path L0 filter) can use it
  /// as their differential oracle without perturbing stats.
  bool provesRedundant(LocationKey Key) const {
    const Entry &E = Entries[indexOf(Key)];
    return E.Valid && E.Key == Key;
  }

  /// Inserts \p Key, replacing whatever occupied its slot.  \p InnermostLock
  /// is the most recently acquired releasable lock currently held (invalid
  /// when none): the entry will be evicted when that lock is released.
  /// Returns the key a conflict eviction displaced, if any, so layered
  /// filters can drop their own entry for it and stay a subset of this
  /// cache.
  std::optional<LocationKey> insert(LocationKey Key, LockId InnermostLock);

  /// Evicts every entry inserted under \p Lock (called on the final, i.e.
  /// non-nested, monitorexit of \p Lock).
  void evictLock(LockId Lock);

  /// Evicts \p Key if present (called when the location transitions to the
  /// shared ownership state, Section 7.2).
  void evictKey(LocationKey Key);

  void clear();

  /// Structural invariant check over the eviction lists, for tests: every
  /// non-empty list head refers to a valid, linked entry; Prev/Next are
  /// mutually consistent and cycle-free; every entry tagged with a lock is
  /// reachable from exactly that lock's head; invalid entries carry no list
  /// state.  (Emptied lists keep their map entry with a None head so the
  /// steady state never touches the allocator.)
  bool checkListIntegrity() const;

  uint32_t capacity() const { return uint32_t(Entries.size()); }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }

private:
  static constexpr uint32_t None = 0xFFFFFFFF;

  struct Entry {
    LocationKey Key;
    bool Valid = false;
    LockId ListLock;          ///< which lock's eviction list holds this entry
    uint32_t Prev = None;     ///< neighbours on that list (entry indices)
    uint32_t Next = None;
  };

  static uint32_t shiftFor(uint32_t NumEntries) {
    uint32_t Shift = 64;
    while (NumEntries > 1) {
      NumEntries >>= 1;
      --Shift;
    }
    return Shift;
  }

  uint32_t indexOf(LocationKey Key) const {
    // Multiplicative hash, taking high bits — the same shape as the paper's
    // "multiply by a constant, take the upper bits" function (Section 4.3).
    // Shift keeps exactly log2(capacity) high bits; a one-entry cache would
    // shift by 64, which C++ leaves undefined, hence the guard.
    if (Shift >= 64)
      return 0;
    return uint32_t((Key.raw() * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  void unlink(uint32_t Index);

  /// \p Lock's list head, created empty on first use.  A run of inserts
  /// under one innermost lock (a whole locked region) finds it without a
  /// hash lookup: map element references survive rehashing, and heads are
  /// never erased before clear().
  uint32_t &headOf(LockId Lock) {
    if (!LastHead || Lock != LastLock) {
      LastHead = &ListHead.try_emplace(Lock, None).first->second;
      LastLock = Lock;
    }
    return *LastHead;
  }

  std::vector<Entry> Entries;
  uint32_t Shift;
  std::unordered_map<LockId, uint32_t> ListHead; ///< lock -> first entry
                                                 ///< (None when emptied)
  LockId LastLock;              ///< the lock headOf() last served
  uint32_t *LastHead = nullptr; ///< &ListHead[LastLock], or null
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace herd

#endif // HERD_DETECT_ACCESSCACHE_H
