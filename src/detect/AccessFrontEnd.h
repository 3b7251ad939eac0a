//===- detect/AccessFrontEnd.h - Per-thread access front end ----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-thread half of the runtime pipeline, written once for the
/// serial RaceRuntime and the sharded ShardedRuntime:
///
///   access event -> L0 filter -> per-thread cache (Section 4) -> delivery
///
/// It keeps each thread's lockset, models join ordering with per-thread
/// dummy locks S_j (Section 2.3), and evicts a location from its previous
/// owner's caches when it becomes shared (the Section 7.2 fix).  Delivery
/// is the runtime's own: AccessFrontEnd<Derived> calls Derived::deliver on
/// a cache miss and Derived::syncPoint after each sync operation, bound at
/// compile time (CRTP), so the per-access path adds no virtual or indirect
/// call and no branch on the runtime's kind.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSFRONTEND_H
#define HERD_DETECT_ACCESSFRONTEND_H

#include "detect/AccessCache.h"
#include "detect/AccessEvent.h"
#include "detect/AccessFilter.h"
#include "detect/DetectorPlan.h"
#include "detect/DetectorStats.h"
#include "runtime/Hooks.h"
#include "support/LockSetInterner.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

namespace herd {

/// Configuration for the runtime half of the pipeline; each flag maps to an
/// ablation of the paper's experiments.
struct RaceRuntimeOptions {
  /// Per-thread read/write caches ("NoCache" disables; Table 2).
  bool UseCache = true;

  /// Ownership filter ("NoOwnership" disables; Table 3).
  bool UseOwnership = true;

  /// Object-granularity locations ("FieldsMerged"; Table 3).
  bool FieldsMerged = false;

  /// Model join ordering with dummy locks S_j (Section 2.3).  Disabling
  /// reproduces Eraser's behaviour on the mtrt join idiom (Section 8.3).
  bool ModelJoin = true;

  /// Entries per (thread, kind) access cache; must be a power of two
  /// (`herd --cache-size=N`).  The paper's experiments use 256.
  uint32_t CacheEntries = 256;

  /// Enable the hook-path L0 filter consulted by onAccessFast
  /// (`herd --hook-filter=on|off`, docs/HOOKPATH.md).  Only effective
  /// together with UseCache: the filter's differential oracle is the
  /// detector-side cache, so without it the fast path stays off.
  bool HookFilter = false;

  /// Capacity hints from static analysis (`herd --plan=auto|off|N`).
  /// Applied to the detector and thread table at construction; an empty
  /// plan means on-demand growth exactly as before.
  DetectorPlan Plan;
};

/// The per-thread front end both detection runtimes derive from.  Derived
/// provides
///   void deliver(PerThread &T, ThreadId, LocationKey Key, AccessKind,
///                SiteId)   -- a cache miss, Key already field-merged;
///   void syncPoint(bool Join) -- after each thread event and each lock
///                                acquire or final release (Join: after a
///                                thread join).
template <class Derived> class AccessFrontEnd : public RuntimeHooks {
public:
  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId ThreadObj,
                      SiteId Site = SiteId::invalid()) override;
  void onThreadExit(ThreadId Dying) override;
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override;
  void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                      SiteId Site = SiteId::invalid()) override;
  void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) override;
  void onAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                SiteId Site) override;

  /// The devirtualized hook-path entry (docs/HOOKPATH.md): probes the
  /// thread's L0 filter inline and only falls through to the full onAccess
  /// path on a miss.  The interpreter calls this through a concrete
  /// runtime pointer when the single-detector fast path is active, so the
  /// probe inlines into the dispatch loop with no virtual hop.
  void onAccessFast(ThreadId Thread, LocationKey Location, AccessKind Access,
                    SiteId Site) {
    if (FilterOn) {
      // A null state (first event from this thread) falls through to
      // onAccess, which creates it.
      if (PerThread *T = stateOf(Thread)) {
        LocationKey Key =
            Opts.FieldsMerged ? Location.withFieldsMerged() : Location;
        if (T->Filter.probe(Key, Access)) {
          // The differential oracle: an L0 hit must be backed by a resident
          // detector-side cache entry, i.e. the full path would have proven
          // the same access redundant (see docs/HOOKPATH.md).
          assert(oracleHolds(Thread, Key, Access) &&
                 "L0 filter hit not backed by the detector-side cache");
          return;
        }
      }
    }
    AccessFrontEnd::onAccess(Thread, Location, Access, Site);
  }

  /// The interpreter's per-quantum probe handle (docs/HOOKPATH.md): the
  /// running thread's L0 filter, hoisted into the dispatch loop so the
  /// per-access probe is one register-resident pointer instead of a walk
  /// through the runtime's thread table.  Null when the probe cannot be
  /// hoisted — filter off, or FieldsMerged, whose key transform the
  /// onAccessFast fallback performs.  Creates the thread's state on first
  /// use; the returned address is stable for the thread's lifetime (state
  /// is heap-allocated) and every invalidation channel mutates the
  /// pointed-to filter in place.
  AccessFilter *filterHandle(ThreadId Thread) {
    if (!FilterOn || Opts.FieldsMerged)
      return nullptr;
    return &threadState(Thread).Filter;
  }

  /// The differential oracle behind the interpreter-side inline probe
  /// (debug builds assert this on every hoisted L0 hit): the detector-side
  /// cache must prove the same access redundant.
  bool oracleHolds(ThreadId Thread, LocationKey Key,
                   AccessKind Access) const {
    const PerThread *T = stateOf(Thread);
    return T && (Access == AccessKind::Read ? T->ReadCache : T->WriteCache)
                    .provesRedundant(Key);
  }

  /// The current lockset of \p Thread (dummy join locks included); exposed
  /// for tests.
  const LockSet &lockSetOf(ThreadId Thread) const;

  /// The dummy lock S_j modelling ordering with thread \p Thread.  Dummy
  /// lock ids live above any heap object's lock id (FirstDummyLock).
  static LockId dummyLockOf(ThreadId Thread) {
    return LockId(FirstDummyLock + Thread.index());
  }

protected:
  struct PerThread {
    explicit PerThread(uint32_t CacheEntries)
        : ReadCache(CacheEntries), WriteCache(CacheEntries) {}

    LockSet Locks;                    ///< held locks incl. dummy join locks
    std::vector<LockId> RealStack;    ///< releasable locks, by cache depth
    AccessCache ReadCache;
    AccessCache WriteCache;
    AccessFilter Filter;              ///< hook-path L0 filter (HookFilter)

    /// Interned id of Locks, refreshed lazily: locksets only change at
    /// monitor/thread events, so the per-access cost is a dirty-bit test
    /// instead of a SortedIdSet copy.
    LockSetId LocksId = LockSetInterner::emptySet();
    bool LocksDirty = false;
  };

  explicit AccessFrontEnd(const RaceRuntimeOptions &Opts)
      : Opts(Opts), FilterOn(Opts.HookFilter && Opts.UseCache) {
    if (uint64_t N = Opts.Plan.clamped().ExpectedThreads)
      Threads.reserve(size_t(N) + 1); // +1: thread ids are 1-based, slot 0 main
  }

  /// The detector event for a cache miss of thread \p T, interning its
  /// lockset into \p Interner if it changed since the last miss.
  static DetectorEvent eventFor(PerThread &T, LockSetInterner &Interner,
                                ThreadId Thread, LocationKey Key,
                                AccessKind Access, SiteId Site);

  /// Section 7.2: a location entering the shared state must leave the
  /// caches, or a hit could suppress the first post-sharing access.  Only
  /// \p Owner, its owner until now, can hold it (every insert follows a
  /// delivery; another thread's delivery shares it), so its caches and L0
  /// filter drop the key.  Each runtime wires this to its ownership model.
  void evictShared(LocationKey Key, ThreadId Owner);

  /// The front end's counters: events seen, cache and L0 filter totals,
  /// and the per-thread cache breakdown.  Detector counters are left to
  /// the runtime.
  RaceRuntimeStats frontEndStats() const;

  RaceRuntimeOptions Opts;

private:
  PerThread &threadState(ThreadId Thread);

  /// \p Thread's state, or null before its first event: an inline
  /// bounds-checked load, where threadState() is out of line and creates.
  PerThread *stateOf(ThreadId Thread) const {
    size_t Index = Thread.index();
    return Index < Threads.size() ? Threads[Index].get() : nullptr;
  }

  /// A sync operation changed \p T's lockset.
  void locksChanged(PerThread &T) {
    T.LocksDirty = true;
    if (FilterOn)
      T.Filter.bumpEpoch();
  }

  Derived &derived() { return static_cast<Derived &>(*this); }

  bool FilterOn; ///< Opts.HookFilter gated on Opts.UseCache (the oracle)
  std::vector<std::unique_ptr<PerThread>> Threads;
  uint64_t EventsSeen = 0;
};

//===----------------------------------------------------------------------===
// Out-of-line members.  Each runtime instantiates its front end once, in
// its own .cpp (explicit instantiation), next to its deliver().
//===----------------------------------------------------------------------===

template <class Derived>
typename AccessFrontEnd<Derived>::PerThread &
AccessFrontEnd<Derived>::threadState(ThreadId Thread) {
  size_t Index = Thread.index();
  if (Index >= Threads.size())
    Threads.resize(Index + 1);
  if (!Threads[Index])
    Threads[Index] = std::make_unique<PerThread>(Opts.CacheEntries);
  return *Threads[Index];
}

template <class Derived>
const LockSet &AccessFrontEnd<Derived>::lockSetOf(ThreadId Thread) const {
  static const LockSet Empty;
  const PerThread *T = stateOf(Thread);
  return T ? T->Locks : Empty;
}

template <class Derived>
void AccessFrontEnd<Derived>::onThreadCreate(ThreadId Child,
                                             ThreadId /*Parent*/,
                                             ObjectId /*ThreadObj*/,
                                             SiteId /*Site*/) {
  PerThread &T = threadState(Child);
  if (Opts.ModelJoin) {
    // A dummy mon-enter(S_child) at the start of the child's execution
    // (Section 2.3).  The dummy lock is not releasable during the thread's
    // life, so it takes no cache acquisition (see AccessCache docs).
    T.Locks.insert(dummyLockOf(Child));
    locksChanged(T);
  }
  derived().syncPoint(/*Join=*/false);
}

template <class Derived>
void AccessFrontEnd<Derived>::onThreadExit(ThreadId Dying) {
  if (Opts.ModelJoin) {
    // The dummy mon-exit(S_dying) at the end of the thread's execution.
    PerThread &T = threadState(Dying);
    T.Locks.erase(dummyLockOf(Dying));
    locksChanged(T);
  }
  derived().syncPoint(/*Join=*/false);
}

template <class Derived>
void AccessFrontEnd<Derived>::onThreadJoin(ThreadId Joiner, ThreadId Joined) {
  if (Opts.ModelJoin) {
    // A dummy mon-enter(S_joined) after the join completes: everything the
    // joiner does from now on is ordered after the joined thread, which
    // held S_joined for its entire execution.  It is held forever.
    PerThread &T = threadState(Joiner);
    T.Locks.insert(dummyLockOf(Joined));
    locksChanged(T);
  }
  derived().syncPoint(/*Join=*/true);
}

template <class Derived>
void AccessFrontEnd<Derived>::onMonitorEnter(ThreadId Thread, LockId Lock,
                                             bool Recursive,
                                             SiteId /*Site*/) {
  if (Recursive)
    return; // nested acquisitions are invisible to the detector (Sec 4.2)
  PerThread &T = threadState(Thread);
  T.Locks.insert(Lock);
  T.RealStack.push_back(Lock);
  T.ReadCache.acquire();
  T.WriteCache.acquire();
  locksChanged(T);
  derived().syncPoint(/*Join=*/false);
}

template <class Derived>
void AccessFrontEnd<Derived>::onMonitorExit(ThreadId Thread, LockId Lock,
                                            bool StillHeld) {
  if (StillHeld)
    return; // only the final monitorexit releases (Section 4.2)
  PerThread &T = threadState(Thread);
  // Usually the innermost lock, but MiniJ's synchronized (y) releases
  // whatever y names when the block ends.  A lock not held is ignored.
  auto Held = std::find(T.RealStack.rbegin(), T.RealStack.rend(), Lock);
  if (Held == T.RealStack.rend())
    return;
  uint32_t Depth = uint32_t(T.RealStack.rend() - Held);
  T.RealStack.erase(std::next(Held).base());
  T.Locks.erase(Lock);
  T.ReadCache.release(Depth);
  T.WriteCache.release(Depth);
  locksChanged(T);
  derived().syncPoint(/*Join=*/false);
}

template <class Derived>
void AccessFrontEnd<Derived>::onAccess(ThreadId Thread, LocationKey Location,
                                       AccessKind Access, SiteId Site) {
  ++EventsSeen;
  PerThread *Known = stateOf(Thread);
  PerThread &T = Known ? *Known : threadState(Thread);
  // Field merging is applied here (before the cache) so that the cache
  // and the detector index the same keys.
  LocationKey Key =
      Opts.FieldsMerged ? Location.withFieldsMerged() : Location;

  AccessCache *Cache = nullptr;
  if (Opts.UseCache) {
    Cache = Access == AccessKind::Read ? &T.ReadCache : &T.WriteCache;
    if (Cache->lookup(Key)) {
      // Guaranteed redundant: a weaker access is already recorded.  Seed
      // the L0 filter so the next same-epoch repeat short-circuits at the
      // instrumentation site (the hit is backed by this cache entry).
      if (FilterOn)
        T.Filter.insert(Key, Access);
      return;
    }
  }

  // Delivery (ownership and the trie) runs before the cache insert, so a
  // shared transition's eviction precedes it.
  derived().deliver(T, Thread, Key, Access, Site);

  if (Cache) {
    LocationKey Displaced = Cache->insert(Key);
    if (FilterOn) {
      // A conflict eviction removed another key's backing cache entry; the
      // L0 filter must not keep proving that key redundant.
      if (Displaced != LocationKey())
        T.Filter.invalidateKey(Displaced);
      T.Filter.insert(Key, Access);
    }
  }
}

template <class Derived>
DetectorEvent AccessFrontEnd<Derived>::eventFor(PerThread &T,
                                                LockSetInterner &Interner,
                                                ThreadId Thread,
                                                LocationKey Key,
                                                AccessKind Access,
                                                SiteId Site) {
  if (T.LocksDirty) {
    T.LocksId = Interner.intern(T.Locks);
    T.LocksDirty = false;
  }
  DetectorEvent Event;
  Event.Location = Key;
  Event.Thread = Thread;
  Event.Locks = T.LocksId;
  Event.Access = Access;
  Event.Site = Site;
  return Event;
}

template <class Derived>
void AccessFrontEnd<Derived>::evictShared(LocationKey Key, ThreadId Owner) {
  if (!Opts.UseCache)
    return;
#ifndef NDEBUG
  for (uint32_t I = 0; I != Threads.size(); ++I)
    for (AccessKind Kind : {AccessKind::Read, AccessKind::Write})
      assert((I == Owner.index() || !Threads[I] ||
              (!oracleHolds(ThreadId(I), Key, Kind) &&
               !Threads[I]->Filter.holds(Key, Kind))) &&
             "a shared location is cached by a thread that never owned it");
#endif
  PerThread &T = threadState(Owner);
  T.ReadCache.evictKey(Key);
  T.WriteCache.evictKey(Key);
  if (FilterOn)
    T.Filter.invalidateKey(Key);
}

template <class Derived>
RaceRuntimeStats AccessFrontEnd<Derived>::frontEndStats() const {
  RaceRuntimeStats S;
  S.EventsSeen = EventsSeen;
  S.Hook.FilterEnabled = FilterOn;
  for (size_t Index = 0; Index < Threads.size(); ++Index) {
    const auto &T = Threads[Index];
    if (!T)
      continue;
    S.CacheHits += T->ReadCache.hits() + T->WriteCache.hits();
    S.CacheMisses += T->ReadCache.misses() + T->WriteCache.misses();
    S.CacheEvictions += T->ReadCache.evictions() + T->WriteCache.evictions();
    S.Hook.FilterHits += T->Filter.hits();
    S.Hook.FilterMisses += T->Filter.misses();
    S.Hook.EpochBumps += T->Filter.epochBumps();
    S.Hook.KeyInvalidations += T->Filter.keyInvalidations();
    ThreadCacheStats TC;
    TC.Thread = uint32_t(Index);
    TC.ReadHits = T->ReadCache.hits();
    TC.ReadMisses = T->ReadCache.misses();
    TC.WriteHits = T->WriteCache.hits();
    TC.WriteMisses = T->WriteCache.misses();
    S.PerThreadCache.push_back(TC);
  }
  return S;
}

} // namespace herd

#endif // HERD_DETECT_ACCESSFRONTEND_H
