//===- detect/OwnershipFilter.h - Producer-side ownership model -*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ownership model of Section 7 as a standalone filter, for runtimes
/// that split ownership from trie detection.  The sharded runtime runs
/// this on the producer (hook) thread so that the owned-to-shared
/// transition — and the cache eviction it must trigger (the Section 7.2
/// soundness fix) — happens synchronously with event ingest, while the
/// trie work proceeds asynchronously on the shard workers.
///
/// The semantics mirror Detector::handleAccess exactly: the first thread
/// to touch a location owns it and its accesses are filtered; the second
/// thread's access makes the location shared, fires the onShared callback,
/// and is itself forwarded (as are all later accesses).  The sharded-vs-
/// serial differential tests pin this equivalence on whole programs.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_OWNERSHIPFILTER_H
#define HERD_DETECT_OWNERSHIPFILTER_H

#include "support/FlatTable.h"
#include "support/Ids.h"

#include <functional>

namespace herd {

/// Tracks per-location ownership state ahead of the shard queues.
class OwnershipFilter {
public:
  /// Invoked with the location and its previous owner when it transitions
  /// from owned to shared, before the triggering access is forwarded (so
  /// the cache layer can evict it from the owner's caches first).
  void setOnShared(std::function<void(LocationKey, ThreadId)> Callback) {
    OnShared = std::move(Callback);
  }

  /// Returns true when the access must flow on to the detector; false when
  /// the location is (still) owned by \p Thread and the event is dropped.
  bool passes(ThreadId Thread, LocationKey Key) {
    auto [SlotPtr, Inserted] = Table.tryEmplace(Key);
    State &S = *SlotPtr;
    if (Inserted)
      ++LocationsTracked;
    if (S.Shared)
      return true;
    if (Inserted || !S.Owner.isValid()) {
      S.Owner = Thread;
      ++OwnedFiltered;
      return false;
    }
    if (S.Owner == Thread) {
      ++OwnedFiltered;
      return false;
    }
    ThreadId Owner = S.Owner;
    S.Shared = true;
    S.Owner = ThreadId::invalid();
    ++LocationsShared;
    if (OnShared)
      OnShared(Key, Owner);
    return true;
  }

  /// Pre-sizes the location table for \p Expected locations (DetectorPlan
  /// plumbing: the filter sees every instrumented location, so it shares
  /// the detector's ExpectedLocations hint).
  void reserve(size_t Expected) { Table.reserve(Expected); }

  uint64_t ownedFiltered() const { return OwnedFiltered; }
  size_t locationsTracked() const { return LocationsTracked; }
  size_t locationsShared() const { return LocationsShared; }

private:
  struct State {
    ThreadId Owner; ///< first accessor; invalid once shared
    bool Shared = false;
  };

  std::function<void(LocationKey, ThreadId)> OnShared;
  LocationTable<State> Table; ///< open-addressed, insert-only (FlatTable.h)
  uint64_t OwnedFiltered = 0;
  size_t LocationsTracked = 0;
  size_t LocationsShared = 0;
};

} // namespace herd

#endif // HERD_DETECT_OWNERSHIPFILTER_H
