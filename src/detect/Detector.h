//===- detect/Detector.h - Runtime datarace detector ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime datarace detector (Section 3) combined with the ownership
/// model (Section 7): a table mapping each logical memory location to its
/// ownership state and, once shared, its access history (the lockset trie
/// of Section 3.2, held as its stored accesses in DFS order).
///
/// Ownership: the owner of a location is the first thread to access it; the
/// event stream is filtered to accesses of locations in the shared state,
/// which approximates the ordering constraints of thread start (Sections
/// 2.3 and 7.1).  When a location becomes shared, an optional callback lets
/// the cache layer forcibly evict it from its previous owner's caches —
/// the sound run-time fix of Section 7.2.
///
/// Hot-path layout: the location table is an open-addressed LocationTable
/// (one probe, no node allocations), all histories share one HistoryStore
/// (per-Detector, hence per-shard), and events arrive as DetectorEvents
/// whose lockset is an interned LockSetId resolved against the runtime's
/// shared LockSetInterner.  Together these make the steady-state per-event
/// cost allocation-free; stats() is O(1) because the trie-node total is the
/// store's live count and every other counter is maintained incrementally.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_DETECTOR_H
#define HERD_DETECT_DETECTOR_H

#include "detect/AccessEvent.h"
#include "detect/AccessHistory.h"
#include "detect/DetectorPlan.h"
#include "detect/DetectorStats.h"
#include "detect/RaceReport.h"
#include "support/FlatTable.h"
#include "support/LockSetInterner.h"

#include <functional>
#include <memory>

namespace herd {

/// The per-location detector.
class Detector {
public:
  struct Options {
    /// Apply the ownership filter (Section 7).  Disabled for the
    /// "NoOwnership" accuracy variant of Table 3.
    bool UseOwnership = true;
  };

  /// \p Locksets is the interner DetectorEvent lockset ids resolve against.
  /// When null (standalone detectors in tests and benches) the detector
  /// owns a private one, fed through handleAccess().  Runtimes pass their
  /// shared interner so producer-side ids resolve here.
  Detector(RaceReporter &Reporter, Options Opts,
           LockSetInterner *Locksets = nullptr)
      : Reporter(Reporter), Opts(Opts), Interner(Locksets) {
    if (!Interner) {
      OwnedInterner = std::make_unique<LockSetInterner>();
      Interner = OwnedInterner.get();
    }
  }

  /// Applies capacity hints before the run: pre-sizes the location table,
  /// history storage and interner, and pre-interns the plan's
  /// locksets.  Hints, not limits — an undersized plan only re-enables
  /// on-demand growth.  Must run before the first event to be useful.
  void applyPlan(const DetectorPlan &Plan);

  /// Processes one access event, interning its lockset.  The event's
  /// lockset must already include any dummy join locks (the caller
  /// maintains per-thread locksets).
  void handleAccess(const AccessEvent &Event);

  /// Processes one pre-interned event: the steady-state hot path (no
  /// lockset copy, no allocation).  \p Event.Locks must come from this
  /// detector's interner.
  void handleEvent(const DetectorEvent &Event);

  /// Invoked with the location and its previous owner when it transitions
  /// from owned to shared, before the triggering access is processed, so
  /// the cache layer can evict it from the owner's caches.
  void setOnShared(std::function<void(LocationKey, ThreadId)> Callback) {
    OnShared = std::move(Callback);
  }

  /// Returns the current statistics.  O(1): every counter, including the
  /// trie-node total (the store's live count), is maintained incrementally.
  DetectorStats stats() const {
    DetectorStats S = Stats;
    S.TrieNodes = Histories.live();
    return S;
  }

  /// The interner this detector resolves lockset ids against.
  LockSetInterner &interner() { return *Interner; }
  const LockSetInterner &interner() const { return *Interner; }

private:
  struct LocationState {
    ThreadId Owner;      ///< first accessor; invalid once shared
    bool Shared = false;
    bool Raced = false;  ///< a race was reported here
    AccessHistory History; ///< populated only once shared
  };
  static_assert(sizeof(LocationState) <= 24,
                "with its 8-byte key, a location-table slot is 32 bytes");

  RaceReporter &Reporter;
  Options Opts;
  std::function<void(LocationKey, ThreadId)> OnShared;
  std::unique_ptr<LockSetInterner> OwnedInterner;
  LockSetInterner *Interner; ///< never null
  HistoryStore Histories;    ///< entry storage for Table's histories
  LocationTable<LocationState> Table;
  DetectorStats Stats;
};

} // namespace herd

#endif // HERD_DETECT_DETECTOR_H
