//===- baselines/NaiveDetector.h - Exact O(N^2) race oracle -----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact reference detector: stores every access event and computes the
/// full set FullRace = { (e_i, e_j) | IsRace(e_i, e_j) } of Section 2.5 by
/// brute force.  Worst-case O(N²) time and O(N) space — the cost the
/// paper's algorithm exists to avoid — so it is used only as the oracle in
/// property tests and in microbenchmarks, never in the main pipeline.
///
/// Definition 1's guarantee is checked against this oracle: the trie
/// detector must report at least one access for *every* location with a
/// non-empty MemRace(m), and (precision) report nothing for other
/// locations.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_BASELINES_NAIVEDETECTOR_H
#define HERD_BASELINES_NAIVEDETECTOR_H

#include "baselines/LockTracker.h"
#include "detect/AccessEvent.h"
#include "runtime/Hooks.h"

#include <map>
#include <set>
#include <vector>

namespace herd {

/// Collects the full event stream and answers exact race queries.
class NaiveDetector : public RuntimeHooks {
public:
  struct Options {
    /// Apply the same ownership filtering as the real detector: drop
    /// accesses until a second thread touches the location, then keep the
    /// sharing access and everything after.
    bool UseOwnership = true;

    /// Model join ordering with the same dummy locks as RaceRuntime.
    bool ModelJoin = true;
  };

  NaiveDetector() : NaiveDetector(Options()) {}
  explicit NaiveDetector(Options Opts) : Opts(Opts) {}

  // RuntimeHooks:
  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId ThreadObj,
                      SiteId Site = SiteId::invalid()) override;
  void onThreadExit(ThreadId Dying) override;
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override;
  void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                      SiteId Site = SiteId::invalid()) override;
  void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) override;
  void onAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                SiteId Site) override;

  /// Feeds one pre-built event (for tests that drive the oracle without an
  /// interpreter).  Ownership filtering still applies.
  void addEvent(const AccessEvent &Event);

  /// The exact set of locations with a non-empty MemRace(m).
  std::set<LocationKey> racyLocations() const;

  /// The number of racing pairs on \p Location (|MemRace(m)|).
  size_t memRaceSize(LocationKey Location) const;

private:
  Options Opts;
  LockTracker Locks;
  std::vector<LockSet> ExtraLocks; ///< dummy join locks per thread

  struct PerLocation {
    ThreadId Owner;
    bool Shared = false;
    std::vector<AccessEvent> Events;
  };
  std::map<LocationKey, PerLocation> Table;
};

} // namespace herd

#endif // HERD_BASELINES_NAIVEDETECTOR_H
