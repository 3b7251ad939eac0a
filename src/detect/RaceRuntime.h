//===- detect/RaceRuntime.h - Hooks-to-detector glue ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RaceRuntime implements the interpreter's RuntimeHooks interface and
/// drives the detection pipeline of Figure 1's right half:
///
///   access event -> per-thread cache (Section 4) -> ownership filter and
///   trie detector (Sections 3 and 7).
///
/// The per-thread half (locksets with dummy join locks, caches, the L0
/// filter) is detect/AccessFrontEnd.h, shared with ShardedRuntime; this
/// runtime adds the in-line Detector and wires its ownership-to-shared
/// transition to cache eviction (the Section 7.2 soundness fix).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_RACERUNTIME_H
#define HERD_DETECT_RACERUNTIME_H

#include "detect/AccessFrontEnd.h"
#include "detect/Detector.h"
#include "detect/RaceReport.h"

namespace herd {

/// The runtime detection pipeline: the shared per-thread front end
/// delivering each cache miss in line to one trie Detector.
class RaceRuntime : public AccessFrontEnd<RaceRuntime> {
public:
  explicit RaceRuntime(RaceRuntimeOptions Opts = {});
  ~RaceRuntime() override;

  RaceReporter &reporter() { return Reporter; }
  const RaceReporter &reporter() const { return Reporter; }

  RaceRuntimeStats stats() const;

private:
  friend class AccessFrontEnd<RaceRuntime>;

  void deliver(PerThread &T, ThreadId Thread, LocationKey Key,
               AccessKind Access, SiteId Site) {
    Det.handleEvent(eventFor(T, Interner, Thread, Key, Access, Site));
  }
  void syncPoint(bool /*Join*/) {}

  RaceReporter Reporter;
  LockSetInterner Interner; ///< declared before Det, which resolves into it
  Detector Det;
};

extern template class AccessFrontEnd<RaceRuntime>;

} // namespace herd

#endif // HERD_DETECT_RACERUNTIME_H
