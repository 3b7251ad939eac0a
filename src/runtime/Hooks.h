//===- runtime/Hooks.h - Runtime event observer interface -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observer interface between the interpreter and a race detector.  The
/// interpreter reports synchronization operations (monitor enter/exit,
/// thread start/join/exit) and access events produced by executed Trace
/// instructions; a detector implements this interface (detect/RaceRuntime
/// for the paper's detector, baselines/* for the comparison algorithms).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_RUNTIME_HOOKS_H
#define HERD_RUNTIME_HOOKS_H

#include "ir/Instr.h"
#include "support/Ids.h"

#include <initializer_list>
#include <utility>
#include <vector>

namespace herd {

/// Observer of runtime events.  All callbacks run on the (single) host
/// thread — the simulated program's concurrency is cooperative — so
/// implementations need no synchronization of their own.
class RuntimeHooks {
public:
  virtual ~RuntimeHooks();

  /// A new thread \p Child exists but has not yet been scheduled; \p Parent
  /// executed the ThreadStart.  Invalid Parent denotes the initial (main)
  /// thread, which has no parent.  \p Site is the ThreadStart statement
  /// (invalid when unknown — the main thread, or traces recorded before
  /// sites were captured on sync records); detection never depends on it,
  /// it only feeds diagnostics (docs/REPORTS.md).
  virtual void onThreadCreate(ThreadId Child, ThreadId Parent,
                              ObjectId ThreadObj,
                              SiteId Site = SiteId::invalid()) {
    (void)Child;
    (void)Parent;
    (void)ThreadObj;
    (void)Site;
  }

  /// Thread \p Dying ran to completion.
  virtual void onThreadExit(ThreadId Dying) { (void)Dying; }

  /// \p Joiner completed a join on \p Joined (which has exited).
  virtual void onThreadJoin(ThreadId Joiner, ThreadId Joined) {
    (void)Joiner;
    (void)Joined;
  }

  /// \p Thread acquired \p Lock.  \p Recursive is true when the monitor was
  /// already held by the same thread (Java reentrancy); the detector's
  /// lockset and cache ignore nested acquisitions (Section 4.2).  \p Site
  /// is the acquiring statement (invalid when unknown); diagnostics-only,
  /// like onThreadCreate's.
  virtual void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                              SiteId Site = SiteId::invalid()) {
    (void)Thread;
    (void)Lock;
    (void)Recursive;
    (void)Site;
  }

  /// \p Thread executed monitorexit on \p Lock.  \p StillHeld is true when
  /// the exit was nested (the lock remains held).
  virtual void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) {
    (void)Thread;
    (void)Lock;
    (void)StillHeld;
  }

  /// \p Thread performed a (traced) access of kind \p Access to logical
  /// location \p Location; \p Site is the source statement for reporting.
  virtual void onAccess(ThreadId Thread, LocationKey Location,
                        AccessKind Access, SiteId Site) {
    (void)Thread;
    (void)Location;
    (void)Access;
    (void)Site;
  }

  /// The run is over (normally or by fault); no further events will
  /// arrive.  Detectors with asynchronous machinery (detect/ShardedRuntime)
  /// use this to drain their queues before results are read.
  virtual void onRunEnd() {}
};

/// Forwards every event to a list of observers, so several detectors can
/// watch one execution (used by the comparison experiments and the
/// property tests, which must feed the oracle and the detector the same
/// schedule).
class FanoutHooks : public RuntimeHooks {
public:
  explicit FanoutHooks(std::initializer_list<RuntimeHooks *> List)
      : Sinks(List) {}

  /// For callers that assemble the sink list at runtime (e.g. the pipeline
  /// adding a trace recorder next to the detector).
  explicit FanoutHooks(std::vector<RuntimeHooks *> List)
      : Sinks(std::move(List)) {}

  void onThreadCreate(ThreadId Child, ThreadId Parent, ObjectId ThreadObj,
                      SiteId Site = SiteId::invalid()) override {
    for (RuntimeHooks *H : Sinks)
      H->onThreadCreate(Child, Parent, ThreadObj, Site);
  }
  void onThreadExit(ThreadId Dying) override {
    for (RuntimeHooks *H : Sinks)
      H->onThreadExit(Dying);
  }
  void onThreadJoin(ThreadId Joiner, ThreadId Joined) override {
    for (RuntimeHooks *H : Sinks)
      H->onThreadJoin(Joiner, Joined);
  }
  void onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                      SiteId Site = SiteId::invalid()) override {
    for (RuntimeHooks *H : Sinks)
      H->onMonitorEnter(Thread, Lock, Recursive, Site);
  }
  void onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) override {
    for (RuntimeHooks *H : Sinks)
      H->onMonitorExit(Thread, Lock, StillHeld);
  }
  void onAccess(ThreadId Thread, LocationKey Location, AccessKind Access,
                SiteId Site) override {
    for (RuntimeHooks *H : Sinks)
      H->onAccess(Thread, Location, Access, Site);
  }
  void onRunEnd() override {
    for (RuntimeHooks *H : Sinks)
      H->onRunEnd();
  }

private:
  std::vector<RuntimeHooks *> Sinks;
};

} // namespace herd

#endif // HERD_RUNTIME_HOOKS_H
