//===- detect/Detector.cpp - Runtime datarace detector --------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"

using namespace herd;

void Detector::applyPlan(const DetectorPlan &Plan) {
  DetectorPlan P = Plan.clamped();
  if (P.empty())
    return;
  Table.reserve(P.ExpectedLocations);
  Histories.reserve(P.ExpectedTrieNodes);
  Interner->reserve(P.ExpectedLocksets);
  for (const LockSet &Set : P.PreinternLocksets)
    Interner->intern(Set);
}

void Detector::handleAccess(const AccessEvent &Event) {
  DetectorEvent E;
  E.Location = Event.Location;
  E.Thread = Event.Thread;
  E.Locks = Interner->intern(Event.Locks);
  E.Access = Event.Access;
  E.Site = Event.Site;
  handleEvent(E);
}

void Detector::handleEvent(const DetectorEvent &Event) {
  ++Stats.EventsIn;

  auto [State, Inserted] = Table.tryEmplace(Event.Location);
  if (Inserted)
    ++Stats.LocationsTracked;

  if (Opts.UseOwnership && !State->Shared) {
    if (Inserted || !State->Owner.isValid()) {
      // First access: the accessing thread becomes the owner (Section 7.1).
      State->Owner = Event.Thread;
      ++Stats.OwnedFiltered;
      return;
    }
    if (State->Owner == Event.Thread) {
      ++Stats.OwnedFiltered;
      return;
    }
    // A second thread touched the location: it becomes shared, and this
    // access and all subsequent ones flow to the history.
    ThreadId Owner = State->Owner;
    State->Shared = true;
    State->Owner = ThreadId::invalid();
    ++Stats.LocationsShared;
    if (OnShared)
      OnShared(Event.Location, Owner);
  } else if (!State->Shared) {
    State->Shared = true;
    ++Stats.LocationsShared;
  }

  AccessHistory::Outcome Outcome =
      State->History.process(Histories, *Interner, Event.Thread, Event.Locks,
                             Event.Access, Event.Site);
  if (Outcome.Filtered) {
    ++Stats.WeakerFiltered;
    return;
  }
  if (!Outcome.Raced)
    return;

  ++Stats.RacesReported;
  RaceRecord Record;
  Record.Location = Event.Location;
  Record.Fingerprint =
      raceFingerprint(Event.Location, Event.Site, Event.Access,
                      Outcome.PriorSite, Outcome.PriorAccess);
  Record.CurrentThread = Event.Thread;
  Record.CurrentAccess = Event.Access;
  Record.CurrentSite = Event.Site;
  Record.PriorThreadKnown = Outcome.PriorThreadKnown;
  Record.PriorThread = Outcome.PriorThread;
  Record.PriorAccess = Outcome.PriorAccess;
  Record.PriorSite = Outcome.PriorSite;
  Reporter.report(Record, FirstAtLocation(!State->Raced),
                  Interner->resolve(Event.Locks).items(),
                  Interner->resolve(Outcome.PriorLocks).items());
  State->Raced = true;
}
