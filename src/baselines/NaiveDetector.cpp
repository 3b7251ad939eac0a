//===- baselines/NaiveDetector.cpp - Exact O(N^2) race oracle -------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "baselines/NaiveDetector.h"

#include "detect/RaceRuntime.h"

using namespace herd;

void NaiveDetector::onThreadCreate(ThreadId Child, ThreadId Parent,
                                   ObjectId ThreadObj, SiteId Site) {
  (void)Parent;
  (void)ThreadObj;
  (void)Site;
  if (!Opts.ModelJoin)
    return;
  size_t Index = Child.index();
  if (Index >= ExtraLocks.size())
    ExtraLocks.resize(Index + 1);
  ExtraLocks[Index].insert(RaceRuntime::dummyLockOf(Child));
}

void NaiveDetector::onThreadExit(ThreadId Dying) {
  if (!Opts.ModelJoin || Dying.index() >= ExtraLocks.size())
    return;
  ExtraLocks[Dying.index()].erase(RaceRuntime::dummyLockOf(Dying));
}

void NaiveDetector::onThreadJoin(ThreadId Joiner, ThreadId Joined) {
  if (!Opts.ModelJoin)
    return;
  size_t Index = Joiner.index();
  if (Index >= ExtraLocks.size())
    ExtraLocks.resize(Index + 1);
  ExtraLocks[Index].insert(RaceRuntime::dummyLockOf(Joined));
}

void NaiveDetector::onMonitorEnter(ThreadId Thread, LockId Lock,
                                   bool Recursive, SiteId Site) {
  (void)Site;
  Locks.enter(Thread, Lock, Recursive);
}

void NaiveDetector::onMonitorExit(ThreadId Thread, LockId Lock,
                                  bool StillHeld) {
  Locks.exit(Thread, Lock, StillHeld);
}

void NaiveDetector::onAccess(ThreadId Thread, LocationKey Location,
                             AccessKind Access, SiteId Site) {
  AccessEvent Event;
  Event.Location = Location;
  Event.Thread = Thread;
  Event.Locks = Locks.held(Thread);
  if (Thread.index() < ExtraLocks.size())
    Event.Locks.unionWith(ExtraLocks[Thread.index()]);
  Event.Access = Access;
  Event.Site = Site;
  addEvent(Event);
}

void NaiveDetector::addEvent(const AccessEvent &Event) {
  PerLocation &State = Table[Event.Location];
  if (Opts.UseOwnership && !State.Shared) {
    if (State.Events.empty() && !State.Owner.isValid()) {
      State.Owner = Event.Thread;
      return;
    }
    if (State.Owner == Event.Thread)
      return;
    State.Shared = true;
  }
  State.Events.push_back(Event);
}

std::set<LocationKey> NaiveDetector::racyLocations() const {
  std::set<LocationKey> Result;
  for (const auto &[Location, State] : Table) {
    const std::vector<AccessEvent> &Events = State.Events;
    bool Racy = false;
    for (size_t I = 0; I != Events.size() && !Racy; ++I)
      for (size_t J = I + 1; J != Events.size() && !Racy; ++J)
        Racy = isRace(Events[I], Events[J]);
    if (Racy)
      Result.insert(Location);
  }
  return Result;
}

size_t NaiveDetector::memRaceSize(LocationKey Location) const {
  auto It = Table.find(Location);
  if (It == Table.end())
    return 0;
  const std::vector<AccessEvent> &Events = It->second.Events;
  size_t Count = 0;
  for (size_t I = 0; I != Events.size(); ++I)
    for (size_t J = I + 1; J != Events.size(); ++J)
      Count += isRace(Events[I], Events[J]);
  return Count;
}
