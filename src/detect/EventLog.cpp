//===- detect/EventLog.cpp - Post-mortem event logging --------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/EventLog.h"

#include "support/Compiler.h"

using namespace herd;
using namespace herd::tracefmt;

//===----------------------------------------------------------------------===
// Record builders and dispatch
//===----------------------------------------------------------------------===

EventLog::Record EventLog::Record::threadCreate(ThreadId Child,
                                                ThreadId Parent,
                                                ObjectId ThreadObj,
                                                SiteId Site) {
  Record R;
  R.Kind = RecordKind::ThreadCreate;
  R.Thread = Child;
  R.OtherThread = Parent;
  R.ThreadObj = ThreadObj;
  R.Site = Site;
  return R;
}

EventLog::Record EventLog::Record::threadExit(ThreadId Dying) {
  Record R;
  R.Kind = RecordKind::ThreadExit;
  R.Thread = Dying;
  return R;
}

EventLog::Record EventLog::Record::threadJoin(ThreadId Joiner,
                                              ThreadId Joined) {
  Record R;
  R.Kind = RecordKind::ThreadJoin;
  R.Thread = Joiner;
  R.OtherThread = Joined;
  return R;
}

EventLog::Record EventLog::Record::monitorEnter(ThreadId Thread, LockId Lock,
                                                bool Recursive, SiteId Site) {
  Record R;
  R.Kind = RecordKind::MonitorEnter;
  R.Thread = Thread;
  R.Lock = Lock;
  R.Flags = Recursive ? 1 : 0;
  R.Site = Site;
  return R;
}

EventLog::Record EventLog::Record::monitorExit(ThreadId Thread, LockId Lock,
                                               bool StillHeld) {
  Record R;
  R.Kind = RecordKind::MonitorExit;
  R.Thread = Thread;
  R.Lock = Lock;
  R.Flags = StillHeld ? 1 : 0;
  return R;
}

EventLog::Record EventLog::Record::access(ThreadId Thread,
                                          LocationKey Location,
                                          AccessKind Access, SiteId Site) {
  Record R;
  R.Kind = RecordKind::Access;
  R.Thread = Thread;
  R.Location = Location;
  R.Flags = Access == AccessKind::Write ? 1 : 0;
  R.Site = Site;
  return R;
}

void EventLog::Record::dispatch(RuntimeHooks &Sink) const {
  switch (Kind) {
  case RecordKind::ThreadCreate:
    Sink.onThreadCreate(Thread, OtherThread, ThreadObj, Site);
    break;
  case RecordKind::ThreadExit:
    Sink.onThreadExit(Thread);
    break;
  case RecordKind::ThreadJoin:
    Sink.onThreadJoin(Thread, OtherThread);
    break;
  case RecordKind::MonitorEnter:
    Sink.onMonitorEnter(Thread, Lock, Flags != 0, Site);
    break;
  case RecordKind::MonitorExit:
    Sink.onMonitorExit(Thread, Lock, Flags != 0);
    break;
  case RecordKind::Access:
    Sink.onAccess(Thread, Location,
                  Flags ? AccessKind::Write : AccessKind::Read, Site);
    break;
  }
}

//===----------------------------------------------------------------------===
// Hook recording and replay
//===----------------------------------------------------------------------===

void EventLog::onThreadCreate(ThreadId Child, ThreadId Parent,
                              ObjectId ThreadObj, SiteId Site) {
  Records.push_back(Record::threadCreate(Child, Parent, ThreadObj, Site));
}

void EventLog::onThreadExit(ThreadId Dying) {
  Records.push_back(Record::threadExit(Dying));
}

void EventLog::onThreadJoin(ThreadId Joiner, ThreadId Joined) {
  Records.push_back(Record::threadJoin(Joiner, Joined));
}

void EventLog::onMonitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                              SiteId Site) {
  Records.push_back(Record::monitorEnter(Thread, Lock, Recursive, Site));
}

void EventLog::onMonitorExit(ThreadId Thread, LockId Lock, bool StillHeld) {
  Records.push_back(Record::monitorExit(Thread, Lock, StillHeld));
}

void EventLog::onAccess(ThreadId Thread, LocationKey Location,
                        AccessKind Access, SiteId Site) {
  Records.push_back(Record::access(Thread, Location, Access, Site));
}

void EventLog::replayInto(RuntimeHooks &Sink) const {
  for (const Record &R : Records)
    R.dispatch(Sink);
}

//===----------------------------------------------------------------------===
// Serialization (the versioned format of detect/TraceFormat.h)
//===----------------------------------------------------------------------===

void EventLog::encodeRecord(std::vector<uint8_t> &Out, const Record &R) {
  Out.push_back(uint8_t(R.Kind));
  Out.push_back(R.Flags);
  put16(Out, 0); // RecReserved0
  put32(Out, R.Thread.index());
  put32(Out, R.OtherThread.index());
  put32(Out, R.Lock.index());
  put64(Out, R.Location.raw());
  put32(Out, R.Site.index());
  put32(Out, R.ThreadObj.index());
  put64(Out, 0); // RecReserved1: keeps the record at RecordBytes and gives
                 // future versions room without a format break
}

TraceResult EventLog::decodeRecord(const uint8_t *Bytes, Record &Out) {
  uint8_t Kind = Bytes[RecKind];
  if (Kind > uint8_t(RecordKind::Access))
    return TraceResult::failure("unknown record kind " +
                                std::to_string(Kind));
  if (get16(Bytes + RecReserved0) != 0 || get64(Bytes + RecReserved1) != 0)
    return TraceResult::failure("nonzero reserved record bytes (corrupt "
                                "trace or future format)");
  Out.Kind = RecordKind(Kind);
  Out.Flags = Bytes[RecFlags];
  Out.Thread = ThreadId(get32(Bytes + RecThread));
  Out.OtherThread = ThreadId(get32(Bytes + RecOtherThread));
  Out.Lock = LockId(get32(Bytes + RecLock));
  Out.Location = LocationKey::fromRaw(get64(Bytes + RecLocation));
  Out.Site = SiteId(get32(Bytes + RecSite));
  Out.ThreadObj = ObjectId(get32(Bytes + RecThreadObj));
  return TraceResult::success();
}

std::vector<uint8_t> EventLog::serialize() const {
  std::vector<uint8_t> Out;
  Out.reserve(HeaderBytes + Records.size() * RecordBytes);
  putHeader(Out);
  for (const Record &R : Records)
    encodeRecord(Out, R);
  return Out;
}
