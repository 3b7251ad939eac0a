//===- detect/EventLog.h - Post-mortem event logging ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-mortem detection (Section 1): "our approach could be easily
/// modified to perform post-mortem datarace detection by creating a log of
/// access events during program execution and performing the final
/// datarace detection phase off-line."
///
/// EventLog is a RuntimeHooks sink that records the full event stream (a
/// compact tagged record per event); replayInto() later feeds any other
/// RuntimeHooks implementation — the trie detector for offline race
/// detection, the sharded runtime at any shard count, or the baseline
/// detectors for differential comparison — without re-running the program.
/// Logs round-trip through the versioned byte format of
/// detect/TraceFormat.h (serialize / deserialize), and detect/TraceFile.h
/// streams the same format to and from disk, so a recording process and an
/// analysis process can be different programs.
///
/// Section 9 notes the classic post-mortem pitfall: "the size of the trace
/// structure can grow prohibitively large"; logRecordBytes() makes that
/// cost measurable (the Table 2 harness's event counts multiply directly;
/// bench/bench_hotpath.cpp reports bytes per event on the workloads).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_EVENTLOG_H
#define HERD_DETECT_EVENTLOG_H

#include "detect/TraceFormat.h"
#include "runtime/Hooks.h"

#include <cstdint>
#include <vector>

namespace herd {

/// Records every runtime event in order.
class EventLog : public RuntimeHooks {
public:
  enum class RecordKind : uint8_t {
    ThreadCreate,
    ThreadExit,
    ThreadJoin,
    MonitorEnter,
    MonitorExit,
    Access,
  };

  /// One log record; fields are interpreted per RecordKind.
  struct Record {
    RecordKind Kind;
    uint8_t Flags = 0;   ///< recursive / still-held / access kind
    ThreadId Thread;     ///< acting thread (or child for ThreadCreate)
    ThreadId OtherThread;///< parent / joined thread
    LockId Lock;
    LocationKey Location;
    SiteId Site;
    ObjectId ThreadObj;

    // Builders: the single place the hook-to-record mapping lives, shared
    // by EventLog and the streaming TraceWriter.
    static Record threadCreate(ThreadId Child, ThreadId Parent,
                               ObjectId ThreadObj,
                               SiteId Site = SiteId::invalid());
    static Record threadExit(ThreadId Dying);
    static Record threadJoin(ThreadId Joiner, ThreadId Joined);
    static Record monitorEnter(ThreadId Thread, LockId Lock, bool Recursive,
                               SiteId Site = SiteId::invalid());
    static Record monitorExit(ThreadId Thread, LockId Lock, bool StillHeld);
    static Record access(ThreadId Thread, LocationKey Location,
                         AccessKind Access, SiteId Site);

    /// Delivers this record to \p Sink as the hook call it was recorded
    /// from — the inverse of the builders above.
    void dispatch(RuntimeHooks &Sink) const;
  };

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

  /// Replays the whole log into \p Sink in recorded order (onRunEnd is not
  /// invoked; callers decide when the sink's run is over).
  void replayInto(RuntimeHooks &Sink) const;

  const std::vector<Record> &records() const { return Records; }
  size_t size() const { return Records.size(); }
  bool empty() const { return Records.empty(); }
  void clear() { Records.clear(); }

  /// Bytes one record occupies in the serialized form.
  static constexpr size_t logRecordBytes() { return tracefmt::RecordBytes; }

  /// Encodes one record (exactly logRecordBytes() bytes) onto \p Out.
  static void encodeRecord(std::vector<uint8_t> &Out, const Record &R);

  /// Decodes one record from exactly logRecordBytes() bytes at \p Bytes.
  /// Fails on an unknown record kind or nonzero reserved bytes.
  static TraceResult decodeRecord(const uint8_t *Bytes, Record &Out);

  /// Serializes to a portable little-endian byte buffer in the versioned
  /// trace format (16-byte header + records; detect/TraceFormat.h).
  std::vector<uint8_t> serialize() const;

  /// Restores a log from a serialized trace.  Every read is bounds-checked:
  /// a bad header, a truncated record, trailing garbage, an unknown record
  /// kind or nonzero reserved bytes all yield a diagnostic error (and an
  /// empty \p Out), never an out-of-bounds access or silent truncation.
  static TraceResult deserialize(const std::vector<uint8_t> &Bytes,
                                 EventLog &Out);

private:
  std::vector<Record> Records;
};

} // namespace herd

#endif // HERD_DETECT_EVENTLOG_H
