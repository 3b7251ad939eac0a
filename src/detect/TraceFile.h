//===- detect/TraceFile.h - Streaming trace file I/O ------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming record/replay over the versioned trace format of
/// detect/TraceFormat.h (see docs/REPLAY.md):
///
///   - TraceWriter is a RuntimeHooks sink that streams every event to a
///     file as it happens — constant memory, so a recording run never
///     materializes the "prohibitively large" trace structure of Section 9
///     in RAM;
///   - TraceReader replays a trace file into any RuntimeHooks sink in
///     bounded-size chunks — the replay driver behind `herd --replay`,
///     which can feed the serial RaceRuntime, the ShardedRuntime at any
///     shard count, or any baseline detector, turning one recorded
///     execution into a differential oracle across every detector.
///
/// All failures (unopenable paths, short writes, bad headers, truncated or
/// corrupt records) surface as TraceResult diagnostics, never as crashes.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_TRACEFILE_H
#define HERD_DETECT_TRACEFILE_H

#include "detect/EventLog.h"
#include "detect/TraceFormat.h"
#include "runtime/Hooks.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace herd {

/// Streams runtime events to a trace file.  Events arriving while no file
/// is open (or after a write error) are dropped; the first error is
/// sticky and reported by close().
class TraceWriter : public RuntimeHooks {
public:
  TraceWriter() = default;
  ~TraceWriter() override;

  TraceWriter(const TraceWriter &) = delete;
  TraceWriter &operator=(const TraceWriter &) = delete;

  /// Creates/truncates \p Path and writes the header.
  TraceResult open(const std::string &Path);

  /// Flushes buffered records and closes the file; returns the first write
  /// error encountered anywhere in the stream.  Idempotent.
  TraceResult close();

  bool isOpen() const { return File != nullptr; }
  uint64_t recordsWritten() const { return Records; }

  /// Total bytes emitted, header included — the Section 9 trace-growth
  /// measure (recordsWritten() * logRecordBytes() + header).
  uint64_t bytesWritten() const { return Bytes; }

  /// Appends one pre-built record (used by writeTraceFile and tests; the
  /// hook overrides below route through this too).
  void write(const EventLog::Record &R);

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
  void onRunEnd() override; ///< flushes the buffer (the file stays open)

private:
  void flushBuffer();

  std::FILE *File = nullptr;
  std::string Path;
  std::vector<uint8_t> Buffer; ///< pending encoded records
  uint64_t Records = 0;
  uint64_t Bytes = 0;
  bool WriteFailed = false;
  std::string FirstError;
};

/// Replays a trace file into a RuntimeHooks sink, reading in bounded
/// chunks (never the whole file at once).
class TraceReader {
public:
  TraceReader() = default;
  ~TraceReader();

  TraceReader(const TraceReader &) = delete;
  TraceReader &operator=(const TraceReader &) = delete;

  /// Opens \p Path and validates the header.
  TraceResult open(const std::string &Path);

  /// Streams every remaining record into \p Sink in recorded order,
  /// stopping with a diagnostic at the first malformed record.  onRunEnd is
  /// not invoked — the caller decides when the sink's run is over.
  ///
  /// Sinks keep per-thread tables indexed by thread, so this is also where
  /// a trace's thread indices are checked, as the interpreter assigns
  /// them: thread 0 exists from the start, each ThreadCreate names the next
  /// index, below MaxThreads, and every other thread a record uses was
  /// created before it.  A trace may open by recording thread 0's own
  /// creation with no parent.  Monitor records must name a lock below
  /// FirstDummyLock, the first dummy join lock, and match the recursion
  /// counts of the interpreter's monitors (flags included).
  TraceResult replayInto(RuntimeHooks &Sink);

  uint64_t recordsRead() const { return Records; }

  /// Records of \p Kind replayed since open().
  uint64_t recordsOfKind(EventLog::RecordKind Kind) const {
    return KindCounts[size_t(Kind)];
  }

  void close();

private:
  /// The thread-index, lock and recursion rules of replayInto() for one
  /// record; on success a ThreadCreate adds its thread and a monitor
  /// record moves its recursion count.
  TraceResult admit(const EventLog::Record &R);

  std::FILE *File = nullptr;
  std::string Path;
  uint64_t Records = 0;
  uint32_t KnownThreads = 1; ///< threads [0, KnownThreads) exist
  /// Every thread's held locks, in take order, with their recursion counts.
  struct HeldLock { ThreadId Thread; LockId Lock; uint32_t Count; };
  std::vector<HeldLock> Held;
  std::array<uint64_t, size_t(EventLog::RecordKind::Access) + 1> KindCounts{};
};

/// Writes \p Log to \p Path in one call (streamed through TraceWriter).
TraceResult writeTraceFile(const std::string &Path, const EventLog &Log);

/// Reads the trace at \p Path into \p Out (cleared first).
TraceResult readTraceFile(const std::string &Path, EventLog &Out);

} // namespace herd

#endif // HERD_DETECT_TRACEFILE_H
