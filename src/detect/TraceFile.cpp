//===- detect/TraceFile.cpp - Streaming trace file I/O --------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/TraceFile.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

using namespace herd;
using namespace herd::tracefmt;

namespace {

/// Flush the producer-side buffer once it holds this many bytes; one
/// fwrite per ~1638 records keeps recording overhead off the hot path.
constexpr size_t FlushThresholdBytes = 64 * 1024;

std::string errnoMessage(const std::string &What, const std::string &Path) {
  return What + " '" + Path + "': " + std::strerror(errno);
}

} // namespace

//===----------------------------------------------------------------------===
// TraceWriter
//===----------------------------------------------------------------------===

TraceWriter::~TraceWriter() { close(); }

TraceResult TraceWriter::open(const std::string &ToPath) {
  if (File)
    return TraceResult::failure("trace writer is already open on '" + Path +
                                "'");
  File = std::fopen(ToPath.c_str(), "wb");
  if (!File)
    return TraceResult::failure(errnoMessage("cannot create trace", ToPath));
  Path = ToPath;
  Records = 0;
  Bytes = 0;
  WriteFailed = false;
  FirstError.clear();
  Buffer.clear();
  Buffer.reserve(FlushThresholdBytes + RecordBytes);
  putHeader(Buffer);
  return TraceResult::success();
}

void TraceWriter::flushBuffer() {
  if (!File || Buffer.empty())
    return;
  if (!WriteFailed &&
      std::fwrite(Buffer.data(), 1, Buffer.size(), File) != Buffer.size()) {
    WriteFailed = true;
    FirstError = errnoMessage("short write to trace", Path);
  }
  Bytes += Buffer.size();
  Buffer.clear();
}

void TraceWriter::write(const EventLog::Record &R) {
  if (!File)
    return;
  EventLog::encodeRecord(Buffer, R);
  ++Records;
  if (Buffer.size() >= FlushThresholdBytes)
    flushBuffer();
}

TraceResult TraceWriter::close() {
  if (!File)
    return WriteFailed ? TraceResult::failure(FirstError)
                       : TraceResult::success();
  flushBuffer();
  if (std::fclose(File) != 0 && !WriteFailed) {
    WriteFailed = true;
    FirstError = errnoMessage("cannot close trace", Path);
  }
  File = nullptr;
  return WriteFailed ? TraceResult::failure(FirstError)
                     : TraceResult::success();
}

void TraceWriter::onThreadCreate(ThreadId Child, ThreadId Parent,
                                 ObjectId ThreadObj, SiteId Site) {
  write(EventLog::Record::threadCreate(Child, Parent, ThreadObj, Site));
}

void TraceWriter::onThreadExit(ThreadId Dying) {
  write(EventLog::Record::threadExit(Dying));
}

void TraceWriter::onThreadJoin(ThreadId Joiner, ThreadId Joined) {
  write(EventLog::Record::threadJoin(Joiner, Joined));
}

void TraceWriter::onMonitorEnter(ThreadId Thread, LockId Lock,
                                 bool Recursive, SiteId Site) {
  write(EventLog::Record::monitorEnter(Thread, Lock, Recursive, Site));
}

void TraceWriter::onMonitorExit(ThreadId Thread, LockId Lock,
                                bool StillHeld) {
  write(EventLog::Record::monitorExit(Thread, Lock, StillHeld));
}

void TraceWriter::onAccess(ThreadId Thread, LocationKey Location,
                           AccessKind Access, SiteId Site) {
  write(EventLog::Record::access(Thread, Location, Access, Site));
}

void TraceWriter::onRunEnd() { flushBuffer(); }

//===----------------------------------------------------------------------===
// TraceReader
//===----------------------------------------------------------------------===

TraceReader::~TraceReader() { close(); }

void TraceReader::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}

TraceResult TraceReader::open(const std::string &FromPath) {
  close();
  Records = 0;
  KnownThreads = 1;
  Held.clear();
  Held.reserve(16);
  KindCounts.fill(0);
  File = std::fopen(FromPath.c_str(), "rb");
  if (!File)
    return TraceResult::failure(errnoMessage("cannot open trace", FromPath));
  Path = FromPath;
  uint8_t Header[HeaderBytes];
  size_t Got = std::fread(Header, 1, HeaderBytes, File);
  if (TraceResult Res = checkHeader(Header, Got); !Res) {
    close();
    return TraceResult::failure("'" + FromPath + "': " + Res.Error);
  }
  return TraceResult::success();
}

TraceResult TraceReader::replayInto(RuntimeHooks &Sink) {
  if (!File)
    return TraceResult::failure("no trace is open");
  constexpr size_t ChunkRecords = 1024;
  std::vector<uint8_t> Chunk(ChunkRecords * RecordBytes);
  for (;;) {
    size_t Got = std::fread(Chunk.data(), 1, Chunk.size(), File);
    if (Got == 0)
      break;
    if (Got % RecordBytes != 0)
      return TraceResult::failure(
          "'" + Path + "': trace ends mid-record after record " +
          std::to_string(Records + Got / RecordBytes) +
          " (truncated file or trailing garbage)");
    for (size_t At = 0; At != Got; At += RecordBytes) {
      EventLog::Record R;
      if (TraceResult Res = EventLog::decodeRecord(Chunk.data() + At, R);
          !Res)
        return TraceResult::failure("'" + Path + "': record " +
                                    std::to_string(Records) + ": " +
                                    Res.Error);
      // An access by a known thread, the common record, needs no more.
      if (R.Kind != EventLog::RecordKind::Access ||
          R.Thread.index() >= KnownThreads) {
        if (TraceResult Res = admit(R); !Res)
          return TraceResult::invalidEvents("'" + Path + "': record " +
                                            std::to_string(Records) + ": " +
                                            Res.Error);
      }
      R.dispatch(Sink);
      ++Records;
      ++KindCounts[size_t(R.Kind)];
    }
  }
  if (std::ferror(File))
    return TraceResult::failure(errnoMessage("read error on trace", Path));
  return TraceResult::success();
}

TraceResult TraceReader::admit(const EventLog::Record &R) {
  auto Known = [this](ThreadId T) { return T.index() < KnownThreads; };
  auto Name = [](ThreadId T) { return "thread " + std::to_string(T.index()); };
  // A program lock the detectors would take for a thread's dummy join lock
  // would hide that thread's races.
  if ((R.Kind == EventLog::RecordKind::MonitorEnter ||
       R.Kind == EventLog::RecordKind::MonitorExit) &&
      R.Lock.index() >= FirstDummyLock)
    return TraceResult::failure(
        "names lock " + std::to_string(R.Lock.index()) +
        ", in the dummy join locks' range (lock ids must be below " +
        std::to_string(FirstDummyLock) + ")");
  if (R.Kind == EventLog::RecordKind::ThreadCreate) {
    if (R.Thread.index() == 0 && !R.OtherThread.isValid() && Records == 0)
      return TraceResult::success();
    if (R.Thread.index() != KnownThreads)
      return TraceResult::failure(
          "creates " + Name(R.Thread) + ", but the next thread index is " +
          std::to_string(KnownThreads));
    if (!Known(R.OtherThread))
      return TraceResult::failure("creates " + Name(R.Thread) + " from " +
                                  Name(R.OtherThread) +
                                  ", which was never created");
    if (KnownThreads == MaxThreads)
      return TraceResult::failure("creates " + Name(R.Thread) +
                                  ", past the thread limit of " +
                                  std::to_string(MaxThreads) + " threads");
    ++KnownThreads;
    return TraceResult::success();
  }
  if (!Known(R.Thread))
    return TraceResult::failure("names " + Name(R.Thread) +
                                ", which was never created");
  if (R.Kind == EventLog::RecordKind::ThreadJoin && !Known(R.OtherThread))
    return TraceResult::failure(Name(R.Thread) + " joins " +
                                Name(R.OtherThread) +
                                ", which was never created");
  bool Enter = R.Kind == EventLog::RecordKind::MonitorEnter;
  if (!Enter && R.Kind != EventLog::RecordKind::MonitorExit)
    return TraceResult::success();
  // Threads hold few locks at a time: a scan, latest first, beats a hash.
  auto It = std::find_if(Held.rbegin(), Held.rend(), [&](const HeldLock &H) {
    return H.Thread == R.Thread && H.Lock == R.Lock;
  });
  uint32_t Count = It == Held.rend() ? 0 : It->Count;
  // Recursive: held before the enter.  StillHeld: held after the exit.
  bool HeldBesides = Enter ? Count != 0 : Count > 1;
  bool Unheld = !Enter && Count == 0;
  if (Unheld || (R.Flags != 0) != HeldBesides)
    return TraceResult::failure(
        Name(R.Thread) + (Enter ? " enters" : " exits") + " lock " +
        std::to_string(R.Lock.index()) +
        (Unheld ? ", which it does not hold"
                : ", held " + std::to_string(Count) + " times, " +
                      (HeldBesides ? "without" : "with") + " the " +
                      (Enter ? "recursive" : "still-held") + " flag"));
  if (It == Held.rend())
    Held.push_back({R.Thread, R.Lock, 1});
  else if (Enter)
    ++It->Count;
  else if (--It->Count == 0)
    Held.erase(std::next(It).base());
  return TraceResult::success();
}

//===----------------------------------------------------------------------===
// Whole-file convenience
//===----------------------------------------------------------------------===

TraceResult herd::writeTraceFile(const std::string &Path,
                                 const EventLog &Log) {
  TraceWriter Writer;
  if (TraceResult Res = Writer.open(Path); !Res)
    return Res;
  for (const EventLog::Record &R : Log.records())
    Writer.write(R);
  return Writer.close();
}

TraceResult herd::readTraceFile(const std::string &Path, EventLog &Out) {
  Out.clear();
  TraceReader Reader;
  if (TraceResult Res = Reader.open(Path); !Res)
    return Res;
  TraceResult Res = Reader.replayInto(Out);
  if (!Res)
    Out.clear(); // whole-file reads are atomic: no partial log on failure
  return Res;
}
