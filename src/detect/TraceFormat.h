//===- detect/TraceFormat.h - Versioned binary trace format -----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk / on-wire encoding shared by the trace subsystem
/// (detect/EventLog in-memory logs, detect/TraceFile streaming I/O, and the
/// `herd --record` / `herd --replay` CLI modes); the full layout is
/// documented in docs/REPLAY.md.
///
/// A trace is a 16-byte header followed by fixed-size records:
///
///   [0, 8)   magic "HERDTRCE"
///   [8, 10)  format version, little-endian u16 (currently 1)
///   [10, 12) header size in bytes, little-endian u16 (16)
///   [12, 16) record size in bytes, little-endian u32 (40)
///
/// Every multi-byte field is little-endian regardless of host order, so a
/// recording process and an analysis process can be different programs on
/// different machines.  There is deliberately no record-count field: the
/// writer streams records as they happen and never seeks, and readers
/// recover the count from the byte length (a length that is not a whole
/// number of records is diagnosed as truncation/trailing garbage).
///
/// Versioning policy: readers reject any trace whose version, header size
/// or record size they do not know, instead of guessing; encoding changes
/// bump the version, and reserved record bytes must be zero in version 1 so
/// they remain available to future versions (and double as a corruption
/// check today).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_TRACEFORMAT_H
#define HERD_DETECT_TRACEFORMAT_H

#include <cstdint>
#include <string>
#include <vector>

namespace herd {

/// The outcome of a trace I/O or decode operation.  Malformed input is a
/// diagnosable error, never undefined behaviour.
struct TraceResult {
  bool Ok = true;
  std::string Error; ///< non-empty when !Ok

  /// Set when the records decode but spell an event stream no run can
  /// produce, such as a thread used before it was created.  herd reports
  /// that like a runtime error (exit 1), a malformed file as a usage error
  /// (exit 2).
  bool InvalidEvents = false;

  static TraceResult success() { return {}; }
  static TraceResult failure(std::string Message) {
    return {false, std::move(Message)};
  }
  static TraceResult invalidEvents(std::string Message) {
    return {false, std::move(Message), true};
  }

  explicit operator bool() const { return Ok; }
};

namespace tracefmt {

inline constexpr uint8_t Magic[8] = {'H', 'E', 'R', 'D', 'T', 'R', 'C', 'E'};
inline constexpr uint16_t Version = 1;
inline constexpr size_t HeaderBytes = 16;
inline constexpr size_t RecordBytes = 40;

/// Record layout (offsets within one 40-byte record).
inline constexpr size_t RecKind = 0;       ///< u8, EventLog::RecordKind
inline constexpr size_t RecFlags = 1;      ///< u8, per-kind flag bit
inline constexpr size_t RecReserved0 = 2;  ///< u16, must be zero
inline constexpr size_t RecThread = 4;     ///< u32, acting thread index
inline constexpr size_t RecOtherThread = 8;///< u32, parent / joined thread
inline constexpr size_t RecLock = 12;      ///< u32, lock index
inline constexpr size_t RecLocation = 16;  ///< u64, LocationKey::raw()
inline constexpr size_t RecSite = 24;      ///< u32, site index
inline constexpr size_t RecThreadObj = 28; ///< u32, thread object index
inline constexpr size_t RecReserved1 = 32; ///< u64, must be zero

inline void put16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(uint8_t(V));
  Out.push_back(uint8_t(V >> 8));
}

inline void put32(std::vector<uint8_t> &Out, uint32_t V) {
  put16(Out, uint16_t(V));
  put16(Out, uint16_t(V >> 16));
}

inline void put64(std::vector<uint8_t> &Out, uint64_t V) {
  put32(Out, uint32_t(V));
  put32(Out, uint32_t(V >> 32));
}

inline uint16_t get16(const uint8_t *In) {
  return uint16_t(In[0] | (uint16_t(In[1]) << 8));
}

inline uint32_t get32(const uint8_t *In) {
  return uint32_t(get16(In)) | (uint32_t(get16(In + 2)) << 16);
}

inline uint64_t get64(const uint8_t *In) {
  return uint64_t(get32(In)) | (uint64_t(get32(In + 4)) << 32);
}

/// Appends the version-1 header.
inline void putHeader(std::vector<uint8_t> &Out) {
  for (uint8_t C : Magic)
    Out.push_back(C);
  put16(Out, Version);
  put16(Out, uint16_t(HeaderBytes));
  put32(Out, uint32_t(RecordBytes));
}

/// Validates a header at \p Data (at least \p Size bytes available).
inline TraceResult checkHeader(const uint8_t *Data, size_t Size) {
  if (Size < HeaderBytes)
    return TraceResult::failure("trace is shorter than the " +
                                std::to_string(HeaderBytes) +
                                "-byte header (" + std::to_string(Size) +
                                " bytes)");
  for (size_t I = 0; I != sizeof(Magic); ++I)
    if (Data[I] != Magic[I])
      return TraceResult::failure("not a HERD trace (bad magic)");
  uint16_t V = get16(Data + 8);
  if (V != Version)
    return TraceResult::failure("unsupported trace version " +
                                std::to_string(V) + " (this build reads " +
                                std::to_string(Version) + ")");
  if (get16(Data + 10) != HeaderBytes)
    return TraceResult::failure("unexpected trace header size " +
                                std::to_string(get16(Data + 10)));
  if (get32(Data + 12) != RecordBytes)
    return TraceResult::failure("unexpected trace record size " +
                                std::to_string(get32(Data + 12)));
  return TraceResult::success();
}

} // namespace tracefmt

} // namespace herd

#endif // HERD_DETECT_TRACEFORMAT_H
