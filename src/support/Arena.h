//===- support/Arena.h - Index-stable run allocator -------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer pool of fixed-size objects addressed by dense 32-bit
/// indices, handed out in runs of consecutive slots.  The reference
/// access trie (detect/AccessTrie.h) stores its nodes here: each trie takes
/// its nodes a run at a time, so one location's nodes sit together in
/// memory, and a steady stream of events never touches the global
/// allocator.
///
/// Indices are stable for the lifetime of the arena: storage grows in
/// fixed-size chunks that are never moved or reallocated, so an index held
/// across later allocations stays valid (the property the trie's sibling
/// links rely on).  A run never straddles a chunk, so its slots are
/// adjacent in memory.  The arena never takes a slot back: callers recycle
/// slots themselves, and every chunk goes with the arena.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_ARENA_H
#define HERD_SUPPORT_ARENA_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace herd {

/// A chunked pool of default-constructible \p T addressed by uint32_t
/// indices.
template <typename T> class Arena {
public:
  /// Sentinel for "no slot"; never handed out.
  static constexpr uint32_t None = 0xFFFFFFFF;

  /// Slots per chunk.  4096 slots per chunk keeps growth coarse enough to
  /// be rare and fine enough not to waste memory on small detectors.
  static constexpr uint32_t ChunkSize = 4096;

  /// A run of consecutive fresh slots [First, First + Slots).
  struct Run {
    uint32_t First = None;
    uint32_t Slots = 0;
  };

  /// Hands out up to \p Want (1..ChunkSize) consecutive fresh,
  /// default-constructed slots in one chunk.  The run is shorter only when
  /// the current chunk has fewer slots left, so no slot is ever skipped.
  Run allocateRun(uint32_t Want) {
    assert(Want != 0 && Want <= ChunkSize && "run size out of range");
    assert(Size <= MaxSlots - Want && "arena index space exhausted");
    if (Size / ChunkSize >= Chunks.size())
      Chunks.push_back(std::make_unique<T[]>(ChunkSize));
    Run R;
    R.First = Size;
    R.Slots = std::min(Want, ChunkSize - Size % ChunkSize);
    Size += R.Slots;
    return R;
  }

  T &operator[](uint32_t Index) {
    assert(Index < Size && "arena index out of range");
    return Chunks[Index / ChunkSize][Index % ChunkSize];
  }
  const T &operator[](uint32_t Index) const {
    assert(Index < Size && "arena index out of range");
    return Chunks[Index / ChunkSize][Index % ChunkSize];
  }

  /// Number of chunks needed to hold \p Slots slots, with the request
  /// clamped to the 32-bit index space (None is reserved, so the largest
  /// addressable slot count is 0xFFFFFFFE).
  static size_t chunksFor(size_t Slots) {
    if (Slots > MaxSlots)
      Slots = MaxSlots;
    return (Slots + ChunkSize - 1) / ChunkSize;
  }

  /// Pre-allocates chunk storage so that \p Slots more slots, in runs of
  /// any size, are handed out without touching the global allocator.
  void reserve(size_t Slots) {
    size_t Want = chunksFor(std::min(Slots, MaxSlots - Size) + Size);
    while (Chunks.size() < Want)
      Chunks.push_back(std::make_unique<T[]>(ChunkSize));
  }

  /// Slots backed by already-allocated chunk storage.
  size_t reservedSlots() const { return Chunks.size() * size_t(ChunkSize); }

  /// Slots handed out so far.
  size_t capacityUsed() const { return Size; }

private:
  static constexpr size_t MaxSlots = 0xFFFFFFFE;

  std::vector<std::unique_ptr<T[]>> Chunks;
  uint32_t Size = 0;
};

} // namespace herd

#endif // HERD_SUPPORT_ARENA_H
