//===- support/LockSetInterner.h - Canonical lockset ids --------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalizes locksets to dense 4-byte LockSetIds so that the per-event
/// hot path passes an id instead of copying a SortedIdSet.  Threads hold few
/// distinct locksets over a run (Section 2.4: typically 0-3 locks, and the
/// set only changes at monitorenter/exit, not per access), so interning at
/// lockset-change time amortizes to nothing while removing the per-event
/// vector copy the old AccessEvent path paid.
///
/// Each interned set also carries a 64-bit membership mask over the first 64
/// distinct locks seen (dense-remapped), and whether that mask covers every
/// member.  A mask bit is always a real member, so the access history's
/// subset and disjointness tests (detect/AccessHistory.cpp) are one AND or
/// ANDN whenever both sets are exact — which covers every workload in this
/// repo — and a merge of the resolved sets otherwise.
///
/// Thread-safety contract (mirrors BoundedBatchQueue's producer contract):
/// intern() is producer-thread-only.  resolve(), mask() and isExact() may
/// be called concurrently from other threads (the shard workers'
/// detectors) for any id that reached them through a synchronizing channel
/// (the sharded runtime's batch queue mutex): entries are fully constructed
/// before their id is published, and the chunk directory is a fixed-size
/// array so no resolve() ever observes a reallocating std::vector spine.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_LOCKSETINTERNER_H
#define HERD_SUPPORT_LOCKSETINTERNER_H

#include "support/Ids.h"
#include "support/SortedIdSet.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

namespace herd {

using LockSet = SortedIdSet<LockId>;

class LockSetInterner {
public:
  /// Interned sets per chunk; chunks never move once allocated.
  static constexpr uint32_t ChunkSize = 1024;

  /// Fixed chunk-directory capacity: up to MaxChunks * ChunkSize distinct
  /// locksets per run, past which intern() throws std::bad_alloc, as the
  /// HistoryStore and RaceReporter do past their index spaces.  A fixed
  /// array (not a vector) is what makes concurrent resolve() safe against
  /// intern() growing the store.
  static constexpr uint32_t MaxChunks = 4096;

  LockSetInterner() {
    LockSetId Empty = intern(LockSet());
    (void)Empty;
    assert(Empty.index() == 0 && "empty set must intern as id 0");
  }

  LockSetInterner(const LockSetInterner &) = delete;
  LockSetInterner &operator=(const LockSetInterner &) = delete;

  /// The canonical id of the empty lockset.
  static constexpr LockSetId emptySet() { return LockSetId(0); }

  /// Returns the canonical id for \p Set, interning it on first sight.
  /// Producer-thread-only.
  LockSetId intern(const LockSet &Set) {
    uint64_t H = hashSet(Set);
    std::vector<uint32_t> &Bucket = Lookup[H];
    for (uint32_t Id : Bucket)
      if (entry(Id).Set == Set)
        return LockSetId(Id);

    uint32_t Id = NumSets.load(std::memory_order_relaxed);
    uint32_t Chunk = Id / ChunkSize;
    if (Chunk >= MaxChunks)
      throw std::bad_alloc(); // the directory is full: never index past it
    if (!Chunks[Chunk])
      Chunks[Chunk] = std::make_unique<Entry[]>(ChunkSize);
    Entry &E = Chunks[Chunk][Id % ChunkSize];
    E.Set = Set;
    E.Mask = 0;
    E.Exact = true;
    for (LockId Lock : Set) {
      auto [It, Inserted] =
          DenseLocks.try_emplace(Lock.index(), uint32_t(DenseLocks.size()));
      (void)Inserted;
      if (It->second < 64)
        E.Mask |= uint64_t(1) << It->second;
      else
        E.Exact = false;
    }
    // Publish only after E is fully constructed; release pairs with the
    // acquire in entry() so concurrent resolvers see the entry complete
    // (the batch-queue mutex already orders this for the sharded runtime,
    // the atomic keeps the interner correct on its own terms too).
    NumSets.store(Id + 1, std::memory_order_release);
    Bucket.push_back(Id);
    return LockSetId(Id);
  }

  /// The set behind \p Id.  Safe to call concurrently with intern() for any
  /// published id (see file comment).
  const LockSet &resolve(LockSetId Id) const { return entry(Id.index()).Set; }

  /// The membership mask of \p Id over the first 64 distinct locks, and
  /// whether it covers every member of the set.  A mask bit is always a
  /// real member, so one AND/ANDN decides subset and disjointness when
  /// both sets are exact.  Safe to call concurrently with intern() for
  /// any published id, like resolve().
  uint64_t mask(LockSetId Id) const { return entry(Id.index()).Mask; }
  bool isExact(LockSetId Id) const { return entry(Id.index()).Exact; }

  /// Number of distinct locksets interned so far (>= 1: the empty set).
  size_t size() const { return NumSets.load(std::memory_order_acquire); }

  /// Number of distinct locks seen across all interned sets.
  size_t lockUniverse() const { return DenseLocks.size(); }

  /// Pre-sizes the lookup structures for \p ExpectedSets distinct locksets
  /// so a plan-sized run interns without rehashing or chunk allocation.
  /// Producer-thread-only, like intern().
  void reserve(size_t ExpectedSets) {
    Lookup.reserve(ExpectedSets);
    size_t WantChunks = (ExpectedSets + ChunkSize - 1) / ChunkSize;
    if (WantChunks > MaxChunks)
      WantChunks = MaxChunks;
    for (size_t Chunk = 0; Chunk != WantChunks; ++Chunk)
      if (!Chunks[Chunk])
        Chunks[Chunk] = std::make_unique<Entry[]>(ChunkSize);
  }

private:
  struct Entry {
    LockSet Set;
    uint64_t Mask = 0; ///< membership over dense lock indices < 64
    bool Exact = false; ///< Mask covers every member of Set
  };

  const Entry &entry(uint32_t Id) const {
    assert(Id < NumSets.load(std::memory_order_acquire) &&
           "resolve of an unpublished lockset id");
    return Chunks[Id / ChunkSize][Id % ChunkSize];
  }

  static uint64_t hashSet(const LockSet &Set) {
    // FNV-1a over the 32-bit lock indices; sets are sorted, so equal sets
    // hash equally.
    uint64_t H = 0xcbf29ce484222325ull;
    for (LockId Lock : Set) {
      H ^= Lock.index();
      H *= 0x100000001b3ull;
    }
    return H;
  }

  std::array<std::unique_ptr<Entry[]>, MaxChunks> Chunks;
  std::atomic<uint32_t> NumSets{0};
  std::unordered_map<uint64_t, std::vector<uint32_t>> Lookup;
  std::unordered_map<uint32_t, uint32_t> DenseLocks; ///< LockId -> dense
};

} // namespace herd

#endif // HERD_SUPPORT_LOCKSETINTERNER_H
