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
/// distinct locks seen (dense-remapped), making subset and intersection
/// queries single AND/ANDN instructions whenever both sets live inside that
/// universe — which covers every workload in this repo.  Sets that spill past
/// the 64-lock universe fall back to the SortedIdSet merge walk, memoized in
/// a fixed-size 2-way set-associative table keyed by the id pair.  The memo
/// is bounded by construction (MemoSets * 2 entries per query kind): on a
/// set conflict the older way is evicted round-robin, so a long run with a
/// churning lockset population can never grow the memo without bound
/// (previously an unbounded unordered_map — see ROADMAP).  Eviction only
/// costs a recompute on the next repeat query, never correctness.
///
/// Thread-safety contract (mirrors BoundedBatchQueue's producer contract):
/// intern(), isSubsetOf() and intersects() are producer-thread-only.
/// resolve(), mask() and isExact() may be called concurrently from other
/// threads (the shard workers' detectors) for any id that reached them
/// through a synchronizing channel (the sharded runtime's batch queue
/// mutex): entries are fully constructed before their id is published,
/// and the chunk directory is a fixed-size array so no resolve() ever
/// observes a reallocating std::vector spine.
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
#include <unordered_map>
#include <vector>

namespace herd {

using LockSet = SortedIdSet<LockId>;

class LockSetInterner {
public:
  /// Interned sets per chunk; chunks never move once allocated.
  static constexpr uint32_t ChunkSize = 1024;

  /// Fixed chunk-directory capacity: up to MaxChunks * ChunkSize distinct
  /// locksets per run.  A fixed array (not a vector) is what makes
  /// concurrent resolve() safe against intern() growing the store.
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
    assert(Chunk < MaxChunks && "lockset interner capacity exhausted");
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

  /// Returns true if set \p A is a subset of (or equal to) set \p B.
  /// Producer-thread-only (consults the memo on the rare inexact path).
  bool isSubsetOf(LockSetId A, LockSetId B) const {
    if (A == B || A.index() == 0)
      return true;
    if (B.index() == 0)
      return false; // A != 0 is non-empty by canonicality
    const Entry &EA = entry(A.index()), &EB = entry(B.index());
    // With EA exact, every member of A has a mask bit, and every member of
    // B inside the 64-lock universe has one too — so mask containment is
    // conclusive regardless of EB's spill.
    if (EA.Exact)
      return (EA.Mask & ~EB.Mask) == 0;
    if (EB.Exact)
      return false; // A holds a lock outside the universe that B cannot
    return memoQuery(SubsetMemo, A, B,
                     [&] { return EA.Set.isSubsetOf(EB.Set); });
  }

  /// Returns true if sets \p A and \p B share at least one lock.
  /// Producer-thread-only (consults the memo on the rare inexact path).
  bool intersects(LockSetId A, LockSetId B) const {
    if (A.index() == 0 || B.index() == 0)
      return false;
    const Entry &EA = entry(A.index()), &EB = entry(B.index());
    if ((EA.Mask & EB.Mask) != 0)
      return true; // mask bits are real members on both sides
    // No mask overlap: if either side is exact, any common lock would have
    // had a bit in both masks, so the sets are disjoint.
    if (EA.Exact || EB.Exact)
      return false;
    return memoQuery(IntersectMemo, A, B,
                     [&] { return EA.Set.intersects(EB.Set); });
  }

  /// Number of distinct locksets interned so far (>= 1: the empty set).
  size_t size() const { return NumSets.load(std::memory_order_acquire); }

  /// Number of distinct locks seen across all interned sets.
  size_t lockUniverse() const { return DenseLocks.size(); }

  /// Memo observability for DetectorStats: hits, misses (computed and
  /// cached), and entries evicted by the 2-way replacement.
  uint64_t memoHits() const { return MemoHitCount; }
  uint64_t memoMisses() const { return MemoMissCount; }
  uint64_t memoEvictions() const { return MemoEvictionCount; }

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

  /// Sets per memo table (power of two).  512 sets * 2 ways bounds each
  /// table at 1024 cached verdicts — far above the live inexact-pair
  /// population any workload here produces, and ~16 KB total.
  static constexpr size_t MemoSets = 512;

  /// Bounded memo for one query kind: 2-way set-associative over the id
  /// pair, MemoSets * 2 entries, round-robin victim within a set.  The
  /// all-ones key never arises from real id pairs (it would need both ids
  /// >= 2^32 - 1), so it doubles as the empty-entry sentinel.
  struct MemoTable {
    static constexpr uint64_t EmptyKey = ~uint64_t(0);
    struct Way {
      uint64_t Key = EmptyKey;
      bool Result = false;
    };
    struct Set {
      std::array<Way, 2> Ways;
      uint8_t NextVictim = 0;
    };
    std::array<Set, MemoSets> Sets{};
  };

  template <typename Fn>
  bool memoQuery(MemoTable &Memo, LockSetId A, LockSetId B,
                 Fn Compute) const {
    uint64_t Key = (uint64_t(A.index()) << 32) | B.index();
    // SplitMix64 finalizer: adjacent interner ids otherwise map to
    // adjacent sets and thrash under sequential churn.
    uint64_t H = Key;
    H ^= H >> 30;
    H *= 0xbf58476d1ce4e5b9ull;
    H ^= H >> 27;
    typename MemoTable::Set &S = Memo.Sets[size_t(H) & (MemoSets - 1)];
    for (auto &W : S.Ways)
      if (W.Key == Key) {
        ++MemoHitCount;
        return W.Result;
      }
    ++MemoMissCount;
    bool Result = Compute();
    auto &Victim = S.Ways[S.NextVictim];
    if (Victim.Key != MemoTable::EmptyKey)
      ++MemoEvictionCount;
    Victim.Key = Key;
    Victim.Result = Result;
    S.NextVictim ^= 1;
    return Result;
  }

  std::array<std::unique_ptr<Entry[]>, MaxChunks> Chunks;
  std::atomic<uint32_t> NumSets{0};
  std::unordered_map<uint64_t, std::vector<uint32_t>> Lookup;
  std::unordered_map<uint32_t, uint32_t> DenseLocks; ///< LockId -> dense
  mutable MemoTable SubsetMemo;
  mutable MemoTable IntersectMemo;
  mutable uint64_t MemoHitCount = 0;
  mutable uint64_t MemoMissCount = 0;
  mutable uint64_t MemoEvictionCount = 0;
};

} // namespace herd

#endif // HERD_SUPPORT_LOCKSETINTERNER_H
