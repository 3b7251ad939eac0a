//===- detect/AccessTrie.h - Trie-based access history ----------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edge-labeled trie that stores the access history of one memory
/// location (Section 3.2).  Edges are labeled with lock identifiers; the
/// path from the root to a node spells the node's lockset in canonical
/// (ascending) order.  Nodes hold a thread-lattice value and an access
/// kind; internal nodes with no recorded access hold (t_⊤, READ).
///
/// Processing an event performs, in order:
///   1. the weakness check: is a stored access ⊑ the new one?  If so the
///      event is discarded (the common case);
///   2. the race check (Cases I-III of Section 3.2.1), reporting at most
///      one race per event;
///   3. the update: meet the event into the node for its exact lockset;
///   4. pruning of stored accesses that the new event is weaker than.
///
/// Storage: nodes live in an Arena<TrieNode> and a node's out-edges live
/// as one contiguous, label-sorted (Label, Child) array in a TrieEdgePool
/// of power-of-two blocks.  The layout is chosen for the weakness check,
/// which runs on every event: scanning a node's edge labels touches one
/// sequential block, and a child node is only dereferenced when its label
/// matches a held lock — a linked sibling list would pull every child's
/// cache line just to read its label.  Both pools recycle freed storage
/// through free lists, so the steady-state hot path allocates nothing,
/// and a whole Detector's tries share one TrieStore (hence one per shard
/// in the sharded runtime, keeping shards off the global allocator).  A
/// trie on a shared store frees nothing when it dies: the store's chunks
/// go in one piece with the store, so tearing down a Detector costs one
/// free per chunk, not a walk over every node.  A default-constructed
/// trie owns a private store for standalone use.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSTRIE_H
#define HERD_DETECT_ACCESSTRIE_H

#include "detect/AccessEvent.h"
#include "support/Arena.h"

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

namespace herd {

/// One out-edge of a trie node.
struct TrieEdge {
  LockId Label;
  uint32_t Child = 0xFFFFFFFF;
};

/// Bump-pointer pool of power-of-two TrieEdge blocks with per-class free
/// lists.  Blocks of capacity <= ChunkSize live inside fixed chunks and are
/// addressed by a 31-bit edge index; rarer, larger blocks are individually
/// allocated and addressed with the top bit set.  Block storage never
/// moves, so TrieEdge pointers stay valid across unrelated allocations.
class TrieEdgePool {
public:
  static constexpr uint32_t None = 0xFFFFFFFF;
  static constexpr uint32_t ChunkSize = 4096; ///< edges per chunk
  static constexpr uint8_t MaxInlineClass = 12; ///< 2^12 edges per block max

  /// Returns a block handle with capacity 2^Class edges.
  uint32_t allocate(uint8_t Class) {
    if (Class <= MaxInlineClass) {
      uint32_t &Head = FreeHeads[Class];
      if (Head != None) {
        uint32_t Block = Head;
        Head = at(Block)->Child; // free-list link lives in the first edge
        return Block;
      }
      uint32_t Cap = 1u << Class;
      // Align the bump pointer to the block size: power-of-two blocks then
      // never straddle a chunk boundary.
      Bump = (Bump + Cap - 1) & ~(Cap - 1);
      uint32_t Block = Bump;
      assert(Block < LargeBit && "edge pool address space exhausted");
      if (Block / ChunkSize >= Chunks.size())
        Chunks.push_back(std::make_unique<TrieEdge[]>(ChunkSize));
      Bump += Cap;
      return Block;
    }
    auto &Free = LargeFree[Class];
    if (!Free.empty()) {
      uint32_t Block = Free.back();
      Free.pop_back();
      return Block;
    }
    Large.push_back(std::make_unique<TrieEdge[]>(size_t(1) << Class));
    return LargeBit | uint32_t(Large.size() - 1);
  }

  /// Returns \p Block (allocated with \p Class) to the pool.
  void release(uint32_t Block, uint8_t Class) {
    if (Block & LargeBit) {
      LargeFree[Class].push_back(Block);
      return;
    }
    assert(Class <= MaxInlineClass);
    at(Block)->Child = FreeHeads[Class];
    FreeHeads[Class] = Block;
  }

  /// Pre-allocates chunk storage so at least \p Edges more inline edges can
  /// be bump-allocated without touching the global allocator.  Requests are
  /// clamped to the 31-bit inline address space.
  void reserveEdges(size_t Edges) {
    size_t Limit = size_t(LargeBit) - 1;
    if (Edges > Limit - Bump)
      Edges = Limit - Bump;
    size_t WantChunks = (size_t(Bump) + Edges + ChunkSize - 1) / ChunkSize;
    while (Chunks.size() < WantChunks)
      Chunks.push_back(std::make_unique<TrieEdge[]>(ChunkSize));
  }

  /// Inline edges backed by already-allocated chunk storage.
  size_t reservedEdges() const { return Chunks.size() * size_t(ChunkSize); }

  TrieEdge *at(uint32_t Block) {
    if (Block & LargeBit)
      return Large[Block & ~LargeBit].get();
    return &Chunks[Block / ChunkSize][Block % ChunkSize];
  }
  const TrieEdge *at(uint32_t Block) const {
    return const_cast<TrieEdgePool *>(this)->at(Block);
  }

private:
  static constexpr uint32_t LargeBit = 0x80000000;

  std::vector<std::unique_ptr<TrieEdge[]>> Chunks;
  uint32_t Bump = 0;
  std::array<uint32_t, MaxInlineClass + 1> FreeHeads = [] {
    std::array<uint32_t, MaxInlineClass + 1> A{};
    A.fill(None);
    return A;
  }();
  std::vector<std::unique_ptr<TrieEdge[]>> Large;
  std::array<std::vector<uint32_t>, 32> LargeFree;
};

/// One trie node: lattice state plus its out-edge array (label-sorted,
/// capacity 2^EdgeClass) in the owning store's edge pool.
struct TrieNode {
  ThreadLattice Thread = ThreadLattice::top();
  AccessKind Access = AccessKind::Read;
  uint8_t EdgeClass = 0;   ///< log2 capacity of Edges (valid iff allocated)
  uint32_t EdgeCount = 0;  ///< live out-edges
  uint32_t Edges = 0xFFFFFFFF; ///< TrieEdgePool block, or None

  /// Source site of the last event merged into this node — diagnostics
  /// only (the prior-access site in race reports); never consulted by the
  /// weakness/race checks, so detection is independent of it.  Events for
  /// one location arrive in a deterministic order in every execution mode
  /// (docs/SHARDING.md), so "last updater" is stable across modes.
  SiteId Site;

  bool hasInfo() const { return !Thread.isTop(); }
};

/// The node arena and edge pool shared by all tries of one Detector (one
/// instance per shard in the sharded runtime).
struct TrieStore {
  Arena<TrieNode> Nodes;
  TrieEdgePool Edges;
};

/// The node pool type, kept as a named alias for stats plumbing.
using TrieArena = Arena<TrieNode>;

/// Access history of one logical memory location.
class AccessTrie {
public:
  /// Result of feeding one event through the trie.
  struct Outcome {
    bool Filtered = false; ///< a stored weaker access already covers this
    bool Raced = false;    ///< Case II fired

    // Prior-access information when Raced (for the report): the earlier
    // access's lockset, kind, and its thread when known (t_⊥ erases it).
    bool PriorThreadKnown = false;
    ThreadId PriorThread;
    AccessKind PriorAccess = AccessKind::Read;
    RaceLockSet PriorLocks;
    SiteId PriorSite; ///< site of the last event merged into the hit node
  };

  /// Reusable traversal scratch.  The Detector keeps one per instance so
  /// the race-check path vectors never reallocate in steady state; the
  /// 3-argument process() overload uses a transient local one.
  struct Scratch {
    std::vector<LockId> Path;
    std::vector<LockId> RacePath;
  };

  /// Standalone trie owning a private store (tests, property checks).
  AccessTrie() = default;

  /// Trie whose nodes live in \p Shared; the store must outlive the trie.
  explicit AccessTrie(TrieStore &Shared) : Store(&Shared) {}

  /// Frees nothing on a shared store: its nodes go when the store does.
  ~AccessTrie() = default;
  AccessTrie(AccessTrie &&Other) noexcept;
  AccessTrie &operator=(AccessTrie &&Other) noexcept;

  /// Runs the weakness check, race check, update and pruning for one event.
  Outcome process(ThreadId Thread, const LockSet &Locks, AccessKind Access);

  /// Same, but reusing caller-owned traversal scratch (the hot path).
  Outcome process(ThreadId Thread, const LockSet &Locks, AccessKind Access,
                  Scratch &S);

  /// Same, additionally recording \p Site as the event's source site so a
  /// later race against this access can name it (Outcome::PriorSite).
  Outcome process(ThreadId Thread, const LockSet &Locks, AccessKind Access,
                  SiteId Site, Scratch &S);

  /// Number of trie nodes currently allocated (the root counts as one);
  /// Section 8.2 reports this as the detector's space consumption.  The
  /// root is materialized lazily, so an untouched trie reports 1 without
  /// holding an arena slot.
  size_t nodeCount() const { return NumNodes ? NumNodes : 1; }

  /// Number of nodes carrying a recorded access (t != t_⊤).
  size_t storedAccessCount() const;

private:
  static constexpr uint32_t None = TrieArena::None;

  bool findWeaker(uint32_t N, const std::vector<LockId> &Locks, size_t From,
                  ThreadLattice Thread, AccessKind Access) const;

  uint32_t findRace(uint32_t N, const LockSet &Locks, ThreadLattice Thread,
                    AccessKind Access, std::vector<LockId> &Path,
                    std::vector<LockId> &RacePath) const;

  uint32_t getOrCreateChild(uint32_t Parent, LockId Label);

  uint32_t updateNode(const LockSet &Locks, ThreadLattice Thread,
                      AccessKind Access, SiteId Site);

  void pruneStronger(uint32_t N, const std::vector<LockId> &Locks,
                     size_t Matched, ThreadLattice Thread, AccessKind Access,
                     uint32_t Keep);

  std::unique_ptr<TrieStore> Owned; ///< set iff default-constructed
  TrieStore *Store = nullptr;       ///< &*Owned, or the Detector's store
  uint32_t Root = None;             ///< materialized on first process()
  size_t NumNodes = 0;              ///< materialized nodes in this trie
};

} // namespace herd

#endif // HERD_DETECT_ACCESSTRIE_H
