//===- detect/AccessTrie.h - Trie-based access history ----------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pointer-based reference of Section 3.2: the edge-labeled trie that
/// stores the access history of one memory location, walked node by node
/// as the paper describes it.  The Detector runs AccessHistory
/// (AccessHistory.h), which holds the same trie as its stored accesses in
/// DFS order; this trie is the oracle the tests check it against on every
/// event, like `naive` and `vectorclock` for the detectors, and the
/// BM_Trie* rows of bench_detector_micro.
///
/// Edges are labeled with lock identifiers; the path from the root to a
/// node spells the node's lockset in canonical (ascending) order.  Nodes
/// hold a thread-lattice value and an access kind; internal nodes with no
/// recorded access hold (t_⊤, READ).
///
/// Processing an event performs, in order:
///   1. the weakness check: is a stored access ⊑ the new one?  If so the
///      event is discarded (the common case);
///   2. the race check (Cases I-III of Section 3.2.1), reporting at most
///      one race per event;
///   3. the update: meet the event into the node for its exact lockset;
///   4. pruning of stored accesses that the new event is weaker than.
///
/// Storage: a node carries the label of its incoming edge and links to
/// its first child and next sibling; siblings are sorted by label.  Many
/// tries can share one TrieStore, and each trie takes its slots in runs of
/// consecutive indices, so one location's nodes share a few cache lines
/// and a sibling scan stays inside them.  A freed node goes on its own
/// trie's free list, so a steady stream allocates nothing.  A trie on a
/// shared store frees nothing when it dies: the store's chunks go in one
/// piece with the store.  A default-constructed trie owns a private store.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSTRIE_H
#define HERD_DETECT_ACCESSTRIE_H

#include "detect/AccessEvent.h"
#include "support/Arena.h"

#include <cstdint>
#include <vector>

namespace herd {

/// One trie node: lattice state, the label of its incoming edge, and its
/// links into the label-sorted child list of its parent.  Access sits in
/// Thread's tail padding, which makes a node 24 bytes, so a full run of
/// eight nodes spans three cache lines.
struct TrieNode {
  [[no_unique_address]] ThreadLattice Thread = ThreadLattice::top();
  AccessKind Access = AccessKind::Read;
  LockId Label;                       ///< invalid at the root
  uint32_t FirstChild = 0xFFFFFFFF;   ///< child with the smallest label
  uint32_t NextSibling = 0xFFFFFFFF;  ///< next larger label; free-list link

  /// Source site of the last event merged into this node — diagnostics
  /// only (the prior-access site in race reports); never consulted by the
  /// weakness/race checks, so detection is independent of it.  Events for
  /// one location arrive in a deterministic order in every execution mode
  /// (docs/SHARDING.md), so "last updater" is stable across modes.
  SiteId Site;

  bool hasInfo() const { return !Thread.isTop(); }
};

/// Node storage shared by many tries.
class TrieStore {
public:
  /// Slots in a full run.  A trie's next run holds as many slots as the
  /// trie has nodes, between 1 and RunSlots: a small trie reserves at most
  /// twice its nodes, a grown one at most RunSlots - 1 idle slots.
  static constexpr uint32_t RunSlots = 8;

  /// Pre-allocates storage so that \p Nodes more slots need no chunk
  /// allocation.  The idle slots of a trie's current run count against
  /// the reservation.
  void reserve(size_t Nodes) { Slots.reserve(Nodes); }

  /// Slots backed by already-allocated chunk storage.
  size_t reservedSlots() const { return Slots.reservedSlots(); }

  /// Slots handed out to tries, whether holding a node or on a trie's
  /// free list.
  size_t slotsUsed() const { return Slots.capacityUsed(); }

  /// Nodes the tries on this store hold.
  size_t live() const { return Live; }

private:
  friend class AccessTrie;

  Arena<TrieNode> Slots;
  size_t Live = 0;
};

/// Access history of one logical memory location.
class AccessTrie {
public:
  /// Result of feeding one event through the trie: HistoryOutcome's
  /// fields, with the prior lockset resolved, since the trie has no
  /// interner.
  struct Outcome {
    bool Filtered = false; ///< a stored weaker access already covers this
    bool Raced = false;    ///< Case II fired

    // Prior-access information when Raced, as in HistoryOutcome.
    bool PriorThreadKnown = false;
    ThreadId PriorThread;
    AccessKind PriorAccess = AccessKind::Read;
    LockSet PriorLocks; ///< empty unless Raced
    SiteId PriorSite;
  };

  /// Reusable traversal scratch.  A caller feeding many events keeps one
  /// so the race-check path vectors never reallocate in steady state; the
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
  ~AccessTrie();
  AccessTrie(AccessTrie &&Other) noexcept;
  AccessTrie &operator=(AccessTrie &&Other) noexcept;

  /// Runs the weakness check, race check, update and pruning for one event.
  Outcome process(ThreadId Thread, const LockSet &Locks, AccessKind Access);

  /// Same, but reusing caller-owned traversal scratch.
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

  /// Structural invariants, asserted after every process() in builds
  /// without NDEBUG: siblings strictly ascend by label; no node but the
  /// root is a leaf without an access; nodeCount() is the number of nodes
  /// reachable from the root; and free-list nodes are unreachable.
  bool checkInvariants() const;

private:
  static constexpr uint32_t None = Arena<TrieNode>::None;

  TrieNode &node(uint32_t N) { return Store->Slots[N]; }
  const TrieNode &node(uint32_t N) const { return Store->Slots[N]; }

  uint32_t allocateNode(LockId Label);
  void freeNode(uint32_t N);

  bool findWeaker(uint32_t N, const std::vector<LockId> &Locks, size_t From,
                  ThreadLattice Thread, AccessKind Access) const;

  uint32_t findRace(uint32_t N, const std::vector<LockId> &Locks,
                    size_t From, ThreadLattice Thread, AccessKind Access,
                    std::vector<LockId> &Path,
                    std::vector<LockId> &RacePath) const;

  uint32_t getOrCreateChild(uint32_t Parent, LockId Label);

  uint32_t updateNode(const LockSet &Locks, ThreadLattice Thread,
                      AccessKind Access, SiteId Site);

  bool pruneStronger(uint32_t N, const std::vector<LockId> &Locks,
                     size_t Matched, ThreadLattice Thread, AccessKind Access,
                     uint32_t Keep);

  TrieStore *Store = nullptr; ///< owned iff OwnsStore, else the Detector's
  uint32_t Root = None;       ///< materialized on first process()
  uint32_t NumNodes = 0;      ///< materialized nodes in this trie
  uint32_t FreeHead = None;   ///< this trie's freed nodes
  uint32_t RunNext = None;    ///< next fresh slot of the current run
  uint8_t RunLeft = 0;        ///< fresh slots left in the current run
  bool OwnsStore = false;     ///< set iff default-constructed
};

} // namespace herd

#endif // HERD_DETECT_ACCESSTRIE_H
