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
/// event, like `naive` and `vectorclock` for the detectors.
///
/// Edges are labeled with lock identifiers; the path from the root to a
/// node spells the node's lockset in canonical (ascending) order.  Nodes
/// hold a thread-lattice value and an access kind; internal nodes with no
/// recorded access hold (t_⊤, READ).  Each node owns its children in a map
/// keyed by label, so every walk visits siblings in label order: the DFS
/// order the history mirrors.
///
/// Processing an event performs, in order:
///   1. the weakness check: is a stored access ⊑ the new one?  If so the
///      event is discarded (the common case);
///   2. the race check (Cases I-III of Section 3.2.1), reporting at most
///      one race per event;
///   3. the update: meet the event into the node for its exact lockset;
///   4. pruning of stored accesses that the new event is weaker than.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSTRIE_H
#define HERD_DETECT_ACCESSTRIE_H

#include "detect/AccessEvent.h"

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

namespace herd {

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

  /// Runs the weakness check, race check, update and pruning for one
  /// event.  \p Site is recorded as the event's source site, so a later
  /// race against this access can name it (Outcome::PriorSite).
  Outcome process(ThreadId Thread, const LockSet &Locks, AccessKind Access,
                  SiteId Site = SiteId::invalid());

  /// Number of trie nodes (the root counts as one, so an untouched trie
  /// reports 1); Section 8.2 reports this as the detector's space
  /// consumption.
  size_t nodeCount() const { return NumNodes; }

  /// Number of nodes carrying a recorded access (t != t_⊤).
  size_t storedAccessCount() const;

  /// Structural invariants, asserted after every process() in builds
  /// without NDEBUG: labels strictly ascend along every root path; no
  /// node but the root is a leaf without an access; and nodeCount() is
  /// the number of nodes reachable from the root.
  bool checkInvariants() const;

private:
  struct Node {
    ThreadLattice Thread = ThreadLattice::top();
    AccessKind Access = AccessKind::Read;

    /// Source site of the last event merged into this node — diagnostics
    /// only (the prior-access site in race reports); never consulted by
    /// the weakness/race checks, so detection is independent of it.
    /// Events for one location arrive in a deterministic order in every
    /// execution mode (docs/SHARDING.md), so "last updater" is stable
    /// across modes.
    SiteId Site;

    std::map<LockId, std::unique_ptr<Node>> Children; ///< by edge label

    bool hasInfo() const { return !Thread.isTop(); }
  };

  bool findWeaker(const Node &N, const std::vector<LockId> &Locks,
                  size_t From, ThreadLattice Thread, AccessKind Access) const;

  const Node *findRace(const Node &N, const LockSet &Locks,
                       ThreadLattice Thread, AccessKind Access,
                       std::vector<LockId> &Path) const;

  bool pruneStronger(Node &N, const std::vector<LockId> &Locks,
                     size_t Matched, ThreadLattice Thread, AccessKind Access,
                     const Node *Keep);

  Node Root;
  size_t NumNodes = 1;
};

} // namespace herd

#endif // HERD_DETECT_ACCESSTRIE_H
