//===- detect/AccessTrie.cpp - Trie-based access history ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessTrie.h"

#include <algorithm>

using namespace herd;

AccessTrie::AccessTrie(AccessTrie &&Other) noexcept
    : Owned(std::move(Other.Owned)), Store(Other.Store), Root(Other.Root),
      NumNodes(Other.NumNodes) {
  if (Owned)
    Other.Store = nullptr;
  Other.Root = None;
  Other.NumNodes = 0;
}

AccessTrie &AccessTrie::operator=(AccessTrie &&Other) noexcept {
  if (this != &Other) {
    // Nothing to release: a shared store's nodes go with the store, so a
    // populated trie on one must not be overwritten (its nodes would stay
    // counted in the arena's live() total until the store dies).
    assert((Owned || Root == None) &&
           "a populated trie on a shared store cannot be overwritten");
    Owned = std::move(Other.Owned);
    Store = Other.Store;
    Root = Other.Root;
    NumNodes = Other.NumNodes;
    if (Owned)
      Other.Store = nullptr;
    Other.Root = None;
    Other.NumNodes = 0;
  }
  return *this;
}

bool AccessTrie::findWeaker(uint32_t NIdx, const std::vector<LockId> &Locks,
                            size_t From, ThreadLattice Thread,
                            AccessKind Access) const {
  const TrieNode &N = Store->Nodes[NIdx];
  // This node's lockset (its root path) is a subset of the event's lockset
  // by construction of the traversal, so Definition 2 reduces to the thread
  // and access-kind orders.
  if (N.hasInfo() && isWeakerOrEqual(N.Thread, Thread) &&
      isWeakerOrEqual(N.Access, Access))
    return true;
  if (N.EdgeCount == 0)
    return false;
  // Descend only along edges labeled with locks the event holds.  Edges
  // and the lockset are both sorted, so merge-walk them; the label scan
  // stays inside this node's contiguous edge block and a child is only
  // loaded when its label matches.
  const TrieEdge *E = Store->Edges.at(N.Edges);
  size_t LockIdx = From;
  for (uint32_t I = 0; I != N.EdgeCount; ++I) {
    LockId Label = E[I].Label;
    while (LockIdx < Locks.size() && Locks[LockIdx] < Label)
      ++LockIdx;
    if (LockIdx == Locks.size())
      break;
    if (Locks[LockIdx] == Label &&
        findWeaker(E[I].Child, Locks, LockIdx + 1, Thread, Access))
      return true;
  }
  return false;
}

uint32_t AccessTrie::findRace(uint32_t NIdx, const LockSet &Locks,
                              ThreadLattice Thread, AccessKind Access,
                              std::vector<LockId> &Path,
                              std::vector<LockId> &RacePath) const {
  const TrieNode &N = Store->Nodes[NIdx];
  // Case II: the stored accesses at this node involve a different thread
  // (meet goes to t_⊥) and at least one side wrote.  The traversal has
  // already established (by pruning in Case I) that no lock is shared.
  if (N.hasInfo() && meet(N.Thread, Thread).isBottom() &&
      meet(N.Access, Access) == AccessKind::Write) {
    RacePath = Path;
    return NIdx;
  }
  // Case III: recurse, except into children reached via a lock the event
  // holds (Case I: a shared lock protects the whole subtree).
  for (uint32_t I = 0; I != N.EdgeCount; ++I) {
    const TrieEdge &Edge = Store->Edges.at(N.Edges)[I];
    if (Locks.contains(Edge.Label))
      continue;
    Path.push_back(Edge.Label);
    uint32_t Hit = findRace(Edge.Child, Locks, Thread, Access, Path, RacePath);
    if (Hit != None)
      return Hit;
    Path.pop_back();
  }
  return None;
}

uint32_t AccessTrie::getOrCreateChild(uint32_t Parent, LockId Label) {
  TrieNode &P = Store->Nodes[Parent];
  TrieEdge *E =
      P.Edges == TrieEdgePool::None ? nullptr : Store->Edges.at(P.Edges);
  uint32_t I = 0;
  while (I != P.EdgeCount && E[I].Label < Label)
    ++I;
  if (I != P.EdgeCount && E[I].Label == Label)
    return E[I].Child;

  if (P.Edges == TrieEdgePool::None) {
    P.Edges = Store->Edges.allocate(0);
    P.EdgeClass = 0;
    E = Store->Edges.at(P.Edges);
  } else if (P.EdgeCount == (1u << P.EdgeClass)) {
    uint32_t Grown = Store->Edges.allocate(P.EdgeClass + 1);
    TrieEdge *NE = Store->Edges.at(Grown);
    std::copy(E, E + P.EdgeCount, NE);
    Store->Edges.release(P.Edges, P.EdgeClass);
    P.Edges = Grown;
    ++P.EdgeClass;
    E = NE;
  }
  uint32_t Fresh = Store->Nodes.allocate();
  std::move_backward(E + I, E + P.EdgeCount, E + P.EdgeCount + 1);
  E[I].Label = Label;
  E[I].Child = Fresh;
  ++P.EdgeCount;
  ++NumNodes;
  return Fresh;
}

uint32_t AccessTrie::updateNode(const LockSet &Locks, ThreadLattice Thread,
                                AccessKind Access, SiteId Site) {
  uint32_t NIdx = Root;
  for (LockId Lock : Locks)
    NIdx = getOrCreateChild(NIdx, Lock);
  TrieNode &N = Store->Nodes[NIdx];
  N.Thread = meet(N.Thread, Thread);
  N.Access = meet(N.Access, Access);
  N.Site = Site;
  return NIdx;
}

void AccessTrie::pruneStronger(uint32_t NIdx, const std::vector<LockId> &Locks,
                               size_t Matched, ThreadLattice Thread,
                               AccessKind Access, uint32_t Keep) {
  // A stored access q at node N is stronger than the new access p when
  // p.L ⊆ q.L (all of Locks matched on the path) and p.t ⊑ q.t ∧ p.a ⊑ q.a.
  {
    TrieNode &N = Store->Nodes[NIdx];
    if (NIdx != Keep && N.hasInfo() && Matched == Locks.size() &&
        isWeakerOrEqual(Thread, N.Thread) &&
        isWeakerOrEqual(Access, N.Access)) {
      N.Thread = ThreadLattice::top();
      N.Access = AccessKind::Read;
      N.Site = SiteId::invalid();
    }
  }
  // Visit children; after each visit, remove its edge if the child carries
  // no information and has no descendants (node and edge block return to
  // their free lists).  Recursion only mutates descendants' edge arrays,
  // never this node's block, so the edge pointer stays valid between the
  // removals we perform ourselves.
  TrieNode &N = Store->Nodes[NIdx];
  uint32_t I = 0;
  while (I < N.EdgeCount) {
    TrieEdge *E = Store->Edges.at(N.Edges);
    LockId Label = E[I].Label;
    size_t NextMatched = Matched;
    bool Descend = true;
    if (Matched < Locks.size()) {
      if (Label == Locks[Matched]) {
        NextMatched = Matched + 1;
      } else if (Locks[Matched] < Label) {
        // Canonical paths are ascending: once an edge label exceeds the next
        // required lock, no descendant's lockset can contain it.
        Descend = false;
      }
    }
    uint32_t ChildIdx = E[I].Child;
    if (Descend)
      pruneStronger(ChildIdx, Locks, NextMatched, Thread, Access, Keep);
    TrieNode &Child = Store->Nodes[ChildIdx];
    if (!Child.hasInfo() && Child.EdgeCount == 0) {
      if (Child.Edges != TrieEdgePool::None)
        Store->Edges.release(Child.Edges, Child.EdgeClass);
      Store->Nodes.release(ChildIdx);
      --NumNodes;
      E = Store->Edges.at(N.Edges);
      std::move(E + I + 1, E + N.EdgeCount, E + I);
      --N.EdgeCount;
    } else {
      ++I;
    }
  }
}

AccessTrie::Outcome AccessTrie::process(ThreadId Thread, const LockSet &Locks,
                                        AccessKind Access, SiteId Site,
                                        Scratch &S) {
  Outcome Result;
  ThreadLattice EventThread(Thread);

  if (!Store) {
    Owned = std::make_unique<TrieStore>();
    Store = Owned.get();
  }
  if (Root == None) {
    Root = Store->Nodes.allocate();
    NumNodes = 1;
  }

  // 1. Weakness check: the vast majority of events are filtered here.
  if (findWeaker(Root, Locks.items(), 0, EventThread, Access)) {
    Result.Filtered = true;
    return Result;
  }

  // 2. Race check (Cases I-III).
  S.Path.clear();
  S.RacePath.clear();
  uint32_t Hit = findRace(Root, Locks, EventThread, Access, S.Path, S.RacePath);
  if (Hit != None) {
    const TrieNode &HitNode = Store->Nodes[Hit];
    Result.Raced = true;
    Result.PriorThreadKnown = HitNode.Thread.isConcrete();
    if (Result.PriorThreadKnown)
      Result.PriorThread = HitNode.Thread.concrete();
    Result.PriorAccess = HitNode.Access;
    Result.PriorSite = HitNode.Site;
    for (LockId Lock : S.RacePath)
      Result.PriorLocks.insert(Lock);
  }

  // 3. Update the node for the event's exact lockset.
  uint32_t Updated = updateNode(Locks, EventThread, Access, Site);

  // 4. Remove stored accesses the new event is weaker than.
  pruneStronger(Root, Locks.items(), 0, EventThread, Access, Updated);

  return Result;
}

AccessTrie::Outcome AccessTrie::process(ThreadId Thread, const LockSet &Locks,
                                        AccessKind Access, Scratch &S) {
  return process(Thread, Locks, Access, SiteId::invalid(), S);
}

AccessTrie::Outcome AccessTrie::process(ThreadId Thread, const LockSet &Locks,
                                        AccessKind Access) {
  Scratch Local;
  return process(Thread, Locks, Access, SiteId::invalid(), Local);
}

size_t AccessTrie::storedAccessCount() const {
  if (Root == None)
    return 0;
  size_t Count = 0;
  std::vector<uint32_t> Stack = {Root};
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    const TrieNode &Node = Store->Nodes[N];
    if (Node.hasInfo())
      ++Count;
    for (uint32_t I = 0; I != Node.EdgeCount; ++I)
      Stack.push_back(Store->Edges.at(Node.Edges)[I].Child);
  }
  return Count;
}
