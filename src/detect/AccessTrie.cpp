//===- detect/AccessTrie.cpp - Trie-based access history ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessTrie.h"

#include <cassert>
#include <utility>

using namespace herd;

bool AccessTrie::findWeaker(const Node &N, const std::vector<LockId> &Locks,
                            size_t From, ThreadLattice Thread,
                            AccessKind Access) const {
  // This node's lockset (its root path) is a subset of the event's lockset
  // by construction of the traversal, so Definition 2 reduces to the thread
  // and access-kind orders.
  if (N.hasInfo() && isWeakerOrEqual(N.Thread, Thread) &&
      isWeakerOrEqual(N.Access, Access))
    return true;
  // Descend only along edges labeled with locks the event holds.  Labels
  // below this node exceed every label above it, so only the locks after
  // the one that led here can label a child.
  for (size_t I = From; I != Locks.size(); ++I) {
    auto Child = N.Children.find(Locks[I]);
    if (Child != N.Children.end() &&
        findWeaker(*Child->second, Locks, I + 1, Thread, Access))
      return true;
  }
  return false;
}

const AccessTrie::Node *AccessTrie::findRace(const Node &N,
                                             const LockSet &Locks,
                                             ThreadLattice Thread,
                                             AccessKind Access,
                                             std::vector<LockId> &Path) const {
  // Case II: the stored accesses at this node involve a different thread
  // (meet goes to t_⊥) and at least one side wrote.  The traversal has
  // already established (by pruning in Case I) that no lock is shared.
  if (N.hasInfo() && meet(N.Thread, Thread).isBottom() &&
      meet(N.Access, Access) == AccessKind::Write)
    return &N;
  // Case III: recurse in label order, except into children reached via a
  // lock the event holds (Case I: a shared lock protects the whole
  // subtree).  On a hit, Path spells the racing node's lockset.
  for (const auto &[Label, Child] : N.Children) {
    if (Locks.contains(Label))
      continue;
    Path.push_back(Label);
    if (const Node *Hit = findRace(*Child, Locks, Thread, Access, Path))
      return Hit;
    Path.pop_back();
  }
  return nullptr;
}

bool AccessTrie::pruneStronger(Node &N, const std::vector<LockId> &Locks,
                               size_t Matched, ThreadLattice Thread,
                               AccessKind Access, const Node *Keep) {
  // A stored access q at node N is stronger than the new access p when
  // p.L ⊆ q.L (all of Locks matched on the path) and p.t ⊑ q.t ∧ p.a ⊑ q.a.
  // Returns whether anything in N's subtree was cleared or removed.
  bool Changed = false;
  if (&N != Keep && N.hasInfo() && Matched == Locks.size() &&
      isWeakerOrEqual(Thread, N.Thread) && isWeakerOrEqual(Access, N.Access)) {
    N.Thread = ThreadLattice::top();
    N.Access = AccessKind::Read;
    N.Site = SiteId::invalid();
    Changed = true;
  }
  // Visit children; a child whose subtree changed is removed when it is
  // left with no information and no descendants.
  for (auto It = N.Children.begin(); It != N.Children.end();) {
    const LockId Label = It->first;
    Node &Child = *It->second;
    size_t NextMatched = Matched;
    if (Matched < Locks.size()) {
      // Canonical paths are ascending: once a label exceeds the next
      // required lock, neither this child's subtree nor any later
      // sibling's can contain that lock.
      if (Locks[Matched] < Label)
        break;
      if (Label == Locks[Matched])
        NextMatched = Matched + 1;
    }
    if (pruneStronger(Child, Locks, NextMatched, Thread, Access, Keep)) {
      Changed = true;
      if (!Child.hasInfo() && Child.Children.empty()) {
        It = N.Children.erase(It);
        --NumNodes;
        continue;
      }
    }
    ++It;
  }
  return Changed;
}

AccessTrie::Outcome AccessTrie::process(ThreadId Thread, const LockSet &Locks,
                                        AccessKind Access, SiteId Site) {
  Outcome Result;
  ThreadLattice EventThread(Thread);

  // 1. Weakness check: the vast majority of events are filtered here.
  if (findWeaker(Root, Locks.items(), 0, EventThread, Access)) {
    Result.Filtered = true;
    assert(checkInvariants() && "trie invariant broken");
    return Result;
  }

  // 2. Race check (Cases I-III).
  std::vector<LockId> Path;
  if (const Node *Hit = findRace(Root, Locks, EventThread, Access, Path)) {
    Result.Raced = true;
    Result.PriorThreadKnown = Hit->Thread.isConcrete();
    if (Result.PriorThreadKnown)
      Result.PriorThread = Hit->Thread.concrete();
    Result.PriorAccess = Hit->Access;
    Result.PriorSite = Hit->Site;
    for (LockId Lock : Path)
      Result.PriorLocks.insert(Lock);
  }

  // 3. Update the node for the event's exact lockset.
  Node *Updated = &Root;
  for (LockId Lock : Locks) {
    std::unique_ptr<Node> &Child = Updated->Children[Lock];
    if (!Child) {
      Child = std::make_unique<Node>();
      ++NumNodes;
    }
    Updated = Child.get();
  }
  Updated->Thread = meet(Updated->Thread, EventThread);
  Updated->Access = meet(Updated->Access, Access);
  Updated->Site = Site;

  // 4. Remove stored accesses the new event is weaker than.
  pruneStronger(Root, Locks.items(), 0, EventThread, Access, Updated);

  assert(checkInvariants() && "trie invariant broken");
  return Result;
}

size_t AccessTrie::storedAccessCount() const {
  size_t Count = 0;
  std::vector<const Node *> Stack = {&Root};
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    Count += N->hasInfo();
    for (const auto &Entry : N->Children)
      Stack.push_back(Entry.second.get());
  }
  return Count;
}

bool AccessTrie::checkInvariants() const {
  // Each reached node with the label of its incoming edge (unused at the
  // root, which has none).
  std::vector<std::pair<const Node *, LockId>> Stack = {
      {&Root, LockId::invalid()}};
  size_t Reached = 0;
  while (!Stack.empty()) {
    auto [N, Label] = Stack.back();
    Stack.pop_back();
    ++Reached;
    if (N != &Root && !N->hasInfo() && N->Children.empty())
      return false; // an empty leaf the prune walk should have removed
    for (const auto &[ChildLabel, Child] : N->Children) {
      if (!Child || (N != &Root && !(Label < ChildLabel)))
        return false; // labels must strictly ascend along every root path
      Stack.push_back({Child.get(), ChildLabel});
    }
  }
  return Reached == NumNodes;
}
