//===- detect/AccessTrie.cpp - Trie-based access history ------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessTrie.h"

#include <algorithm>
#include <utility>

using namespace herd;

AccessTrie::~AccessTrie() {
  if (OwnsStore)
    delete Store;
}

AccessTrie::AccessTrie(AccessTrie &&Other) noexcept
    : Store(Other.Store), Root(std::exchange(Other.Root, None)),
      NumNodes(std::exchange(Other.NumNodes, 0)),
      FreeHead(std::exchange(Other.FreeHead, None)),
      RunNext(std::exchange(Other.RunNext, None)),
      RunLeft(std::exchange(Other.RunLeft, 0)),
      OwnsStore(std::exchange(Other.OwnsStore, false)) {
  if (OwnsStore)
    Other.Store = nullptr;
}

AccessTrie &AccessTrie::operator=(AccessTrie &&Other) noexcept {
  if (this != &Other) {
    // Nothing to release: a shared store's nodes go with the store, so a
    // populated trie on one must not be overwritten (its nodes would stay
    // counted in the store's live() total until the store dies).
    assert((OwnsStore || Root == None) &&
           "a populated trie on a shared store cannot be overwritten");
    if (OwnsStore)
      delete Store;
    Store = Other.Store;
    Root = std::exchange(Other.Root, None);
    NumNodes = std::exchange(Other.NumNodes, 0);
    FreeHead = std::exchange(Other.FreeHead, None);
    RunNext = std::exchange(Other.RunNext, None);
    RunLeft = std::exchange(Other.RunLeft, 0);
    OwnsStore = std::exchange(Other.OwnsStore, false);
    if (OwnsStore)
      Other.Store = nullptr;
  }
  return *this;
}

uint32_t AccessTrie::allocateNode(LockId Label) {
  uint32_t N = FreeHead;
  if (N != None) {
    FreeHead = node(N).NextSibling;
  } else {
    if (RunLeft == 0) {
      // The free list is empty, so the trie's slots are exactly its nodes:
      // the new run doubles them, up to a full run.
      uint32_t Want = std::clamp<uint32_t>(NumNodes, 1, TrieStore::RunSlots);
      Arena<TrieNode>::Run R = Store->Slots.allocateRun(Want);
      RunNext = R.First;
      RunLeft = uint8_t(R.Slots);
    }
    N = RunNext++;
    --RunLeft;
  }
  TrieNode &Fresh = node(N);
  Fresh = TrieNode();
  Fresh.Label = Label;
  ++NumNodes;
  ++Store->Live;
  return N;
}

void AccessTrie::freeNode(uint32_t N) {
  node(N).NextSibling = FreeHead;
  FreeHead = N;
  --NumNodes;
  --Store->Live;
}

bool AccessTrie::findWeaker(uint32_t NIdx, const std::vector<LockId> &Locks,
                            size_t From, ThreadLattice Thread,
                            AccessKind Access) const {
  const TrieNode &N = node(NIdx);
  // This node's lockset (its root path) is a subset of the event's lockset
  // by construction of the traversal, so Definition 2 reduces to the thread
  // and access-kind orders.
  if (N.hasInfo() && isWeakerOrEqual(N.Thread, Thread) &&
      isWeakerOrEqual(N.Access, Access))
    return true;
  // Descend only along edges labeled with locks the event holds.  Siblings
  // and the lockset are both sorted, so merge-walk them.
  size_t LockIdx = From;
  for (uint32_t C = N.FirstChild; C != None && LockIdx != Locks.size();) {
    const TrieNode &Child = node(C);
    while (LockIdx < Locks.size() && Locks[LockIdx] < Child.Label)
      ++LockIdx;
    if (LockIdx != Locks.size() && Locks[LockIdx] == Child.Label &&
        findWeaker(C, Locks, LockIdx + 1, Thread, Access))
      return true;
    C = Child.NextSibling;
  }
  return false;
}

uint32_t AccessTrie::findRace(uint32_t NIdx, const std::vector<LockId> &Locks,
                              size_t From, ThreadLattice Thread,
                              AccessKind Access, std::vector<LockId> &Path,
                              std::vector<LockId> &RacePath) const {
  const TrieNode &N = node(NIdx);
  // Case II: the stored accesses at this node involve a different thread
  // (meet goes to t_⊥) and at least one side wrote.  The traversal has
  // already established (by pruning in Case I) that no lock is shared.
  if (N.hasInfo() && meet(N.Thread, Thread).isBottom() &&
      meet(N.Access, Access) == AccessKind::Write) {
    RacePath = Path;
    return NIdx;
  }
  // Case III: recurse, except into children reached via a lock the event
  // holds (Case I: a shared lock protects the whole subtree).  Labels below
  // this node exceed every label above it, so the merge with the sorted
  // lockset resumes where the parent's left off.
  size_t LockIdx = From;
  for (uint32_t C = N.FirstChild; C != None; C = node(C).NextSibling) {
    LockId Label = node(C).Label;
    while (LockIdx < Locks.size() && Locks[LockIdx] < Label)
      ++LockIdx;
    if (LockIdx != Locks.size() && Locks[LockIdx] == Label)
      continue;
    Path.push_back(Label);
    uint32_t Hit =
        findRace(C, Locks, LockIdx, Thread, Access, Path, RacePath);
    if (Hit != None)
      return Hit;
    Path.pop_back();
  }
  return None;
}

uint32_t AccessTrie::getOrCreateChild(uint32_t Parent, LockId Label) {
  uint32_t *Link = &node(Parent).FirstChild;
  while (*Link != None && node(*Link).Label < Label)
    Link = &node(*Link).NextSibling;
  if (*Link != None && node(*Link).Label == Label)
    return *Link;
  // Chunks never move, so Link stays valid across the allocation.
  uint32_t Fresh = allocateNode(Label);
  node(Fresh).NextSibling = *Link;
  *Link = Fresh;
  return Fresh;
}

uint32_t AccessTrie::updateNode(const LockSet &Locks, ThreadLattice Thread,
                                AccessKind Access, SiteId Site) {
  uint32_t NIdx = Root;
  for (LockId Lock : Locks)
    NIdx = getOrCreateChild(NIdx, Lock);
  TrieNode &N = node(NIdx);
  N.Thread = meet(N.Thread, Thread);
  N.Access = meet(N.Access, Access);
  N.Site = Site;
  return NIdx;
}

bool AccessTrie::pruneStronger(uint32_t NIdx, const std::vector<LockId> &Locks,
                               size_t Matched, ThreadLattice Thread,
                               AccessKind Access, uint32_t Keep) {
  // A stored access q at node N is stronger than the new access p when
  // p.L ⊆ q.L (all of Locks matched on the path) and p.t ⊑ q.t ∧ p.a ⊑ q.a.
  // Returns whether anything in N's subtree was cleared or removed.
  bool Changed = false;
  TrieNode &N = node(NIdx);
  if (NIdx != Keep && N.hasInfo() && Matched == Locks.size() &&
      isWeakerOrEqual(Thread, N.Thread) && isWeakerOrEqual(Access, N.Access)) {
    N.Thread = ThreadLattice::top();
    N.Access = AccessKind::Read;
    N.Site = SiteId::invalid();
    Changed = true;
  }
  // Visit children; a child whose subtree changed is removed when it is
  // left with no information and no descendants (its node goes back on
  // this trie's free list).
  uint32_t *Link = &N.FirstChild;
  while (*Link != None) {
    uint32_t C = *Link;
    TrieNode &Child = node(C);
    size_t NextMatched = Matched;
    if (Matched < Locks.size()) {
      // Canonical paths are ascending: once a label exceeds the next
      // required lock, neither this child's subtree nor any later
      // sibling's can contain that lock.
      if (Locks[Matched] < Child.Label)
        break;
      if (Child.Label == Locks[Matched])
        NextMatched = Matched + 1;
    }
    if (pruneStronger(C, Locks, NextMatched, Thread, Access, Keep)) {
      Changed = true;
      if (!Child.hasInfo() && Child.FirstChild == None) {
        *Link = Child.NextSibling;
        freeNode(C);
        continue;
      }
    }
    Link = &Child.NextSibling;
  }
  return Changed;
}

AccessTrie::Outcome AccessTrie::process(ThreadId Thread, const LockSet &Locks,
                                        AccessKind Access, SiteId Site,
                                        Scratch &S) {
  Outcome Result;
  ThreadLattice EventThread(Thread);

  if (!Store) {
    Store = new TrieStore();
    OwnsStore = true;
  }
  if (Root == None)
    Root = allocateNode(LockId::invalid());

  // 1. Weakness check: the vast majority of events are filtered here.
  if (findWeaker(Root, Locks.items(), 0, EventThread, Access)) {
    Result.Filtered = true;
    assert(checkInvariants() && "trie invariant broken");
    return Result;
  }

  // 2. Race check (Cases I-III).
  S.Path.clear();
  S.RacePath.clear();
  uint32_t Hit = findRace(Root, Locks.items(), 0, EventThread, Access, S.Path,
                          S.RacePath);
  if (Hit != None) {
    const TrieNode &HitNode = node(Hit);
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

  assert(checkInvariants() && "trie invariant broken");
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
    const TrieNode &Node = node(N);
    if (Node.hasInfo())
      ++Count;
    for (uint32_t C = Node.FirstChild; C != None; C = node(C).NextSibling)
      Stack.push_back(C);
  }
  return Count;
}

bool AccessTrie::checkInvariants() const {
  if (Root == None)
    return NumNodes == 0 && FreeHead == None;
  std::vector<uint32_t> Reached = {Root};
  for (size_t I = 0; I != Reached.size(); ++I) {
    if (Reached.size() > NumNodes)
      return false; // more reachable nodes than the trie holds, or a cycle
    const TrieNode &N = node(Reached[I]);
    if (Reached[I] != Root && !N.hasInfo() && N.FirstChild == None)
      return false; // an empty leaf the prune walk should have removed
    for (uint32_t C = N.FirstChild; C != None; C = node(C).NextSibling) {
      uint32_t Next = node(C).NextSibling;
      if (Next != None && !(node(C).Label < node(Next).Label))
        return false; // siblings must strictly ascend
      Reached.push_back(C);
    }
  }
  if (Reached.size() != NumNodes)
    return false;
  std::sort(Reached.begin(), Reached.end());
  size_t Freed = 0;
  for (uint32_t F = FreeHead; F != None; F = node(F).NextSibling) {
    if (++Freed > Store->slotsUsed() ||
        std::binary_search(Reached.begin(), Reached.end(), F))
      return false; // a cycle, or a free node still linked into the trie
  }
  return true;
}
