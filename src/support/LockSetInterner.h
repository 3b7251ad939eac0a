//===- support/LockSetInterner.h - Canonical lockset ids --------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalizes locksets to dense 4-byte LockSetIds so that the per-event
/// hot path passes an id instead of copying a SortedIdSet.
///
/// A set is stored as a treap (a search tree on the locks, heap-ordered on
/// a fixed per-lock priority), hash-consed so that equal subtrees are one
/// node.  A treap's shape depends only on its keys and their priorities,
/// so each set has exactly one tree whatever order its locks came in, and
/// adding or removing a lock anywhere copies only the O(log n) nodes on
/// one path.  Locksets change only at monitorenter and monitorexit
/// (Section 2.4), and the front end steps its per-thread id there.
///
/// A set's id is not its tree's root but the top of its *right spine*,
/// stored as a chain: the spine node of lock r names the spine below r and
/// r's left subtree, so the chain's top holds the set's largest lock.
/// Acquiring a lock above every held one then changes the spine only at its
/// top (the spine nodes the new lock outranks move into its left subtree,
/// each once), which keeps the usual nesting order as cheap as a prefix
/// chain.  Dummy join locks take the lowest priorities: they sort last and
/// stay on the spine's top with empty subtrees, so a program lock taken
/// below them re-stacks only their few spine nodes.
///
/// Every node carries its set's size, its two smallest locks and a 64-bit
/// membership mask over the first 64 distinct locks seen (dense-remapped),
/// with whether that mask covers every member, all taken from its two
/// children in O(1): 32 bytes a node.  A mask bit is always a real member,
/// so the access history's subset and disjointness tests
/// (detect/AccessHistory.cpp) are one AND or ANDN whenever both sets are
/// exact, which covers every workload in this repo, and a merge walk of
/// the two sets otherwise.  The history's order and common prefixes are
/// read off the two smallest locks unless the sets share both; then they
/// walk both sets in ascending order from their largest shared spine
/// node.
///
/// Thread-safety contract (mirrors BoundedBatchQueue's producer contract):
/// intern(), withLock(), withoutLock() and reserve() are producer-thread-
/// only.  Every other query may be called concurrently from other threads
/// (the shard workers' detectors) for any id that reached them through a
/// synchronizing channel (the sharded runtime's batch queue mutex): a node
/// is fully constructed before its id is published, a walk only reaches
/// older nodes, and the chunk directory is a fixed-size array, so no
/// reader ever observes a reallocating std::vector spine.  Only the
/// producer reads the hash-consing table.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_LOCKSETINTERNER_H
#define HERD_SUPPORT_LOCKSETINTERNER_H

#include "support/Ids.h"
#include "support/SortedIdSet.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace herd {

using LockSet = SortedIdSet<LockId>;

class LockSetInterner {
public:
  /// Nodes per chunk; chunks never move once allocated.  A chunk is not
  /// zero-filled (a node is trivially constructible and written in full
  /// before its id exists), so its pages cost memory only as nodes reach
  /// them.
  static constexpr uint32_t ChunkSize = 1024;

  /// Fixed chunk-directory capacity: up to MaxChunks * ChunkSize distinct
  /// nodes per run, past which interning throws std::bad_alloc, as the
  /// HistoryStore does past its index space.  A fixed array (not a vector)
  /// is what makes concurrent reads safe against the producer growing the
  /// store.
  static constexpr uint32_t MaxChunks = 4096;

  LockSetInterner() {
    Chunks[0] = std::make_unique_for_overwrite<Node[]>(ChunkSize);
    Chunks[0][0] = Node{/*Mask=*/0, LockId::invalid().index(), /*Lo=*/0,
                        /*Hi=*/0, /*Meta=*/ExactBit, /*First=*/{}};
    NumNodes.store(1, std::memory_order_release);
  }

  LockSetInterner(const LockSetInterner &) = delete;
  LockSetInterner &operator=(const LockSetInterner &) = delete;

  /// The canonical id of the empty lockset.
  static constexpr LockSetId emptySet() { return LockSetId(0); }

  /// Returns the canonical id for \p Set, interning it on first sight.
  /// Producer-thread-only.
  LockSetId intern(const LockSet &Set) {
    LockSetId Id = emptySet();
    for (LockId Lock : Set)
      Id = withLock(Id, Lock);
    return Id;
  }

  /// The id of \p Set with \p Lock added.  Producer-thread-only.
  LockSetId withLock(LockSetId Set, LockId Lock) {
    Step &Known = memo(Set.index(), Lock.index(), /*Add=*/true);
    if (Known.From == Set.index() && Known.Lock == Lock.index() && Known.Add)
      return LockSetId(Known.To);
    LockSetId To = add(Set, Lock);
    remember(Set.index(), Lock.index(), /*Add=*/true, To.index());
    return To;
  }

  /// The id of \p Set with \p Lock removed, \p Set itself when \p Lock is
  /// no member.  Producer-thread-only.
  LockSetId withoutLock(LockSetId Set, LockId Lock) {
    Step &Known = memo(Set.index(), Lock.index(), /*Add=*/false);
    if (Known.From == Set.index() && Known.Lock == Lock.index() && !Known.Add)
      return LockSetId(Known.To);
    LockSetId To = remove(Set, Lock);
    remember(Set.index(), Lock.index(), /*Add=*/false, To.index());
    return To;
  }

  /// The set behind \p Id, in ascending order: for tests, diagnostics and
  /// the race report's text.
  LockSet resolve(LockSetId Id) const {
    LockSet Set;
    forEachLock(Id, [&Set](LockId Lock) { Set.insert(Lock); });
    return Set;
  }

  /// Calls \p F with each lock of \p Id in ascending order.
  template <class Fn> void forEachLock(LockSetId Id, Fn &&F) const {
    Walk W(*this);
    W.pushSpine(Id.index(), 0);
    for (uint32_t Lock = W.next(); Lock != Walk::End; Lock = W.next())
      F(LockId(Lock));
  }

  /// The number of locks in \p Id.
  uint32_t sizeOf(LockSetId Id) const { return sizeOfNode(Id.index()); }

  /// The membership mask of \p Id over the first 64 distinct locks, and
  /// whether it covers every member of the set.  A mask bit is always a
  /// real member, so one AND/ANDN decides subset and disjointness when
  /// both sets are exact.
  uint64_t mask(LockSetId Id) const { return node(Id.index()).Mask; }
  bool isExact(LockSetId Id) const {
    return node(Id.index()).Meta & ExactBit;
  }

  /// The length of the longest common prefix of \p A and \p B in
  /// ascending order: the trie nodes their paths share below the root.
  uint32_t commonPrefix(LockSetId A, LockSetId B) const {
    const Node &NA = node(A.index()), &NB = node(B.index());
    uint32_t Shorter = std::min(NA.Meta & SizeMask, NB.Meta & SizeMask);
    for (uint32_t I = 0, E = std::min(Shorter, Head); I != E; ++I)
      if (NA.First[I] != NB.First[I])
        return I;
    if (Shorter <= Head)
      return Shorter;
    Walk WA(*this), WB(*this);
    uint32_t Shared = fork(A.index(), B.index(), WA, WB);
    while (true) {
      uint32_t LA = WA.next(), LB = WB.next();
      if (LA != LB || LA == Walk::End)
        return Shared;
      ++Shared;
    }
  }

  /// Whether \p A sorts before \p B in the lexicographic order of the
  /// ascending sets (a prefix before its extensions): the trie's DFS
  /// order.
  bool less(LockSetId A, LockSetId B) const {
    const Node &NA = node(A.index()), &NB = node(B.index());
    uint32_t SA = NA.Meta & SizeMask, SB = NB.Meta & SizeMask;
    uint32_t Shorter = std::min(SA, SB);
    for (uint32_t I = 0, E = std::min(Shorter, Head); I != E; ++I)
      if (NA.First[I] != NB.First[I])
        return NA.First[I] < NB.First[I];
    if (Shorter <= Head)
      return SA < SB; // one is a prefix of the other
    Walk WA(*this), WB(*this);
    fork(A.index(), B.index(), WA, WB);
    while (true) {
      uint32_t LA = WA.next(), LB = WB.next();
      if (LA != LB) // a set that ends first is a prefix: it goes first
        return LA == Walk::End || (LB != Walk::End && LA < LB);
      if (LA == Walk::End)
        return false;
    }
  }

  /// Whether every lock of \p A is in \p B: a merge walk of the two sets.
  bool isSubsetOf(LockSetId A, LockSetId B) const {
    if (A == B)
      return true;
    if (sizeOf(A) > sizeOf(B))
      return false;
    Walk WA(*this), WB(*this);
    WA.pushSpine(A.index(), 0);
    WB.pushSpine(B.index(), 0);
    for (uint32_t LA = WA.next(); LA != Walk::End; LA = WA.next()) {
      uint32_t LB = WB.next();
      while (LB < LA)
        LB = WB.next();
      if (LB != LA)
        return false;
    }
    return true;
  }

  /// Whether \p A and \p B share a lock: a merge walk of the two sets.
  bool intersects(LockSetId A, LockSetId B) const {
    if (A == B)
      return A != emptySet();
    Walk WA(*this), WB(*this);
    WA.pushSpine(A.index(), 0);
    WB.pushSpine(B.index(), 0);
    uint32_t LA = WA.next(), LB = WB.next();
    while (LA != Walk::End && LB != Walk::End) {
      if (LA == LB)
        return true;
      if (LA < LB)
        LA = WA.next();
      else
        LB = WB.next();
    }
    return false;
  }

  /// Number of nodes interned so far (>= 1: the empty set): every id
  /// handed out is below it.
  size_t size() const { return NumNodes.load(std::memory_order_acquire); }

  /// Pre-sizes the node store and the hash-consing table for
  /// \p ExpectedNodes nodes so a plan-sized run interns without rehashing
  /// or chunk allocation.  Producer-thread-only.
  void reserve(size_t ExpectedNodes) {
    ExpectedNodes = std::min(ExpectedNodes, size_t(MaxChunks) * ChunkSize);
    for (size_t Chunk = 0; Chunk * ChunkSize < ExpectedNodes; ++Chunk)
      if (!Chunks[Chunk])
        Chunks[Chunk] = std::make_unique_for_overwrite<Node[]>(ChunkSize);
    size_t Capacity = Slots.empty() ? 64 : Slots.size();
    while (ExpectedNodes > (Capacity / 4) * 3)
      Capacity *= 2;
    if (Capacity > Slots.size())
      rehash(Capacity);
  }

private:
  static constexpr uint32_t SizeMask = (1u << 30) - 1;
  static constexpr uint32_t SpineBit = 1u << 30;
  static constexpr uint32_t ExactBit = 1u << 31;

  /// Smallest locks a node keeps of its set, so that order and common
  /// prefix are read off two nodes unless the sets share them all.
  static constexpr uint32_t Head = 2;

  /// A tree node holds Lock with its left subtree Lo and right subtree Hi.
  /// A spine node holds Lock with the spine below it, Lo, and its left
  /// subtree, Hi, whose locks all lie between Lo's and Lock.  Either way
  /// the node's set is Lo's, Hi's and Lock, and Lo's locks sort first.
  struct Node {
    uint64_t Mask; ///< membership over dense lock indices < 64
    uint32_t Lock; ///< a LockId index
    uint32_t Lo;
    uint32_t Hi;
    uint32_t Meta; ///< the set's size, SpineBit, ExactBit
    /// The set's min(size, Head) smallest locks, ascending.
    std::array<uint32_t, Head> First;
  };
  static_assert(sizeof(Node) == 32, "a node is 32 bytes");
  static_assert(std::is_trivially_default_constructible_v<Node>,
                "chunks are allocated without zero-filling");

  const Node &node(uint32_t Id) const {
    assert(Id < NumNodes.load(std::memory_order_acquire) &&
           "read of an unpublished lockset id");
    return Chunks[Id / ChunkSize][Id % ChunkSize];
  }
  uint32_t sizeOfNode(uint32_t Id) const { return node(Id).Meta & SizeMask; }

  /// The treap priority of a lock: a fixed bijective hash, with every
  /// program lock above every dummy join lock.  Distinct locks never tie.
  static uint64_t priority(uint32_t Lock) {
    uint32_t H = Lock; // MurmurHash3's fmix32, a bijection
    H ^= H >> 16;
    H *= 0x85ebca6bu;
    H ^= H >> 13;
    H *= 0xc2b2ae35u;
    H ^= H >> 16;
    return (uint64_t(Lock < FirstDummyLock) << 32) | H;
  }

  /// Yields a set's locks in ascending order: the spine from the bottom,
  /// each spine node's subtree in order before its own lock.  The stack
  /// holds nodes whose lock is still due, a spine node whose subtree is
  /// not yet pushed carrying Pending.
  class Walk {
  public:
    static constexpr uint32_t End = UINT32_MAX;

    explicit Walk(const LockSetInterner &Sets) : Sets(Sets) {}

    /// Pushes the spine from \p Top down to \p Stop, exclusive.
    void pushSpine(uint32_t Top, uint32_t Stop) {
      for (; Top != Stop; Top = Sets.node(Top).Lo)
        push(Top | Pending);
    }

    uint32_t next() {
      while (Depth != 0) {
        uint32_t Entry = pop();
        if (Entry & Pending) {
          push(Entry & ~Pending);
          pushLeftPath(Sets.node(Entry & ~Pending).Hi);
          continue;
        }
        const Node &N = Sets.node(Entry);
        if (!(N.Meta & SpineBit))
          pushLeftPath(N.Hi);
        return N.Lock;
      }
      return End;
    }

  private:
    static constexpr uint32_t Pending = 1u << 31;
    static_assert(MaxChunks * ChunkSize <= Pending, "ids leave bit 31 free");
    static constexpr uint32_t Inline = 48;

    void pushLeftPath(uint32_t Tree) {
      for (; Tree != 0; Tree = Sets.node(Tree).Lo)
        push(Tree);
    }
    void push(uint32_t Entry) {
      if (Depth < Inline)
        Stack[Depth] = Entry;
      else
        Spill.push_back(Entry);
      ++Depth;
    }
    uint32_t pop() {
      --Depth;
      if (Depth < Inline)
        return Stack[Depth];
      uint32_t Entry = Spill.back();
      Spill.pop_back();
      return Entry;
    }

    const LockSetInterner &Sets;
    uint32_t Depth = 0;
    uint32_t Stack[Inline];
    std::vector<uint32_t> Spill; ///< past Inline entries: deep sets only
  };

  /// Pushes the spines of \p A and \p B onto \p WA and \p WB down to the
  /// largest spine node they share, and returns its size: a shared spine
  /// node is a shared prefix of both sets.
  uint32_t fork(uint32_t A, uint32_t B, Walk &WA, Walk &WB) const {
    uint32_t X = A, Y = B;
    while (X != Y) {
      if (sizeOfNode(X) >= sizeOfNode(Y))
        X = node(X).Lo;
      else
        Y = node(Y).Lo;
    }
    WA.pushSpine(A, X);
    WB.pushSpine(B, X);
    return sizeOfNode(X);
  }

  uint32_t tree(uint32_t Lo, uint32_t Lock, uint32_t Hi) {
    return make(0, Lo, Hi, Lock);
  }
  uint32_t spine(uint32_t Below, uint32_t Left, uint32_t Lock) {
    return make(SpineBit, Below, Left, Lock);
  }

  bool contains(uint32_t Tree, uint32_t X) const {
    while (Tree != 0) {
      const Node &N = node(Tree);
      if (N.Lock == X)
        return true;
      Tree = X < N.Lock ? N.Lo : N.Hi;
    }
    return false;
  }

  /// \p Tree with \p X added; X is no member.
  uint32_t insert(uint32_t Tree, uint32_t X) {
    if (Tree == 0)
      return tree(0, X, 0);
    const Node &N = node(Tree);
    if (priority(X) > priority(N.Lock)) {
      auto [Lo, Hi] = split(Tree, X);
      return tree(Lo, X, Hi);
    }
    if (X < N.Lock)
      return tree(insert(N.Lo, X), N.Lock, N.Hi);
    return tree(N.Lo, N.Lock, insert(N.Hi, X));
  }

  /// The locks of \p Tree below and above \p X, which is no member.
  std::pair<uint32_t, uint32_t> split(uint32_t Tree, uint32_t X) {
    if (Tree == 0)
      return {0, 0};
    const Node &N = node(Tree);
    if (X < N.Lock) {
      auto [Lo, Hi] = split(N.Lo, X);
      return {Lo, tree(Hi, N.Lock, N.Hi)};
    }
    auto [Lo, Hi] = split(N.Hi, X);
    return {tree(N.Lo, N.Lock, Lo), Hi};
  }

  /// \p Tree without \p X, a member.
  uint32_t erase(uint32_t Tree, uint32_t X) {
    const Node &N = node(Tree);
    if (X == N.Lock)
      return join(N.Lo, N.Hi);
    if (X < N.Lock)
      return tree(erase(N.Lo, X), N.Lock, N.Hi);
    return tree(N.Lo, N.Lock, erase(N.Hi, X));
  }

  /// The union of \p Lo and \p Hi, every lock of Lo below every lock of Hi.
  uint32_t join(uint32_t Lo, uint32_t Hi) {
    if (Lo == 0 || Hi == 0)
      return Lo | Hi;
    const Node &L = node(Lo), &H = node(Hi);
    if (priority(L.Lock) > priority(H.Lock))
      return tree(L.Lo, L.Lock, join(L.Hi, Hi));
    return tree(join(Lo, H.Lo), H.Lock, H.Hi);
  }

  /// withLock() without the memo.
  LockSetId add(LockSetId Set, LockId Lock) {
    const uint32_t X = Lock.index();
    const uint64_t Rank = priority(X);
    // Down the spine past every node the new lock changes: those above it
    // and those it outranks.  Below them the spine stays as it is.
    Path.clear();
    uint32_t Base = Set.index();
    for (; Base != 0; Base = node(Base).Lo) {
      const Node &N = node(Base);
      if (N.Lock == X)
        return Set;
      if (N.Lock < X && priority(N.Lock) > Rank)
        break;
      Path.push_back(Base);
    }
    // Path, top first: Above nodes hold locks above X, the rest (all
    // outranked by X) locks below it.
    size_t Above = 0;
    while (Above != Path.size() && node(Path[Above]).Lock > X)
      ++Above;
    uint32_t Id;
    if (Above != 0 && priority(node(Path[Above - 1]).Lock) > Rank) {
      // The lowest spine node above X outranks it: X joins its subtree.
      assert(Above == Path.size() && "a spine outranks the nodes above it");
      const Node &Next = node(Path[Above - 1]);
      if (contains(Next.Hi, X))
        return Set;
      Id = spine(Base, insert(Next.Hi, X), Next.Lock);
    } else {
      // X joins the spine.  The spine nodes it outranks become its left
      // subtree, above the part of the next spine node's subtree below X.
      uint32_t Left = 0, Right = 0;
      if (Above != 0)
        std::tie(Left, Right) = split(node(Path[Above - 1]).Hi, X);
      for (size_t I = Above; I != Path.size(); ++I) {
        const Node &N = node(Path[I]);
        Left = tree(N.Hi, N.Lock, Left);
      }
      Id = spine(Base, Left, X);
      if (Above != 0)
        Id = spine(Id, Right, node(Path[Above - 1]).Lock);
    }
    return LockSetId(restack(Id, Above == 0 ? 0 : Above - 1));
  }


  /// withoutLock() without the memo.
  LockSetId remove(LockSetId Set, LockId Lock) {
    const uint32_t X = Lock.index();
    Path.clear();
    uint32_t At = Set.index();
    for (; At != 0 && node(At).Lock > X; At = node(At).Lo)
      Path.push_back(At);
    uint32_t Id;
    if (At != 0 && node(At).Lock == X) {
      // X is on the spine: the right spine of its subtree takes its place
      // as far as it outranks the spine node above X, and the rest of the
      // subtree joins that node's subtree.
      const Node &Gone = node(At);
      Id = Gone.Lo;
      uint32_t Rest = Gone.Hi;
      while (Rest != 0 &&
             (Path.empty() ||
              priority(node(Rest).Lock) > priority(node(Path.back()).Lock))) {
        const Node &N = node(Rest);
        Id = spine(Id, N.Lo, N.Lock);
        Rest = N.Hi;
      }
      if (!Path.empty()) {
        const Node &Next = node(Path.back());
        Id = spine(Id, join(Rest, Next.Hi), Next.Lock);
        Path.pop_back();
      }
    } else {
      // X can only be in the subtree of the lowest spine node above it.
      if (Path.empty() || !contains(node(Path.back()).Hi, X))
        return Set;
      const Node &Next = node(Path.back());
      Id = spine(At, erase(Next.Hi, X), Next.Lock);
      Path.pop_back();
    }
    return LockSetId(restack(Id, Path.size()));
  }


  /// One remembered step: From with Lock added (Add) or removed is To.
  struct Step {
    uint32_t From, Lock, To;
    bool Add;
  };
  static constexpr uint32_t MemoSize = 256;

  /// The memo slot of the step from \p From by \p Lock.
  Step &memo(uint32_t From, uint32_t Lock, bool Add) {
    uint64_t X = ((uint64_t(From) << 32) | Lock) * 0x9e3779b97f4a7c15ull;
    return Memo[((X >> 40) ^ Add) % MemoSize];
  }

  /// Remembers the step from \p From by \p Lock to \p To, and, when it
  /// changed the set, the opposite step back.
  void remember(uint32_t From, uint32_t Lock, bool Add, uint32_t To) {
    memo(From, Lock, Add) = Step{From, Lock, To, Add};
    if (From != To)
      memo(To, Lock, !Add) = Step{To, Lock, From, !Add};
  }

  /// Stacks the first \p Count nodes of Path, bottom first, back onto the
  /// spine \p Id with their subtrees unchanged.
  uint32_t restack(uint32_t Id, size_t Count) {
    while (Count != 0) {
      const Node &N = node(Path[--Count]);
      Id = spine(Id, N.Hi, N.Lock);
    }
    return Id;
  }

  /// The node (Kind, Lo, Hi, Lock), created on first sight.
  uint32_t make(uint32_t Kind, uint32_t Lo, uint32_t Hi, uint32_t Lock) {
    if (Count + 1 > (Slots.size() / 4) * 3)
      rehash(Slots.empty() ? 64 : Slots.size() * 2);
    size_t Slot = slotOf(Kind, Lo, Hi, Lock);
    if (Slots[Slot] != 0)
      return Slots[Slot];
    uint32_t Id = NumNodes.load(std::memory_order_relaxed);
    uint32_t Chunk = Id / ChunkSize;
    if (Chunk >= MaxChunks)
      throw std::bad_alloc(); // the directory is full: never index past it
    if (!Chunks[Chunk])
      Chunks[Chunk] = std::make_unique_for_overwrite<Node[]>(ChunkSize);
    const Node &L = node(Lo), &H = node(Hi);
    uint32_t Bit = denseIndex(Lock);
    Node &N = Chunks[Chunk][Id % ChunkSize];
    N.Mask = L.Mask | H.Mask | (Bit < 64 ? uint64_t(1) << Bit : 0);
    N.Lock = Lock;
    N.Lo = Lo;
    N.Hi = Hi;
    N.Meta = ((L.Meta & SizeMask) + (H.Meta & SizeMask) + 1) | Kind |
             (L.Meta & H.Meta & (Bit < 64 ? ExactBit : 0));
    // The smallest locks: Lo's, then Lock and Hi's for a tree node, Hi's
    // and Lock for a spine node.
    uint32_t Taken = 0;
    auto Take = [&](const Node &From) {
      for (uint32_t I = 0; I != (From.Meta & SizeMask) && Taken != Head; ++I)
        N.First[Taken++] = From.First[I];
    };
    auto TakeLock = [&] {
      if (Taken != Head)
        N.First[Taken++] = Lock;
    };
    Take(L);
    if (Kind == SpineBit) {
      Take(H);
      TakeLock();
    } else {
      TakeLock();
      Take(H);
    }
    for (; Taken != Head; ++Taken)
      N.First[Taken] = 0; // past the set's size: never read
    // Publish only after N is fully constructed; release pairs with the
    // acquire in node() so concurrent readers see the node complete (the
    // batch-queue mutex already orders this for the sharded runtime, the
    // atomic keeps the interner correct on its own terms too).
    NumNodes.store(Id + 1, std::memory_order_release);
    Slots[Slot] = Id;
    ++Count;
    return Id;
  }

  static size_t hashOf(uint32_t Kind, uint32_t Lo, uint32_t Hi,
                       uint32_t Lock) {
    // SplitMix64's finalizer over the packed key: ids and locks are small
    // dense integers whose low bits collide under a plain mask.
    uint64_t X = ((uint64_t(Lo) << 32) | Hi) ^
                 ((uint64_t(Lock) << 1 | (Kind != 0)) * 0x9e3779b97f4a7c15ull);
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    return size_t(X);
  }

  /// The slot of the hash-consing table holding (Kind, Lo, Hi, Lock), or
  /// the empty slot ending its probe.  A slot holds a node id; the empty
  /// set, id 0, is never made, so 0 marks an empty slot.
  size_t slotOf(uint32_t Kind, uint32_t Lo, uint32_t Hi, uint32_t Lock) const {
    size_t Mask = Slots.size() - 1;
    for (size_t I = hashOf(Kind, Lo, Hi, Lock) & Mask;; I = (I + 1) & Mask) {
      uint32_t Id = Slots[I];
      if (Id == 0)
        return I;
      const Node &N = node(Id);
      if (N.Lock == Lock && N.Lo == Lo && N.Hi == Hi &&
          (N.Meta & SpineBit) == Kind)
        return I;
    }
  }

  void rehash(size_t Capacity) {
    std::vector<uint32_t> Old = std::move(Slots);
    Slots.assign(Capacity, 0);
    for (uint32_t Id : Old)
      if (Id != 0) {
        const Node &N = node(Id);
        Slots[slotOf(N.Meta & SpineBit, N.Lo, N.Hi, N.Lock)] = Id;
      }
  }

  /// The mask bit of \p Lock, assigning the next free one on first sight;
  /// 64 once the first 64 distinct locks hold every bit.
  uint32_t denseIndex(uint32_t Lock) {
    for (uint32_t I = 0; I != NumMaskLocks; ++I)
      if (MaskLocks[I] == Lock)
        return I;
    if (NumMaskLocks == MaskLocks.size())
      return 64;
    MaskLocks[NumMaskLocks] = Lock;
    return NumMaskLocks++;
  }

  std::array<std::unique_ptr<Node[]>, MaxChunks> Chunks;
  std::atomic<uint32_t> NumNodes{0};
  std::vector<uint32_t> Slots; ///< the hash-consing table; producer-only
  size_t Count = 0;            ///< ids in Slots
  std::vector<uint32_t> Path;  ///< spine scratch of the steps; producer-only
  /// Recent steps; producer-only.  A zeroed slot reads as "the empty set
  /// without lock 0 is the empty set", which holds.
  std::array<Step, MemoSize> Memo{};
  std::array<uint32_t, 64> MaskLocks; ///< dense index -> lock
  uint32_t NumMaskLocks = 0;
};

} // namespace herd

#endif // HERD_SUPPORT_LOCKSETINTERNER_H
