//===- detect/AccessHistory.cpp - DFS-ordered access history --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessHistory.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

using namespace herd;

//===----------------------------------------------------------------------===
// HistoryStore
//===----------------------------------------------------------------------===

namespace {

/// Chunk indices the 32-bit entry index space holds, keeping the last
/// chunk's worth of indices clear of the None sentinel.
constexpr size_t MaxChunks = (size_t(1) << (32 - HistoryStore::ChunkShift)) - 1;

} // namespace

uint32_t HistoryStore::appendStorage(uint32_t Entries) {
  assert(Entries % ChunkEntries == 0 && "storage comes in whole chunks");
  size_t First = Dir.size();
  // 2^32 entries outgrow any machine's memory first; never wrap the index.
  if (First + Entries / ChunkEntries > MaxChunks)
    throw std::bad_alloc();
  // Uninitialized: every entry is written before it is read, so storage
  // that no block has reached yet costs no resident memory.
  auto *Fresh = static_cast<HistoryEntry *>(
      std::malloc(size_t(Entries) * sizeof(HistoryEntry)));
  if (!Fresh)
    throw std::bad_alloc();
  Storage.emplace_back(Fresh);
  for (uint32_t At = 0; At != Entries; At += ChunkEntries)
    Dir.push_back(Fresh + At);
  return uint32_t(First << ChunkShift);
}

void HistoryStore::retire(uint32_t From, uint32_t To) {
  while (From != To) {
    uint32_t ChunkLeft = ChunkEntries - (From & (ChunkEntries - 1));
    uint32_t Piece = std::bit_floor(std::min(To - From, ChunkLeft));
    release(From, unsigned(std::countr_zero(Piece)));
    From += Piece;
  }
}

void HistoryStore::release(uint32_t Block, unsigned Class) {
  at(Block)->Locks = LockSetId(FreeHeads[Class]);
  FreeHeads[Class] = Block;
}

uint32_t HistoryStore::allocate(unsigned Class) {
  assert(Class <= MaxClass && "history block too large");
  if (uint32_t Block = FreeHeads[Class]; Block != None) {
    FreeHeads[Class] = at(Block)->Locks.index();
    return Block;
  }
  uint32_t Want = uint32_t(1) << Class;
  if (Want > ChunkEntries)
    return appendStorage(Want);
  // A block never straddles a chunk: a tail too short for it goes on the
  // free lists.
  uint32_t Offset = Next & (ChunkEntries - 1);
  if (Next != End && Offset + Want > ChunkEntries) {
    retire(Next, Next + (ChunkEntries - Offset));
    Next += ChunkEntries - Offset;
  }
  if (Next == End) {
    Next = appendStorage(ChunkEntries);
    End = Next + ChunkEntries;
  }
  uint32_t Block = Next;
  Next += Want;
  return Block;
}

void HistoryStore::reserve(size_t Entries) {
  size_t Have = End - Next;
  if (Entries <= Have)
    return;
  // Extend the bump range if nothing was appended after it; otherwise
  // free its rest and start a new one at the end.
  uint32_t Tail = uint32_t(Dir.size() << ChunkShift);
  if (End != Tail) {
    retire(Next, End);
    Next = End = Tail;
    Have = 0;
  }
  size_t Chunks = std::min((Entries - Have + ChunkEntries - 1) / ChunkEntries,
                           MaxChunks - Dir.size());
  if (Chunks == 0)
    return;
  appendStorage(uint32_t(Chunks) * ChunkEntries);
  End += uint32_t(Chunks) * ChunkEntries;
}

//===----------------------------------------------------------------------===
// AccessHistory
//===----------------------------------------------------------------------===

namespace {

/// Length of the common prefix of two canonical locksets: the trie nodes
/// their paths share below the root.
size_t commonPrefix(const LockSet &A, const LockSet &B) {
  return size_t(
      std::mismatch(A.begin(), A.end(), B.begin(), B.end()).first -
      A.begin());
}

/// The event's lockset, with the tests the steps ask of a stored entry's.
/// A mask bit is a real member on both sides, so a mask test that fails
/// is conclusive; a passing one is, when the side it vouches for is exact.
struct EventLocks {
  const LockSetInterner &Sets;
  LockSetId Id;
  uint64_t Mask;
  bool Exact;

  /// Entry's lockset ⊆ the event's.
  bool covers(const HistoryEntry &E) const {
    if (Sets.mask(E.Locks) & ~Mask)
      return false;
    if (Sets.isExact(E.Locks))
      return true;
    return !Exact && Sets.resolve(E.Locks).isSubsetOf(Sets.resolve(Id));
  }

  /// Entry's lockset ⊇ the event's.
  bool coveredBy(const HistoryEntry &E) const {
    if (Mask & ~Sets.mask(E.Locks))
      return false;
    if (Exact)
      return true;
    return !Sets.isExact(E.Locks) &&
           Sets.resolve(Id).isSubsetOf(Sets.resolve(E.Locks));
  }

  /// Entry's lockset ∩ the event's = ∅.
  bool disjointFrom(const HistoryEntry &E) const {
    if (Sets.mask(E.Locks) & Mask)
      return false;
    if (Exact || Sets.isExact(E.Locks))
      return true;
    return !Sets.resolve(E.Locks).intersects(Sets.resolve(Id));
  }
};

} // namespace

AccessHistory::Outcome
AccessHistory::process(HistoryStore &Store, const LockSetInterner &Locksets,
                       ThreadId Thread, LockSetId Locks, AccessKind Access,
                       SiteId Site) {
  Outcome Result;
  const ThreadLattice EventThread(Thread);
  const EventLocks Event{Locksets, Locks, Locksets.mask(Locks),
                         Locksets.isExact(Locks)};
  HistoryEntry *Entries = Size ? Store.at(Block) : nullptr;

  // One scan in DFS order: the weakness check, the first race, the entry
  // holding the event's exact lockset and the first entry to prune.
  constexpr uint32_t None = HistoryStore::None;
  uint32_t Race = None, Same = None, PruneFrom = None;
  auto Prunable = [&](const HistoryEntry &E) {
    return isWeakerOrEqual(EventThread, E.Thread) &&
           isWeakerOrEqual(Access, E.Access) && Event.coveredBy(E);
  };
  for (uint32_t I = 0; I != Size; ++I) {
    const HistoryEntry &E = Entries[I];
    // 1. Weakness (Definition 2): the event adds nothing.
    if (isWeakerOrEqual(E.Thread, EventThread) &&
        isWeakerOrEqual(E.Access, Access) && Event.covers(E)) {
      Result.Filtered = true;
      assert(checkInvariants(Store, Locksets) && "history invariant broken");
      return Result;
    }
    // 2. Case II on a node Case I does not exclude.
    if (Race == None && meet(E.Thread, EventThread).isBottom() &&
        meet(E.Access, Access) == AccessKind::Write && Event.disjointFrom(E))
      Race = I;
    if (E.Locks == Locks)
      Same = I;
    else if (PruneFrom == None && Prunable(E))
      PruneFrom = I;
  }

  if (Race != None) {
    const HistoryEntry &Hit = Entries[Race];
    Result.Raced = true;
    Result.PriorThreadKnown = Hit.Thread.isConcrete();
    if (Result.PriorThreadKnown)
      Result.PriorThread = Hit.Thread.concrete();
    Result.PriorAccess = Hit.Access;
    Result.PriorSite = Hit.Site;
    Result.PriorLocks = Hit.Locks;
  }

  // 3. Update the entry for the event's exact lockset.
  if (Same != None) {
    HistoryEntry &E = Entries[Same];
    E.Thread = meet(E.Thread, EventThread);
    E.Access = meet(E.Access, Access);
    E.Site = Site;
  }

  // 4. Remove the other entries the event is weaker than, keeping the
  // node count: a removed lockset takes with it the nodes it shares with
  // neither of its current neighbours.
  if (PruneFrom != None) {
    uint32_t Kept = PruneFrom;
    for (uint32_t I = PruneFrom; I != Size; ++I) {
      const HistoryEntry &E = Entries[I];
      if (I != Same && Prunable(E)) {
        const LockSet &Gone = Locksets.resolve(E.Locks);
        size_t Shared = 0;
        if (Kept != 0)
          Shared = commonPrefix(Locksets.resolve(Entries[Kept - 1].Locks),
                                Gone);
        if (I + 1 != Size)
          Shared = std::max(
              Shared,
              commonPrefix(Gone, Locksets.resolve(Entries[I + 1].Locks)));
        Nodes -= uint32_t(Gone.size() - Shared);
        Store.Live -= Gone.size() - Shared;
        continue;
      }
      Entries[Kept++] = E;
    }
    Size = Kept;
  }

  if (Same == None)
    insert(Store, Locksets,
           HistoryEntry{Locks, Site, EventThread, Access});

  assert(checkInvariants(Store, Locksets) && "history invariant broken");
  return Result;
}

void AccessHistory::insert(HistoryStore &Store,
                           const LockSetInterner &Locksets,
                           const HistoryEntry &Fresh) {
  const LockSet &Set = Locksets.resolve(Fresh.Locks);
  HistoryEntry *Entries = Block != HistoryStore::None ? Store.at(Block)
                                                      : nullptr;
  // Its lexicographic position, then the nodes its path adds: those past
  // the longest prefix it shares with a neighbour (and the root, on a
  // location's first event).
  uint32_t Pos = 0;
  for (uint32_t Count = Size; Count != 0;) {
    uint32_t Half = Count / 2;
    if (Locksets.resolve(Entries[Pos + Half].Locks) < Set) {
      Pos += Half + 1;
      Count -= Half + 1;
    } else {
      Count = Half;
    }
  }
  size_t Shared = 0;
  if (Pos != 0)
    Shared = commonPrefix(Locksets.resolve(Entries[Pos - 1].Locks), Set);
  if (Pos != Size)
    Shared = std::max(Shared,
                      commonPrefix(Set, Locksets.resolve(Entries[Pos].Locks)));
  size_t Added = Set.size() - Shared + (Nodes == 0 ? 1 : 0);
  Nodes += uint32_t(Added);
  Store.Live += Added;

  if (Block == HistoryStore::None) {
    Block = Store.allocate(0);
    Class = 0;
    Entries = Store.at(Block);
  } else if (Size == uint32_t(1) << Class) {
    // Full: move to a block twice the size.  Chunks never move, so
    // Entries stays valid while the store grows.
    uint32_t Grown = Store.allocate(Class + 1u);
    HistoryEntry *To = Store.at(Grown);
    std::copy(Entries, Entries + Pos, To);
    std::copy(Entries + Pos, Entries + Size, To + Pos + 1);
    Store.release(Block, Class);
    Block = Grown;
    ++Class;
    Entries = To;
  } else {
    std::copy_backward(Entries + Pos, Entries + Size, Entries + Size + 1);
  }
  Entries[Pos] = Fresh;
  ++Size;
}

bool AccessHistory::checkInvariants(const HistoryStore &Store,
                                    const LockSetInterner &Locksets) const {
  if (Nodes == 0)
    return Size == 0 && Block == HistoryStore::None;
  if (Size == 0 || Block == HistoryStore::None ||
      Size > (uint64_t(1) << Class))
    return false; // every processed event leaves an entry behind
  const HistoryEntry *Entries = Store.at(Block);
  const LockSet *Prev = nullptr;
  size_t Prefixes = 0;
  for (uint32_t I = 0; I != Size; ++I) {
    const HistoryEntry &E = Entries[I];
    if (E.Thread.isTop() || E.Locks.index() >= Locksets.size())
      return false; // an entry without an access, or an unknown lockset
    // Strict ascent of the canonical sets also rules out two entries with
    // one LockSetId.
    const LockSet &Set = Locksets.resolve(E.Locks);
    if (Prev && !(*Prev < Set))
      return false;
    // Sorted distinct paths: each adds the nodes past the prefix it shares
    // with its predecessor.
    Prefixes += Set.size() - (Prev ? commonPrefix(*Prev, Set) : 0);
    Prev = &Set;
  }
  return Nodes == 1 + Prefixes;
}
