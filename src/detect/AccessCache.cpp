//===- detect/AccessCache.cpp - Per-thread redundant-access cache ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessCache.h"

using namespace herd;

void AccessCache::unlink(uint32_t Index) {
  Entry &E = Entries[Index];
  if (!E.ListLock.isValid())
    return;
  if (E.Prev != None)
    Entries[E.Prev].Next = E.Next;
  else
    headOf(E.ListLock) = E.Next; // possibly None: the head stays resident
  if (E.Next != None)
    Entries[E.Next].Prev = E.Prev;
  E.Prev = E.Next = None;
  E.ListLock = LockId::invalid();
}

std::optional<LocationKey> AccessCache::insert(LocationKey Key,
                                               LockId InnermostLock) {
  uint32_t Index = indexOf(Key);
  Entry &E = Entries[Index];
  std::optional<LocationKey> Displaced;
  if (E.Valid) {
    // Conflict eviction: the doubly-linked list makes removal O(1)
    // (Section 4.2, last paragraph).
    ++Evictions;
    unlink(Index);
    if (E.Key != Key)
      Displaced = E.Key;
  }
  E.Key = Key;
  E.Valid = true;
  if (InnermostLock.isValid()) {
    E.ListLock = InnermostLock;
    // The map entry for a lock is created once and then kept resident with
    // a None head when its list empties (eviction tombstone, not erase):
    // after every lock has been seen once, inserts and evictions stop
    // touching the allocator — the cache's steady state is allocation-free.
    uint32_t &Head = headOf(InnermostLock);
    if (Head != None) {
      E.Next = Head;
      Entries[Head].Prev = Index;
    }
    Head = Index;
  }
  return Displaced;
}

void AccessCache::evictLock(LockId Lock) {
  auto It = ListHead.find(Lock);
  if (It == ListHead.end() || It->second == None)
    return;
  uint32_t Index = It->second;
  It->second = None;
  while (Index != None) {
    Entry &E = Entries[Index];
    uint32_t Next = E.Next;
    E.Valid = false;
    E.Prev = E.Next = None;
    E.ListLock = LockId::invalid();
    ++Evictions;
    Index = Next;
  }
}

void AccessCache::evictKey(LocationKey Key) {
  uint32_t Index = indexOf(Key);
  Entry &E = Entries[Index];
  if (!E.Valid || E.Key != Key)
    return;
  unlink(Index);
  E.Valid = false;
  ++Evictions;
}

bool AccessCache::checkListIntegrity() const {
  // Walk every per-lock list once, checking link consistency; count the
  // entries reached.
  size_t Linked = 0;
  for (const auto &[Lock, Head] : ListHead) {
    if (!Lock.isValid())
      return false;
    if (Head == None)
      continue; // resident tombstone: the lock's list is currently empty
    if (Head >= Entries.size())
      return false;
    if (Entries[Head].Prev != None)
      return false;
    size_t Steps = 0;
    for (uint32_t Index = Head; Index != None;) {
      if (++Steps > Entries.size())
        return false; // cycle
      const Entry &E = Entries[Index];
      if (!E.Valid || E.ListLock != Lock)
        return false; // ListHead points at an unlinked or foreign entry
      if (E.Next != None &&
          (E.Next >= Entries.size() || Entries[E.Next].Prev != Index))
        return false;
      ++Linked;
      Index = E.Next;
    }
  }
  // Every lock-tagged valid entry must be on its lock's list (counting
  // matches because an entry's single ListLock tag puts it on at most one
  // list), and unlinked entries must carry no stale list state.
  size_t Tagged = 0;
  for (const Entry &E : Entries) {
    if (E.Valid && E.ListLock.isValid()) {
      ++Tagged;
      if (ListHead.find(E.ListLock) == ListHead.end())
        return false;
    } else if (E.Prev != None || E.Next != None ||
               (!E.Valid && E.ListLock.isValid())) {
      return false;
    }
  }
  return Tagged == Linked;
}

void AccessCache::clear() {
  for (Entry &E : Entries) {
    E.Valid = false;
    E.Prev = E.Next = None;
    E.ListLock = LockId::invalid();
  }
  ListHead.clear();
  LastHead = nullptr;
}
