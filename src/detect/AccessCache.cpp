//===- detect/AccessCache.cpp - Per-thread redundant-access cache ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/AccessCache.h"

#include <algorithm>
#include <utility>

using namespace herd;

void AccessCache::acquire() {
  Levels.push_back({0, 0});
  renumber(depth());
  assert(checkInvariants() && "access cache invariant broken");
}

void AccessCache::release(uint32_t Depth) {
  assert(Depth >= 1 && Depth <= depth() && "release of a lock not held");
  for (uint32_t D = Depth; D != Levels.size(); ++D)
    Evictions += std::exchange(Levels[D].Live, 0);
  Levels.pop_back();
  renumber(Depth);
  assert(checkInvariants() && "access cache invariant broken");
}

void AccessCache::renumber(uint32_t From) {
  for (uint32_t D = From; D < Levels.size(); ++D) {
    if (LastId == UINT32_MAX)
      return clear(); // a wrapped id could revive a stale entry
    Levels[D].Id = ++LastId;
  }
  TopId = Levels.back().Id;
}

void AccessCache::clear() {
  for (Entry &E : Entries)
    E.Acquisition = 0;
  for (uint32_t D = 0; D != Levels.size(); ++D)
    Evictions += std::exchange(Levels[D], Level{D + 1, 0}).Live;
  LastId = uint32_t(Levels.size());
  TopId = Levels.back().Id;
}

bool AccessCache::checkInvariants() const {
  std::vector<uint32_t> Recount(Levels.size());
  for (const Entry &E : Entries)
    if (resident(E))
      ++Recount[E.Depth];
  for (size_t D = 0; D != Levels.size(); ++D)
    if (Levels[D].Live != Recount[D] || Levels[D].Id > LastId ||
        Levels[D].Id <= (D ? Levels[D - 1].Id : 0))
      return false;
  return TopId == Levels.back().Id;
}
