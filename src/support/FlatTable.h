//===- support/FlatTable.h - Open-addressed location table ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressed hash table from LocationKey to a mapped value, replacing
/// the std::unordered_map in the detector's per-event path.  One contiguous
/// slot array (power-of-two capacity, linear probing, SplitMix64-mixed keys)
/// turns the old two-cache-miss node-based lookup into a single probe that
/// usually stays within one cache line, and inserting never allocates except
/// at the rare capacity doublings.
///
/// The table is insert-only — the detector never forgets a location — which
/// keeps growth tombstone-free: rehash simply re-probes every live slot into
/// the doubled array.  The all-ones key (a default-constructed LocationKey,
/// which no real (object, field) pair produces) marks empty slots, so there
/// is no per-slot occupancy byte.
///
/// Mapped values must be default-constructible and movable.  References
/// returned by find()/tryEmplace() are invalidated by the next insertion
/// that grows the table, like every open-addressed map.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_FLATTABLE_H
#define HERD_SUPPORT_FLATTABLE_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace herd {

/// Insert-only open-addressed map from LocationKey to \p Value.
template <typename Value> class LocationTable {
public:
  LocationTable() = default;

  /// Looks up \p Key, inserting a default-constructed value if absent.
  /// Returns the mapped value and whether an insertion happened.
  std::pair<Value *, bool> tryEmplace(LocationKey Key) {
    assert(Key != LocationKey() && "the empty-slot sentinel cannot be a key");
    if (Count + 1 > (Slots.size() / 4) * 3)
      grow();
    size_t Index = probeOf(Key);
    while (Slots[Index].Key != LocationKey()) {
      if (Slots[Index].Key == Key)
        return {&Slots[Index].Mapped, false};
      Index = (Index + 1) & (Slots.size() - 1);
    }
    Slots[Index].Key = Key;
    ++Count;
    return {&Slots[Index].Mapped, true};
  }

  /// Returns the value mapped to \p Key, or nullptr.
  Value *find(LocationKey Key) {
    if (Slots.empty())
      return nullptr;
    size_t Index = probeOf(Key);
    while (Slots[Index].Key != LocationKey()) {
      if (Slots[Index].Key == Key)
        return &Slots[Index].Mapped;
      Index = (Index + 1) & (Slots.size() - 1);
    }
    return nullptr;
  }
  const Value *find(LocationKey Key) const {
    return const_cast<LocationTable *>(this)->find(Key);
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  size_t capacity() const { return Slots.size(); }

  /// Smallest valid slot-array capacity that holds \p Expected entries
  /// without triggering growth: power of two, at least the 64-slot floor,
  /// load factor kept under the 3/4 growth threshold.  Saturates at the
  /// largest power-of-two capacity instead of overflowing for absurd
  /// requests.
  static size_t capacityFor(size_t Expected) {
    const size_t MaxCapacity = ~(~size_t(0) >> 1); // largest power of two
    size_t Capacity = 64;
    while (Expected > (Capacity / 4) * 3) {
      if (Capacity >= MaxCapacity)
        return MaxCapacity;
      Capacity *= 2;
    }
    return Capacity;
  }

  /// Pre-sizes the table for \p Expected entries so inserting that many
  /// keys never rehashes.  Never shrinks; safe to call on a live table.
  void reserve(size_t Expected) {
    size_t Target = capacityFor(Expected);
    if (Target > Slots.size())
      rehash(Target);
  }

private:
  struct Slot {
    LocationKey Key; ///< default-constructed (all-ones raw) == empty
    Value Mapped;
  };

  size_t probeOf(LocationKey Key) const {
    // SplitMix64 finalizer (same mix as std::hash<LocationKey>): the raw
    // keys pack small dense integers whose low bits collide badly with a
    // plain power-of-two mask.
    uint64_t X = Key.raw();
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    return size_t(X) & (Slots.size() - 1);
  }

  void grow() { rehash(Slots.empty() ? 64 : Slots.size() * 2); }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old = std::move(Slots);
    Slots = std::vector<Slot>();
    Slots.resize(NewCapacity); // default-inserts; Value may be move-only
    for (Slot &S : Old) {
      if (S.Key == LocationKey())
        continue;
      size_t Index = probeOf(S.Key);
      while (Slots[Index].Key != LocationKey())
        Index = (Index + 1) & (Slots.size() - 1);
      Slots[Index] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace herd

#endif // HERD_SUPPORT_FLATTABLE_H
