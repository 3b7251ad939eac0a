//===- support/Ids.h - Strong identifier types ------------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly-typed integer identifiers for the entities that flow between the
/// IR, the runtime and the detector.  Using distinct types (rather than bare
/// `unsigned`) catches category errors such as passing a lock id where a
/// thread id is expected at compile time.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_SUPPORT_IDS_H
#define HERD_SUPPORT_IDS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace herd {

/// CRTP base for strongly-typed dense ids.  Each id wraps a 32-bit index and
/// exposes an explicit invalid state.
template <typename Derived> class StrongId {
public:
  static constexpr uint32_t InvalidIndex =
      std::numeric_limits<uint32_t>::max();

  constexpr StrongId() = default;
  constexpr explicit StrongId(uint32_t Index) : Index(Index) {}

  /// Returns the raw dense index; only valid ids may be unwrapped.
  constexpr uint32_t index() const { return Index; }
  constexpr bool isValid() const { return Index != InvalidIndex; }

  static constexpr Derived invalid() { return Derived(InvalidIndex); }

  friend constexpr bool operator==(Derived A, Derived B) {
    return A.Index == B.Index;
  }
  friend constexpr bool operator!=(Derived A, Derived B) {
    return A.Index != B.Index;
  }
  friend constexpr bool operator<(Derived A, Derived B) {
    return A.Index < B.Index;
  }

private:
  uint32_t Index = InvalidIndex;
};

/// Identifies a class declaration in a Program.
struct ClassId : StrongId<ClassId> {
  using StrongId::StrongId;
};

/// Identifies a field declaration; field ids are global across the Program
/// so that `field(x) = field(y)` checks are a single integer compare.
struct FieldId : StrongId<FieldId> {
  using StrongId::StrongId;
};

/// Identifies a method in a Program.
struct MethodId : StrongId<MethodId> {
  using StrongId::StrongId;
};

/// Identifies a basic block within a method.
struct BlockId : StrongId<BlockId> {
  using StrongId::StrongId;
};

/// Identifies a virtual register within a method.
struct RegId : StrongId<RegId> {
  using StrongId::StrongId;
};

/// Identifies an allocation site (a `new` instruction).  Abstract objects in
/// the points-to analysis are allocation sites (Section 5.3 of the paper).
struct AllocSiteId : StrongId<AllocSiteId> {
  using StrongId::StrongId;
};

/// Identifies a source location (statement label such as "T11") used in race
/// reports; it has no bearing on detection itself (Section 2.4).
struct SiteId : StrongId<SiteId> {
  using StrongId::StrongId;
};

/// Identifies a runtime thread.  ThreadId 0 is always the main thread.
struct ThreadId : StrongId<ThreadId> {
  using StrongId::StrongId;
};

/// Threads one run may ever create, the main thread included
/// (docs/MINIJ.md).  The interpreter faults on a start past it, trace
/// replay rejects a create past it, and the epoch detector's slot space
/// holds it, so per-thread state stays bounded whatever the input.
inline constexpr uint32_t MaxThreads = 1024;

/// Identifies a runtime lock.  Every heap object can act as a monitor; the
/// detector additionally allocates per-thread dummy locks S_j to model join
/// (Section 2.3).
struct LockId : StrongId<LockId> {
  using StrongId::StrongId;
};

/// The dummy join lock S_j of thread j is LockId(FirstDummyLock + j), above
/// every lock a program can name: program locks are heap object indices,
/// which the interpreter's heap budget keeps far below it, and trace replay
/// rejects a monitor record that names a lock at or past it (docs/REPLAY.md).
inline constexpr uint32_t FirstDummyLock = uint32_t(1) << 30;

/// Identifies a heap object instance at runtime.
struct ObjectId : StrongId<ObjectId> {
  using StrongId::StrongId;
};

/// Identifies a canonical (interned) lockset in a LockSetInterner.  Id 0 is
/// always the empty set.  Passing this 4-byte id per event instead of a
/// SortedIdSet copy is what keeps the detector hot path allocation-free.
struct LockSetId : StrongId<LockSetId> {
  using StrongId::StrongId;
};

/// A logical memory location: a (object, field) pair, or the whole array for
/// array element accesses (the paper associates one location with all
/// elements of an array, Section 2.1 footnote 1).
class LocationKey {
public:
  constexpr LocationKey() = default;

  static constexpr LocationKey forField(ObjectId Obj, FieldId Field) {
    return LocationKey((uint64_t(Obj.index()) << 32) | Field.index());
  }

  /// All elements of an array share a single logical location.
  static constexpr LocationKey forArray(ObjectId Obj) {
    return LocationKey((uint64_t(Obj.index()) << 32) | ArrayFieldMark);
  }

  /// Static fields live on a per-class pseudo-object; the caller supplies
  /// that object's id.
  static constexpr LocationKey forStatic(ObjectId ClassObj, FieldId Field) {
    return forField(ClassObj, Field);
  }

  /// Collapses the field component so that all fields of one object map to
  /// the same location (the "FieldsMerged" accuracy variant of Table 3).
  constexpr LocationKey withFieldsMerged() const {
    return LocationKey(Raw | 0xFFFFFFFFull);
  }

  constexpr uint64_t raw() const { return Raw; }

  /// Rebuilds a key from raw() output (event-log deserialization).
  static constexpr LocationKey fromRaw(uint64_t Raw) {
    return LocationKey(Raw);
  }

  constexpr ObjectId object() const { return ObjectId(uint32_t(Raw >> 32)); }

  friend constexpr bool operator==(LocationKey A, LocationKey B) {
    return A.Raw == B.Raw;
  }
  friend constexpr bool operator!=(LocationKey A, LocationKey B) {
    return A.Raw != B.Raw;
  }
  friend constexpr bool operator<(LocationKey A, LocationKey B) {
    return A.Raw < B.Raw;
  }

private:
  static constexpr uint32_t ArrayFieldMark = 0xFFFFFFFE;

  constexpr explicit LocationKey(uint64_t Raw) : Raw(Raw) {}

  uint64_t Raw = ~0ull;
};

} // namespace herd

namespace std {
template <> struct hash<herd::LocationKey> {
  size_t operator()(herd::LocationKey Key) const {
    // SplitMix64 finalizer: cheap and well distributed for (obj, field)
    // packed keys whose low bits are small integers.
    uint64_t X = Key.raw();
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ull;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebull;
    X ^= X >> 31;
    return size_t(X);
  }
};

#define HERD_DEFINE_ID_HASH(TYPE)                                              \
  template <> struct hash<herd::TYPE> {                                        \
    size_t operator()(herd::TYPE Id) const {                                   \
      return hash<uint32_t>()(Id.index());                                     \
    }                                                                          \
  }

HERD_DEFINE_ID_HASH(ClassId);
HERD_DEFINE_ID_HASH(FieldId);
HERD_DEFINE_ID_HASH(MethodId);
HERD_DEFINE_ID_HASH(BlockId);
HERD_DEFINE_ID_HASH(RegId);
HERD_DEFINE_ID_HASH(AllocSiteId);
HERD_DEFINE_ID_HASH(SiteId);
HERD_DEFINE_ID_HASH(ThreadId);
HERD_DEFINE_ID_HASH(LockId);
HERD_DEFINE_ID_HASH(ObjectId);
HERD_DEFINE_ID_HASH(LockSetId);

#undef HERD_DEFINE_ID_HASH
} // namespace std

#endif // HERD_SUPPORT_IDS_H
