//===- detect/AccessEvent.h - Events and the weaker-than relation -*- C++ -*-=//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access-event model of Section 2.4 and the weaker-than relation of
/// Section 3.1.
///
/// An access event is the 5-tuple (m, t, L, a, s): memory location, thread,
/// lockset, access kind, and source site.  IsRace(e_i, e_j) holds when the
/// two events touch the same location from different threads with disjoint
/// locksets and at least one write.
///
/// The weaker-than partial order p ⊑ q (Definition 2) identifies stored
/// events that dominate new ones: p.m = q.m ∧ p.L ⊆ q.L ∧ p.t ⊑ q.t ∧
/// p.a ⊑ q.a.  Theorem 1 shows a weaker event races with every future event
/// the stronger one races with, so the stronger event can be discarded.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSEVENT_H
#define HERD_DETECT_ACCESSEVENT_H

#include "ir/Instr.h"
#include "support/Ids.h"
#include "support/SortedIdSet.h"

namespace herd {

/// A set of locks held during an access.
using LockSet = SortedIdSet<LockId>;

/// The thread lattice used by the detector's stored state:
///   top ("no threads")  ⊒  concrete thread  ⊒  bottom ("≥2 threads").
/// A *new* event always carries a concrete thread; bottom appears only in
/// stored history after two distinct threads accessed a location with the
/// same lockset (the t_⊥ space optimization of Section 3.1).
class ThreadLattice {
public:
  constexpr ThreadLattice() = default; // top
  constexpr ThreadLattice(ThreadId Id) : Id(Id), Tag(Kind::Concrete) {}

  static constexpr ThreadLattice top() { return ThreadLattice(Kind::Top); }
  static constexpr ThreadLattice bottom() {
    return ThreadLattice(Kind::Bottom);
  }

  constexpr bool isTop() const { return Tag == Kind::Top; }
  constexpr bool isBottom() const { return Tag == Kind::Bottom; }
  constexpr bool isConcrete() const { return Tag == Kind::Concrete; }

  constexpr ThreadId concrete() const {
    assert(isConcrete() && "not a concrete thread");
    return Id;
  }

  /// The meet operator ⊓ of Section 3.2.1: x ⊓ x = x, x ⊓ top = x, and the
  /// meet of two distinct concrete threads is bottom.
  friend constexpr ThreadLattice meet(ThreadLattice A, ThreadLattice B) {
    if (A.isTop())
      return B;
    if (B.isTop())
      return A;
    if (A.isBottom() || B.isBottom())
      return bottom();
    return A.Id == B.Id ? A : bottom();
  }

  /// The partial order t_i ⊑ t_j ⟺ t_i = t_j ∨ t_i = t_⊥ (Section 3.1).
  /// Top is not related to anything but itself (it denotes "no access").
  friend constexpr bool isWeakerOrEqual(ThreadLattice A, ThreadLattice B) {
    if (A.isBottom())
      return true;
    if (A.isTop() || B.isTop())
      return A.Tag == B.Tag;
    if (B.isBottom())
      return false;
    return A.Id == B.Id;
  }

  friend constexpr bool operator==(ThreadLattice A, ThreadLattice B) {
    if (A.Tag != B.Tag)
      return false;
    return A.Tag != Kind::Concrete || A.Id == B.Id;
  }

private:
  enum class Kind : uint8_t { Top, Concrete, Bottom };

  constexpr explicit ThreadLattice(Kind Tag) : Tag(Tag) {}

  // Tag last: its tail padding can hold a neighbouring field (TrieNode).
  ThreadId Id;
  Kind Tag = Kind::Top;
};

/// An access event (m, t, L, a, s).
struct AccessEvent {
  LocationKey Location;
  ThreadId Thread;
  LockSet Locks;
  AccessKind Access = AccessKind::Read;
  SiteId Site;
};

/// The hot-path form of an access event: identical to AccessEvent except
/// the lockset is an interned LockSetId (4 bytes, trivially copyable)
/// instead of an owning SortedIdSet.  This is what flows through
/// EventBatch, the sharded runtime's queues, and Detector::handleEvent;
/// the id resolves against the runtime's LockSetInterner.
struct DetectorEvent {
  LocationKey Location;
  ThreadId Thread;
  LockSetId Locks;
  AccessKind Access = AccessKind::Read;
  SiteId Site;
};

/// The result of feeding one event to a location's AccessHistory (Section
/// 3.2).  The reference AccessTrie returns the same fields with the prior
/// lockset resolved (AccessTrie::Outcome).
struct HistoryOutcome {
  bool Filtered = false; ///< a stored weaker access already covers this
  bool Raced = false;    ///< Case II fired

  // Prior-access information when Raced (for the report): the earlier
  // access's lockset, kind, and its thread when known (t_⊥ erases it).
  bool PriorThreadKnown = false;
  ThreadId PriorThread;
  AccessKind PriorAccess = AccessKind::Read;
  /// The hit entry's interned lockset; the empty set (id 0) unless Raced.
  LockSetId PriorLocks = LockSetId(0);
  SiteId PriorSite; ///< site of the last event merged into the hit access
};

/// IsRace(e_i, e_j) from Section 2.4: same location, different threads,
/// disjoint locksets, at least one write.
inline bool isRace(const AccessEvent &A, const AccessEvent &B) {
  return A.Location == B.Location && A.Thread != B.Thread &&
         !A.Locks.intersects(B.Locks) &&
         (A.Access == AccessKind::Write || B.Access == AccessKind::Write);
}

/// The dynamic weaker-than check p ⊑ q (Definition 2) between two events
/// with concrete threads.  The trie generalizes this to stored lattice
/// values; this form is used by tests and by the property checks.
inline bool isWeakerOrEqual(const AccessEvent &P, const AccessEvent &Q) {
  return P.Location == Q.Location && P.Locks.isSubsetOf(Q.Locks) &&
         isWeakerOrEqual(ThreadLattice(P.Thread), ThreadLattice(Q.Thread)) &&
         isWeakerOrEqual(P.Access, Q.Access);
}

} // namespace herd

#endif // HERD_DETECT_ACCESSEVENT_H
