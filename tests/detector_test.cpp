//===- tests/detector_test.cpp - Detector + ownership tests ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the per-location detector with the ownership model (Sections 3
/// and 7) and the FieldsMerged accuracy variant, driven by synthetic event
/// streams.
///
//===----------------------------------------------------------------------===//

#include "detect/Detector.h"

#include <gtest/gtest.h>

using namespace herd;

namespace {

constexpr AccessKind R = AccessKind::Read;
constexpr AccessKind W = AccessKind::Write;

AccessEvent event(uint32_t Thread, uint32_t Obj, uint32_t Field,
                  std::initializer_list<uint32_t> Locks, AccessKind Kind) {
  AccessEvent E;
  E.Location = LocationKey::forField(ObjectId(Obj), FieldId(Field));
  E.Thread = ThreadId(Thread);
  for (uint32_t L : Locks)
    E.Locks.insert(LockId(L));
  E.Access = Kind;
  return E;
}

TEST(DetectorTest, OwnershipFiltersSingleThreadAccesses) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  for (int I = 0; I != 10; ++I)
    Det.handleAccess(event(1, 1, 0, {}, W));
  DetectorStats S = Det.stats();
  EXPECT_EQ(S.OwnedFiltered, 10u);
  EXPECT_EQ(S.LocationsShared, 0u);
  EXPECT_TRUE(Reporter.empty());
}

TEST(DetectorTest, InitThenHandoffPatternNotReported) {
  // The common idiom of Section 2.3: a parent initializes data without
  // locks, a child then works on it exclusively.  Ownership cannot order
  // the two (no join), but because the *detector only starts recording at
  // the sharing access*, the parent's unlocked initialization is invisible
  // and the single child never races with itself.
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  Det.handleAccess(event(0, 1, 0, {}, W)); // parent init
  Det.handleAccess(event(1, 1, 0, {}, W)); // child takes over (shares)
  Det.handleAccess(event(1, 1, 0, {}, R));
  EXPECT_TRUE(Reporter.empty());
  EXPECT_EQ(Det.stats().LocationsShared, 1u);
}

TEST(DetectorTest, NoOwnershipReportsHandoffAsRace) {
  RaceReporter Reporter;
  Detector Det(Reporter, {/*UseOwnership=*/false});
  Det.handleAccess(event(0, 1, 0, {}, W));
  Det.handleAccess(event(1, 1, 0, {}, W));
  EXPECT_EQ(Reporter.size(), 1u); // the spurious report Table 3 counts
}

TEST(DetectorTest, RealRaceReportedWithOwnership) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  Det.handleAccess(event(1, 1, 0, {}, W)); // owner
  Det.handleAccess(event(2, 1, 0, {}, W)); // shares; no prior history
  Det.handleAccess(event(1, 1, 0, {}, W)); // now conflicts with thread 2
  ASSERT_EQ(Reporter.size(), 1u);
  const RaceRecord &Rec = Reporter.records()[0];
  EXPECT_EQ(Rec.CurrentThread, ThreadId(1));
  EXPECT_TRUE(Rec.PriorThreadKnown);
  EXPECT_EQ(Rec.PriorThread, ThreadId(2));
}

TEST(DetectorTest, OwnershipSharingAccessStartsTheHistory) {
  // The access that flips a location to shared is itself recorded: a later
  // disjoint-lockset access by another thread must race with it.
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  Det.handleAccess(event(1, 1, 0, {}, R));  // owner reads
  Det.handleAccess(event(2, 1, 0, {5}, W)); // shares, holds lock 5
  Det.handleAccess(event(3, 1, 0, {6}, W)); // disjoint from {5}: race
  EXPECT_EQ(Reporter.size(), 1u);
}

TEST(DetectorTest, ProperlyLockedSharingNeverReports) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  for (uint32_t Round = 0; Round != 50; ++Round) {
    Det.handleAccess(event(1 + Round % 3, 1, 0, {9}, W));
    Det.handleAccess(event(1 + (Round + 1) % 3, 1, 0, {9}, R));
  }
  EXPECT_TRUE(Reporter.empty());
}

TEST(DetectorTest, DistinctFieldsAreDistinctLocations) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  // Field 0 protected by lock 3; field 1 protected by lock 4 — consistent
  // per-field locking, no races even though no single lock covers both.
  for (int I = 0; I != 10; ++I) {
    Det.handleAccess(event(1, 1, 0, {3}, W));
    Det.handleAccess(event(2, 1, 0, {3}, W));
    Det.handleAccess(event(1, 1, 1, {4}, W));
    Det.handleAccess(event(2, 1, 1, {4}, W));
  }
  EXPECT_TRUE(Reporter.empty());
}

TEST(DetectorTest, FieldsMergedConflatesPerFieldLocking) {
  // The same stream as above reported as racy when fields are merged —
  // exactly the spurious LinkedQueue-style reports of Section 8.3.  The
  // runtime's front end merges fields before its cache, so the detector
  // receives object-granularity keys.
  RaceReporter Reporter;
  Detector Det(Reporter, {/*UseOwnership=*/true});
  for (int I = 0; I != 10; ++I)
    for (AccessEvent E : {event(1, 1, 0, {3}, W), event(2, 1, 0, {3}, W),
                          event(1, 1, 1, {4}, W), event(2, 1, 1, {4}, W)}) {
      E.Location = E.Location.withFieldsMerged();
      Det.handleAccess(E);
    }
  EXPECT_FALSE(Reporter.empty());
  EXPECT_EQ(Reporter.countDistinctObjects(), 1u);
}

TEST(DetectorTest, ReportsAtLeastOncePerRacyLocation) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  // Two independent racy locations.
  Det.handleAccess(event(1, 1, 0, {}, W));
  Det.handleAccess(event(2, 1, 0, {}, W)); // shares loc A
  Det.handleAccess(event(1, 2, 0, {}, W));
  Det.handleAccess(event(2, 2, 0, {}, W)); // shares loc B
  Det.handleAccess(event(1, 1, 0, {}, W)); // races on A
  Det.handleAccess(event(1, 2, 0, {}, W)); // races on B
  EXPECT_EQ(Reporter.countDistinctLocations(), 2u);
  EXPECT_EQ(Reporter.countDistinctObjects(), 2u);
}

TEST(DetectorTest, OnSharedCallbackFires) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  std::vector<std::pair<LocationKey, ThreadId>> Shared;
  Det.setOnShared([&](LocationKey K, ThreadId Owner) {
    Shared.emplace_back(K, Owner);
  });
  Det.handleAccess(event(1, 7, 0, {}, W));
  Det.handleAccess(event(1, 7, 0, {}, W));
  EXPECT_TRUE(Shared.empty());
  Det.handleAccess(event(2, 7, 0, {}, W));
  ASSERT_EQ(Shared.size(), 1u);
  EXPECT_EQ(Shared[0].first, LocationKey::forField(ObjectId(7), FieldId(0)));
  // The callback names the thread that owned the location until now: the
  // only one whose caches can hold it.
  EXPECT_EQ(Shared[0].second, ThreadId(1));
  Det.handleAccess(event(3, 7, 0, {}, W)); // already shared: no callback
  EXPECT_EQ(Shared.size(), 1u);
}

TEST(DetectorTest, StatsCountTrieNodes) {
  RaceReporter Reporter;
  Detector Det(Reporter, {});
  Det.handleAccess(event(1, 1, 0, {2, 3}, W));
  Det.handleAccess(event(2, 1, 0, {2, 3}, W)); // shared; path of 2 locks
  DetectorStats S = Det.stats();
  EXPECT_EQ(S.LocationsTracked, 1u);
  EXPECT_EQ(S.LocationsShared, 1u);
  EXPECT_EQ(S.TrieNodes, 3u); // root + 2 path nodes
}

} // namespace
