//===- analysis/DetectorPlanner.cpp - Race set -> DetectorPlan ------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/DetectorPlanner.h"

#include "detect/RaceRuntime.h" // dummyLockOf: the canonical S_j id scheme

#include <unordered_map>
#include <unordered_set>

using namespace herd;

namespace {

/// Packs one static location target.  Mirrors the runtime's LocationKey
/// construction (support/Ids.h): instance fields are (site, field), array
/// elements are (site, one-per-array), statics are (class, field) — the
/// interpreter materializes statics as per-class pseudo-objects, so one
/// static field is always exactly one runtime location.
uint64_t packFieldTarget(AllocSiteId Site, FieldId Field) {
  return (uint64_t(Site.index()) << 32) | Field.index();
}
uint64_t packArrayTarget(AllocSiteId Site) {
  return (uint64_t(Site.index()) << 32) | 0xFFFFFFFEull;
}
uint64_t packStaticTarget(ClassId Class, FieldId Field) {
  // Distinct namespace from alloc-site targets: statics cannot collide
  // with instance targets, so tag them in the (otherwise unused) top bit.
  return (uint64_t(1) << 63) | (uint64_t(Class.index()) << 32) |
         Field.index();
}

} // namespace

uint64_t
herd::trieNodesPerLocationForDepth(uint64_t MaxMustSyncDepth,
                                   const DetectorPlannerOptions &Opts) {
  // +1: every spawned thread holds its dummy join lock S_j (Section 2.3)
  // on top of whatever the must-sync analysis proves, so runtime locksets
  // run one deeper than the static depth.
  uint64_t Nodes = MaxMustSyncDepth >= 62
                       ? UINT64_MAX
                       : (uint64_t(1) << (MaxMustSyncDepth + 1));
  if (Nodes < Opts.TrieNodesPerLocation)
    Nodes = Opts.TrieNodesPerLocation;
  if (Nodes > Opts.MaxTrieNodesPerLocation)
    Nodes = Opts.MaxTrieNodesPerLocation;
  return Nodes;
}

DetectorPlan herd::planDetector(const Program &P,
                                const StaticRaceAnalysis &Races,
                                const DetectorPlannerOptions &Opts) {
  DetectorPlan Plan;
  const PointsToAnalysis &PT = Races.pointsTo();
  const SingleInstanceAnalysis &SI = Races.singleInstance();

  // --- Locations: dedup race-set statements down to static targets, then
  // scale each target by its instance fan-out.  Two statements touching
  // the same (site, field) pair share the same runtime locations, so the
  // fan-out is charged per target, not per statement.
  std::unordered_map<uint64_t, uint64_t> Targets; // packed target -> fan-out
  auto addSiteTarget = [&](uint64_t Packed, AllocSiteId Site) {
    uint64_t FanOut =
        SI.isSingleInstanceSite(Site) ? 1 : Opts.InstanceFanOut;
    auto [It, Inserted] = Targets.try_emplace(Packed, FanOut);
    if (!Inserted && It->second < FanOut)
      It->second = FanOut;
  };

  for (const InstrRef &Ref : Races.raceSet()) {
    const Instr &I = Ref.get(P);
    switch (I.Op) {
    case Opcode::GetField:
    case Opcode::PutField:
      for (AllocSiteId Site : PT.pointsTo(Ref.Method, I.A))
        addSiteTarget(packFieldTarget(Site, I.Field), Site);
      break;
    case Opcode::ALoad:
    case Opcode::AStore:
      for (AllocSiteId Site : PT.pointsTo(Ref.Method, I.A))
        addSiteTarget(packArrayTarget(Site), Site);
      break;
    case Opcode::GetStatic:
    case Opcode::PutStatic:
      Targets.try_emplace(packStaticTarget(I.Class, I.Field), 1);
      break;
    default:
      break; // the race set holds only access statements
    }
  }
  for (const auto &[Packed, FanOut] : Targets) {
    (void)Packed;
    Plan.ExpectedLocations += FanOut;
  }
  // Instrumentation only covers the race set, so every forwarded location
  // can in principle become shared; sizing tries for all of them is what
  // makes the cold pass flat.
  Plan.ExpectedSharedLocations = Plan.ExpectedLocations;

  // --- Threads: thread objects reachable through some ThreadStart, scaled
  // like any other allocation site, plus the main thread.
  uint64_t Threads = 1;
  for (MethodId Run : PT.startedRunMethods())
    for (AllocSiteId Site : PT.threadObjectsOf(Run))
      Threads += SI.isSingleInstanceSite(Site) ? 1 : Opts.InstanceFanOut;
  Plan.ExpectedThreads = Threads;

  // --- Locksets: the runtime lockset is (dummy join locks) ∪ (real locks
  // from MustSync contexts).  Count the distinct must-held sets across the
  // race set as the real-lock variety, and assume each can combine with
  // each thread's dummy baseline (plus the empty set and transients).
  std::unordered_set<uint64_t> SyncShapes;
  uint64_t MaxMustSyncDepth = 0;
  const SyncAnalysis &Sync = Races.sync();
  for (const InstrRef &Ref : Races.raceSet()) {
    const ObjSet &Must = Sync.mustSync(Ref);
    if (Must.size() > MaxMustSyncDepth)
      MaxMustSyncDepth = Must.size();
    uint64_t H = 0xcbf29ce484222325ull;
    for (AllocSiteId Obj : Must) {
      H ^= Obj.index();
      H *= 0x100000001b3ull;
    }
    SyncShapes.insert(H);
  }
  Plan.ExpectedLocksets = (SyncShapes.size() + 2) * (Threads + 2);

  // --- Tries: the deeper the must-held locksets around the racing
  // accesses, the more distinct-lockset branches each location's history
  // trie can grow.  Scale the per-location budget by that nesting depth
  // instead of assuming every program is shallow.
  Plan.ExpectedTrieNodes =
      Plan.ExpectedSharedLocations *
      trieNodesPerLocationForDepth(MaxMustSyncDepth, Opts);

  // --- Pre-intern what is provably coming: every started thread begins
  // life holding exactly its dummy join lock S_j (Section 2.3), so those
  // singletons are the first locksets the hot path would otherwise intern
  // lazily.  Thread ids are assigned densely from 1 at spawn order.
  DetectorPlan Clamped = Plan.clamped();
  for (uint64_t T = 1; T <= Clamped.ExpectedThreads; ++T) {
    SortedIdSet<LockId> Dummy;
    Dummy.insert(RaceRuntime::dummyLockOf(ThreadId(uint32_t(T))));
    Plan.PreinternLocksets.push_back(std::move(Dummy));
  }
  return Plan;
}
