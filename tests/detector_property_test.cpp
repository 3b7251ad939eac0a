//===- tests/detector_property_test.cpp - Randomized detector checks ------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized stress of the detector data structures against brute force:
///
///   - the trie detector on one location must report iff the exact O(N²)
///     check finds a racing pair among the events seen so far (Definition
///     1 + precision, at the granularity the trie works at);
///   - the trie's weakness filter must only drop events that a stored
///     weaker access covers (checked against the definition directly);
///   - the Detector's race records and trie-node total must be those of
///     one reference trie per location;
///   - every outcome, node count and stored-access count of the production
///     AccessHistory must match the reference AccessTrie, and both a
///     structure-free model (a map from lockset to stored access), after
///     every event of seeded streams: many locations, lock universes past
///     the interner's 64-lock masks, and one location that accumulates
///     thousands of distinct locksets;
///   - the dominator tree must agree with a naive quadratic dominator
///     computation on random CFGs.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "detect/AccessHistory.h"
#include "detect/AccessTrie.h"
#include "detect/Detector.h"
#include "detect/RaceRuntime.h"
#include "ir/IRBuilder.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string>

using namespace herd;

namespace {

//===----------------------------------------------------------------------===
// Trie vs brute force on one location.
//===----------------------------------------------------------------------===

AccessEvent randomEventAt(Rng &R, LocationKey Loc, uint32_t NumThreads,
                          uint32_t NumLocks) {
  AccessEvent E;
  E.Location = Loc;
  E.Thread = ThreadId(uint32_t(R.nextBelow(NumThreads)));
  for (uint32_t L = 0; L != NumLocks; ++L)
    if (R.nextChance(2, 5))
      E.Locks.insert(LockId(L));
  E.Access = R.nextChance(2, 5) ? AccessKind::Write : AccessKind::Read;
  return E;
}

class DetectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// The abstract semantics the trie implements: one (thread-lattice,
/// access-meet) summary per distinct lockset (Section 3.2's node values,
/// without the tree structure, filtering or pruning).  Theorem 1
/// guarantees that filtering and pruning never change the has-raced
/// outcome, so the trie must agree with this model at every step.
class LocksetSummaryModel {
public:
  /// Returns true when the event races against the abstract history.
  bool process(const AccessEvent &E) {
    bool Raced = false;
    for (const auto &[Locks, Value] : Groups) {
      if (Locks.intersects(E.Locks))
        continue;
      if (meet(Value.first, ThreadLattice(E.Thread)).isBottom() &&
          meet(Value.second, E.Access) == AccessKind::Write)
        Raced = true;
    }
    auto [It, Inserted] = Groups.try_emplace(
        E.Locks, std::make_pair(ThreadLattice(E.Thread), E.Access));
    if (!Inserted) {
      It->second.first = meet(It->second.first, ThreadLattice(E.Thread));
      It->second.second = meet(It->second.second, E.Access);
    }
    return Raced;
  }

private:
  std::map<LockSet, std::pair<ThreadLattice, AccessKind>> Groups;
};

TEST_P(DetectorPropertyTest, TrieMatchesTheLocksetSummaryModel) {
  // Three relationships, checked on every prefix of a random stream:
  //   1. completeness (Definition 1): if a real racing pair exists, the
  //      trie has reported;
  //   2. the trie's has-raced bit equals the abstract lockset-summary
  //      model's (the t_bottom/meet semantics of Section 3.2 — filtering
  //      and pruning are invisible, per Theorem 1);
  //   3. any report beyond the real races is explained by the t_bottom
  //      abstraction (the paper's footnote 4 spurious-report caveat) —
  //      which is exactly what (2) pins down.
  Rng R(GetParam());
  LocationKey Loc = LocationKey::forField(ObjectId(1), FieldId(0));

  AccessTrie Trie;
  LocksetSummaryModel Model;
  std::vector<AccessEvent> History;
  bool TrieEver = false, ModelEver = false, BruteEver = false;

  for (int Step = 0; Step != 300; ++Step) {
    AccessEvent E = randomEventAt(R, Loc, 3, 4);
    TrieEver |= Trie.process(E.Thread, E.Locks, E.Access).Raced;
    ModelEver |= Model.process(E);
    for (const AccessEvent &Old : History)
      BruteEver |= isRace(Old, E);
    History.push_back(std::move(E));

    EXPECT_EQ(TrieEver, ModelEver)
        << "seed " << GetParam() << " step " << Step;
    if (BruteEver) {
      EXPECT_TRUE(TrieEver)
          << "missed a real race: seed " << GetParam() << " step " << Step;
    }
  }
}

TEST_P(DetectorPropertyTest, WeaknessFilterOnlyDropsCoveredEvents) {
  // Re-run a random stream; whenever the trie filters an event, verify by
  // definition that some earlier event is weaker-or-equal.
  Rng R(GetParam() + 500);
  LocationKey Loc = LocationKey::forField(ObjectId(2), FieldId(1));
  AccessTrie Trie;
  std::vector<AccessEvent> History;
  int Filtered = 0;
  for (int Step = 0; Step != 300; ++Step) {
    AccessEvent E = randomEventAt(R, Loc, 3, 3);
    AccessTrie::Outcome Out = Trie.process(E.Thread, E.Locks, E.Access);
    if (Out.Filtered) {
      ++Filtered;
      bool Covered = false;
      for (const AccessEvent &Old : History) {
        if (isWeakerOrEqual(Old, E)) {
          Covered = true;
          break;
        }
        // The t_bottom abstraction also covers: two earlier events from
        // distinct threads with identical locksets subsuming E's check.
        for (const AccessEvent &Other : History) {
          if (&Old == &Other)
            continue;
          if (Old.Locks == Other.Locks && Old.Thread != Other.Thread &&
              Old.Locks.isSubsetOf(E.Locks) &&
              isWeakerOrEqual(meet(Old.Access, Other.Access), E.Access)) {
            Covered = true;
            break;
          }
        }
        if (Covered)
          break;
      }
      EXPECT_TRUE(Covered) << "seed " << GetParam() << " step " << Step;
    }
    History.push_back(std::move(E));
  }
  EXPECT_GT(Filtered, 50) << "stream should exercise the filter heavily";
}

TEST_P(DetectorPropertyTest, MultiLocationDetectorMatchesPerLocationTries) {
  // The Detector's location table must behave as independent tries: the
  // same race records, field by field and in order, and the same total of
  // trie nodes.
  Rng R(GetParam() + 900);
  RaceReporter TableReporter;
  Detector Table(TableReporter, {/*UseOwnership=*/false, false});
  std::map<uint64_t, AccessTrie> Independent;
  struct Report {
    RaceRecord Record;
    LockSet Current, Prior;
  };
  std::vector<Report> Expected;

  for (int Step = 0; Step != 500; ++Step) {
    LocationKey Loc = LocationKey::forField(
        ObjectId(uint32_t(R.nextBelow(4))), FieldId(uint32_t(R.nextBelow(2))));
    AccessEvent E = randomEventAt(R, Loc, 3, 3);
    E.Site = SiteId(uint32_t(Step));
    Table.handleAccess(E);
    AccessTrie::Outcome Out =
        Independent[Loc.raw()].process(E.Thread, E.Locks, E.Access, E.Site);
    if (!Out.Raced)
      continue;
    Report Want;
    Want.Record.Location = Loc;
    Want.Record.CurrentThread = E.Thread;
    Want.Record.CurrentAccess = E.Access;
    Want.Record.CurrentSite = E.Site;
    Want.Record.PriorThreadKnown = Out.PriorThreadKnown;
    Want.Record.PriorThread = Out.PriorThread;
    Want.Record.PriorAccess = Out.PriorAccess;
    Want.Record.PriorSite = Out.PriorSite;
    Want.Current = E.Locks;
    Want.Prior = Out.PriorLocks;
    Expected.push_back(std::move(Want));
  }

  auto Same = [](std::span<const LockId> Got, const LockSet &Want) {
    return std::equal(Got.begin(), Got.end(), Want.begin(), Want.end());
  };
  const std::vector<RaceRecord> &Got = TableReporter.records();
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    const RaceRecord &G = Got[I], &W = Expected[I].Record;
    std::string Where = "seed " + std::to_string(GetParam()) + " record " +
                        std::to_string(I);
    EXPECT_EQ(G.Location, W.Location) << Where;
    EXPECT_EQ(G.CurrentThread, W.CurrentThread) << Where;
    EXPECT_EQ(G.CurrentAccess, W.CurrentAccess) << Where;
    EXPECT_TRUE(Same(TableReporter.locks(G.CurrentLocks), Expected[I].Current))
        << Where;
    EXPECT_EQ(G.CurrentSite, W.CurrentSite) << Where;
    EXPECT_EQ(G.PriorThreadKnown, W.PriorThreadKnown) << Where;
    if (W.PriorThreadKnown) {
      EXPECT_EQ(G.PriorThread, W.PriorThread) << Where;
    }
    EXPECT_EQ(G.PriorAccess, W.PriorAccess) << Where;
    EXPECT_TRUE(Same(TableReporter.locks(G.PriorLocks), Expected[I].Prior))
        << Where;
    EXPECT_EQ(G.PriorSite, W.PriorSite) << Where;
  }
  size_t Nodes = 0;
  for (const auto &Entry : Independent)
    Nodes += Entry.second.nodeCount();
  EXPECT_EQ(Table.stats().TrieNodes, Nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

//===----------------------------------------------------------------------===
// Trie vs a structure-free reference.
//===----------------------------------------------------------------------===

/// The trie's rules applied to a flat map from lockset to stored access.
/// Keys are canonical (ascending) locksets and only locksets holding an
/// access are keys.  Map order is the trie's DFS order: a prefix sorts
/// before its extensions, and siblings sort by label.
class ReferenceTrie {
public:
  using Key = std::vector<LockId>;

  AccessTrie::Outcome process(ThreadId Thread, const LockSet &Locks,
                              AccessKind Access, SiteId Site) {
    AccessTrie::Outcome Out;
    ThreadLattice Event(Thread);
    Key L(Locks.begin(), Locks.end());
    // Filtered if some key ⊆ L holds a weaker-or-equal access.
    for (const auto &[K, V] : Map)
      if (std::includes(L.begin(), L.end(), K.begin(), K.end()) &&
          isWeakerOrEqual(V.Thread, Event) &&
          isWeakerOrEqual(V.Access, Access)) {
        Out.Filtered = true;
        return Out;
      }
    // The prior is the first key, in map order, disjoint from L that races.
    for (const auto &[K, V] : Map) {
      bool Disjoint = std::none_of(K.begin(), K.end(), [&](LockId Lock) {
        return Locks.contains(Lock);
      });
      if (!Disjoint || !meet(V.Thread, Event).isBottom() ||
          meet(V.Access, Access) != AccessKind::Write)
        continue;
      Out.Raced = true;
      Out.PriorThreadKnown = V.Thread.isConcrete();
      if (Out.PriorThreadKnown)
        Out.PriorThread = V.Thread.concrete();
      Out.PriorAccess = V.Access;
      Out.PriorSite = V.Site;
      for (LockId Lock : K)
        Out.PriorLocks.insert(Lock);
      break;
    }
    // Meet the event into key L.
    auto [It, Inserted] = Map.try_emplace(L, Stored{Event, Access, Site});
    if (!Inserted) {
      It->second.Thread = meet(It->second.Thread, Event);
      It->second.Access = meet(It->second.Access, Access);
      It->second.Site = Site;
    }
    // Erase strict supersets of L whose stored access the event is weaker
    // than.
    for (auto At = Map.begin(); At != Map.end();) {
      const Key &K = At->first;
      if (K.size() > L.size() &&
          std::includes(K.begin(), K.end(), L.begin(), L.end()) &&
          isWeakerOrEqual(Event, At->second.Thread) &&
          isWeakerOrEqual(Access, At->second.Access))
        At = Map.erase(At);
      else
        ++At;
    }
    return Out;
  }

  /// Distinct prefixes of the keys, the empty one included: the nodes a
  /// trie holding exactly these keys has.
  size_t prefixCount() const {
    std::set<Key> Prefixes = {Key()};
    for (const auto &Entry : Map)
      for (size_t N = 1; N <= Entry.first.size(); ++N)
        Prefixes.emplace(Entry.first.begin(), Entry.first.begin() + N);
    return Prefixes.size();
  }

  size_t size() const { return Map.size(); }

private:
  struct Stored {
    ThreadLattice Thread;
    AccessKind Access;
    SiteId Site;
  };
  std::map<Key, Stored> Map;
};

/// What the reference-trie stream exercised, summed over its tries.
struct ReferenceCoverage {
  size_t Filtered = 0, Raced = 0, Shrinks = 0, Regrowths = 0;
  size_t MaxLiveNodes = 0;
  /// Events whose lockset the interner's 64-bit mask does not cover, and
  /// events that met a stored lockset it does not cover, with an exact and
  /// with an inexact lockset of their own.
  size_t InexactEvents = 0, ExactVsInexact = 0, InexactVsInexact = 0;
};

/// The history's outcome in the trie's terms: its prior lockset resolved.
AccessTrie::Outcome resolved(const HistoryOutcome &Out,
                             const LockSetInterner &Interner) {
  AccessTrie::Outcome R;
  R.Filtered = Out.Filtered;
  R.Raced = Out.Raced;
  R.PriorThreadKnown = Out.PriorThreadKnown;
  R.PriorThread = Out.PriorThread;
  R.PriorAccess = Out.PriorAccess;
  R.PriorLocks = Interner.resolve(Out.PriorLocks);
  R.PriorSite = Out.PriorSite;
  return R;
}

/// Every field of two outcomes, naming the first that differs.
::testing::AssertionResult sameOutcome(const AccessTrie::Outcome &Got,
                                       const AccessTrie::Outcome &Want) {
  auto Differs = [](const char *Field) {
    return ::testing::AssertionFailure() << Field << " differs";
  };
  if (Got.Filtered != Want.Filtered)
    return Differs("Filtered");
  if (Got.Raced != Want.Raced)
    return Differs("Raced");
  if (Got.PriorThreadKnown != Want.PriorThreadKnown)
    return Differs("PriorThreadKnown");
  if (Got.PriorThread != Want.PriorThread)
    return Differs("PriorThread");
  if (Got.PriorAccess != Want.PriorAccess)
    return Differs("PriorAccess");
  if (!(Got.PriorLocks == Want.PriorLocks))
    return Differs("PriorLocks");
  if (Got.PriorSite != Want.PriorSite)
    return Differs("PriorSite");
  return ::testing::AssertionSuccess();
}

/// The three histories of one location: the production AccessHistory,
/// the reference AccessTrie and the flat model.
struct HistoryTriple {
  AccessHistory History;
  AccessTrie Trie;
  ReferenceTrie Model;
  bool HoldsInexact = false; ///< some lockset it stored had an inexact mask
};

/// Feeds one event to all three histories of a location and checks every
/// outcome field, the node count and the stored-access count after it.
/// The model's node count is recounted only when \p CountModelNodes.
void feedAll(HistoryTriple &Loc, HistoryStore &Histories,
             LockSetInterner &Interner, ThreadId Thread, const LockSet &Locks,
             AccessKind Access, SiteId Site, bool CountModelNodes,
             const std::string &Where, ReferenceCoverage &Cov) {
  LockSetId Id = Interner.intern(Locks);
  bool Exact = Interner.isExact(Id);
  Cov.InexactEvents += !Exact;
  if (Loc.HoldsInexact)
    ++(Exact ? Cov.ExactVsInexact : Cov.InexactVsInexact);
  Loc.HoldsInexact |= !Exact;

  AccessTrie::Outcome Trie = Loc.Trie.process(Thread, Locks, Access, Site);
  AccessHistory::Outcome Fast =
      Loc.History.process(Histories, Interner, Thread, Id, Access, Site);
  AccessTrie::Outcome Want = Loc.Model.process(Thread, Locks, Access, Site);
  ASSERT_TRUE(sameOutcome(Trie, Want)) << "trie vs model, " << Where;
  ASSERT_TRUE(sameOutcome(resolved(Fast, Interner), Trie))
      << "history vs trie, " << Where;
  ASSERT_EQ(Loc.History.nodeCount(), Loc.Trie.nodeCount()) << Where;
  if (CountModelNodes) {
    ASSERT_EQ(Loc.Trie.nodeCount(), Loc.Model.prefixCount()) << Where;
  }
  ASSERT_EQ(Loc.Trie.storedAccessCount(), Loc.Model.size()) << Where;
  ASSERT_EQ(Loc.History.storedAccessCount(), Loc.Model.size()) << Where;
  ASSERT_TRUE(Loc.History.checkInvariants(Histories, Interner)) << Where;
  Cov.Filtered += Want.Filtered;
  Cov.Raced += Want.Raced;
}

/// One seeded stream over \p NumTries locations, checked after every
/// event: each location has an AccessHistory (all on one HistoryStore), an
/// AccessTrie and a ReferenceTrie.  Monitors come from locks
/// 0..NumLocks-1, so past 64 the interner's masks go inexact.
void checkAgainstReference(uint64_t Seed, uint32_t NumTries, uint32_t NumLocks,
                           int Events, ReferenceCoverage &Cov) {
  Rng R(Seed);
  HistoryStore Histories;
  LockSetInterner Interner;
  std::vector<HistoryTriple> Locs(NumTries);
  std::vector<size_t> Low(NumTries, SIZE_MAX);
  std::vector<bool> Touched(NumTries, false);
  size_t Live = 0; ///< nodes of the touched tries: HistoryStore::live()
  constexpr uint32_t NumThreads = 4;

  for (int Step = 0; Step != Events; ++Step) {
    uint32_t Loc = uint32_t(R.nextBelow(NumTries));
    ThreadId Thread(uint32_t(R.nextBelow(NumThreads)));
    // Nested monitors from a small pool, plus the dummy join locks the
    // runtime adds: a started thread holds its own, and a joiner holds
    // the dummy lock of every thread it has joined.
    LockSet Locks;
    if (!R.nextChance(1, 8)) {
      uint32_t Depth = uint32_t(R.nextBelow(5));
      for (uint32_t D = 0; D != Depth; ++D)
        Locks.insert(LockId(uint32_t(R.nextBelow(NumLocks))));
    }
    if (Thread.index() != 0 && R.nextChance(1, 2))
      Locks.insert(RaceRuntime::dummyLockOf(Thread));
    if (R.nextChance(1, 6))
      Locks.insert(RaceRuntime::dummyLockOf(
          ThreadId(uint32_t(R.nextBelow(NumThreads)))));
    AccessKind Access =
        R.nextChance(1, 2) ? AccessKind::Write : AccessKind::Read;
    SiteId Site = SiteId(uint32_t(Step));

    size_t Before = Locs[Loc].Trie.nodeCount();
    std::string Where = "seed " + std::to_string(Seed) + " step " +
                        std::to_string(Step) + " location " +
                        std::to_string(Loc);
    feedAll(Locs[Loc], Histories, Interner, Thread, Locks, Access, Site,
            /*CountModelNodes=*/true, Where, Cov);
    if (::testing::Test::HasFatalFailure())
      return;

    size_t After = Locs[Loc].Trie.nodeCount();
    if (After < Before) {
      ++Cov.Shrinks;
      Low[Loc] = std::min(Low[Loc], After);
    } else if (After > Before && Low[Loc] != SIZE_MAX) {
      ++Cov.Regrowths; // nodes freed earlier in this trie are needed again
    }
    Live = Live - (Touched[Loc] ? Before : 0) + After;
    Touched[Loc] = true;
    ASSERT_EQ(Histories.live(), Live) << Where;
    Cov.MaxLiveNodes = std::max(Cov.MaxLiveNodes, Live);
  }
}

class ReferenceTrieTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceTrieTest, OutcomesAndShapeMatchTheFlatModel) {
  // 384 histories on one store: together they hold more nodes than one
  // storage chunk has entries, so a history's later blocks land in a chunk
  // its first ones are not in.
  ReferenceCoverage Cov;
  checkAgainstReference(GetParam(), 384, 10, 40000, Cov);
  EXPECT_GT(Cov.Filtered, 0u);
  EXPECT_GT(Cov.Raced, 0u);
  EXPECT_GT(Cov.Shrinks, 0u) << "no event pruned a subtree";
  EXPECT_GT(Cov.Regrowths, 0u) << "no trie grew again after pruning";
  EXPECT_GT(Cov.MaxLiveNodes, size_t(HistoryStore::ChunkEntries))
      << "the stream stays in one chunk";
}

TEST_P(ReferenceTrieTest, HistoryMatchesPastTheMaskUniverse) {
  // 100 monitors and the dummy locks: the interner's masks cover only the
  // first 64 locks it sees, so lockset tests take the resolved-set path
  // with one side inexact and with both.
  ReferenceCoverage Cov;
  checkAgainstReference(GetParam() + 100, 64, 100, 20000, Cov);
  EXPECT_GT(Cov.Filtered, 0u);
  EXPECT_GT(Cov.Raced, 0u);
  EXPECT_GT(Cov.Shrinks, 0u) << "no event pruned a subtree";
  EXPECT_GT(Cov.InexactEvents, 0u);
  EXPECT_GT(Cov.ExactVsInexact, 0u) << "no exact event met an inexact entry";
  EXPECT_GT(Cov.InexactVsInexact, 0u)
      << "no inexact event met an inexact entry";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceTrieTest,
                         ::testing::Range<uint64_t>(1, 7));

class CrowdedHistoryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrowdedHistoryTest, HistoryMatchesOnACrowdedLocation) {
  // One location accumulates thousands of distinct locksets: five of 24
  // monitors, which no other five-lock set contains, so few are filtered.
  // Now and then a two-lock event prunes the supersets its thread stored.
  Rng R(GetParam() + 200);
  HistoryStore Histories;
  LockSetInterner Interner;
  HistoryTriple Loc;
  ReferenceCoverage Cov;
  size_t MaxStored = 0, Shrinks = 0;
  constexpr int Events = 2500;
  for (int Step = 0; Step != Events; ++Step) {
    ThreadId Thread(uint32_t(R.nextBelow(8)));
    uint32_t Want = R.nextChance(1, 128) ? 2 : 5;
    LockSet Locks;
    while (Locks.size() != Want)
      Locks.insert(LockId(uint32_t(R.nextBelow(24))));
    AccessKind Access =
        R.nextChance(1, 2) ? AccessKind::Write : AccessKind::Read;
    size_t Before = Loc.History.nodeCount();
    // Recounting the model's prefixes is quadratic over the stream; the
    // trie's own count is checked after every event.
    bool CountModelNodes = Step % 250 == 0 || Step + 1 == Events;
    feedAll(Loc, Histories, Interner, Thread, Locks, Access,
            SiteId(uint32_t(Step)), CountModelNodes,
            "seed " + std::to_string(GetParam()) + " step " +
                std::to_string(Step),
            Cov);
    if (::testing::Test::HasFatalFailure())
      return;
    ASSERT_EQ(Histories.live(), Loc.Trie.nodeCount());
    Shrinks += Loc.History.nodeCount() < Before;
    MaxStored = std::max(MaxStored, Loc.History.storedAccessCount());
  }
  EXPECT_GT(MaxStored, 2000u) << "the location stayed small";
  EXPECT_GT(Shrinks, 0u) << "no event pruned";
  EXPECT_GT(Cov.Raced, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrowdedHistoryTest,
                         ::testing::Range<uint64_t>(1, 4));

//===----------------------------------------------------------------------===
// Dominators vs naive reference.
//===----------------------------------------------------------------------===

/// Builds a random (reducible or irreducible) CFG as a MiniJ method of
/// N blocks with random branch targets; every block gets a terminator.
Program randomCFGProgram(Rng &R, size_t NumBlocks) {
  Program P;
  IRBuilder B(P);
  B.startMain();
  RegId Cond = B.emitConst(1);
  std::vector<BlockId> Blocks;
  Blocks.push_back(B.currentBlock());
  for (size_t I = 1; I != NumBlocks; ++I)
    Blocks.push_back(B.newBlock());
  for (size_t I = 0; I != NumBlocks; ++I) {
    B.setBlock(Blocks[I]);
    uint64_t Kind = R.nextBelow(10);
    if (Kind < 2 || I + 1 == NumBlocks) {
      B.emitReturn();
    } else if (Kind < 6) {
      B.emitJump(Blocks[R.nextBelow(NumBlocks)]);
    } else {
      Instr Br;
      Br.Op = Opcode::Branch;
      Br.A = Cond;
      Br.Target = Blocks[R.nextBelow(NumBlocks)];
      Br.AltTarget = Blocks[R.nextBelow(NumBlocks)];
      P.method(P.MainMethod).block(Blocks[I]).Instrs.push_back(Br);
    }
  }
  return P;
}

/// Naive dominators: D dominates B iff removing D makes B unreachable.
bool naiveDominates(const CFG &Cfg, BlockId D, BlockId B) {
  if (D == B)
    return true;
  std::vector<uint8_t> Visited(Cfg.numBlocks(), 0);
  std::vector<BlockId> Work = {BlockId(0)};
  Visited[0] = 1;
  if (D == BlockId(0))
    return Cfg.isReachable(B);
  while (!Work.empty()) {
    BlockId Cur = Work.back();
    Work.pop_back();
    for (BlockId Succ : Cfg.successors(Cur)) {
      if (Succ == D || Visited[Succ.index()])
        continue;
      Visited[Succ.index()] = 1;
      Work.push_back(Succ);
    }
  }
  return !Visited[B.index()];
}

class DominatorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DominatorPropertyTest, AgreesWithReachabilityDefinition) {
  Rng R(GetParam());
  for (int Trial = 0; Trial != 10; ++Trial) {
    Program P = randomCFGProgram(R, 4 + R.nextBelow(8));
    CFG Cfg(P, P.MainMethod);
    for (uint32_t A = 0; A != Cfg.numBlocks(); ++A)
      for (uint32_t B = 0; B != Cfg.numBlocks(); ++B) {
        BlockId BA(A), BB(B);
        if (!Cfg.isReachable(BA) || !Cfg.isReachable(BB))
          continue;
        EXPECT_EQ(Cfg.dominates(BA, BB), naiveDominates(Cfg, BA, BB))
            << "seed " << GetParam() << " trial " << Trial << " blocks "
            << A << "," << B;
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominatorPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
