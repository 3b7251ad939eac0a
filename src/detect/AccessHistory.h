//===- detect/AccessHistory.h - DFS-ordered access history ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access history of one memory location: the lockset trie of Section
/// 3.2 held as its stored accesses (the nodes with t != t_⊤), one entry per
/// access, in one array in the trie's DFS order.  An entry names the path
/// of its node by the interned LockSetId of that path.  DFS order is the
/// strictly ascending lexicographic order of the resolved locksets, a
/// prefix sorting before its extensions, so every walk of the trie becomes
/// a scan of the array in the same order.
///
/// Processing an event does the trie's four steps (AccessTrie.h):
///   1. the weakness check: an entry whose lockset ⊆ the event's, with
///      thread and kind weaker-or-equal, filters the event;
///   2. the race check: the race is the first entry, in order, whose
///      lockset is disjoint from the event's, whose thread meets the
///      event's to t_⊥, and where one side writes — the node the trie's
///      Case I-III walk reaches first;
///   3. the update: meet the event into the entry with exactly its
///      lockset, or insert one at its lexicographic position;
///   4. the prune: remove every other entry whose lockset ⊇ the event's
///      and that the event is weaker-or-equal to.
/// Steps 1 and 2 are one scan, which also finds the exact-lockset entry
/// and the first entry to prune.  The lockset tests read the interner's
/// 64-bit membership masks: one AND or ANDN when both sets are exact, a
/// merge of the resolved sets otherwise.  Entries do not cache the masks:
/// a run holds few distinct locksets, so the interner's entries stay in
/// cache, and 16-byte entries measured no slower than 24-byte ones that
/// carried their mask (docs/PERFORMANCE.md).  The history reads the
/// interner only through mask(), isExact() and resolve(), which are safe
/// to call from the shard workers that run detectors.
///
/// Node count: the trie a history stands for has one node per distinct
/// non-empty prefix of its stored locksets, plus the root once the first
/// event arrives.  Inserting lockset L adds |L| minus the longest common
/// prefix L shares with either lexicographic neighbour; removing K takes
/// away |K| minus the same with its current neighbours.  So nodeCount()
/// and HistoryStore::live() (DetectorStats::TrieNodes, the space figure of
/// Section 8.2) are exactly the trie's.
///
/// Storage: the entries of every history of one Detector live in one
/// HistoryStore (hence one per shard in the sharded runtime).  A history
/// holds one block of 2^k entries and moves to a block twice the size
/// when it fills; outgrown blocks go on the store's per-size free lists.
/// Histories free nothing: the store's chunks go in one piece with the
/// store, so tearing down a Detector costs one free per chunk.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_DETECT_ACCESSHISTORY_H
#define HERD_DETECT_ACCESSHISTORY_H

#include "detect/AccessEvent.h"
#include "support/LockSetInterner.h"

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace herd {

/// One stored access: the interned lockset of its trie path, the
/// thread-lattice value and kind, and the site of the last event merged
/// into it.  The kind sits in the thread lattice's tail padding: 16 bytes.
struct HistoryEntry {
  LockSetId Locks;
  /// Diagnostics only (the prior-access site in race reports); never
  /// consulted by the checks, like the reference trie's node sites.
  SiteId Site;
  [[no_unique_address]] ThreadLattice Thread;
  AccessKind Access;
};

/// The entry storage shared by all histories of one Detector.
class HistoryStore {
public:
  /// Entries per chunk: 16 KiB, so a detector that tracks a few shared
  /// locations holds little.  A block larger than a chunk gets storage of
  /// its own that spans several chunk indices.
  static constexpr uint32_t ChunkShift = 10;
  static constexpr uint32_t ChunkEntries = uint32_t(1) << ChunkShift;

  HistoryStore() { FreeHeads.fill(None); }

  /// Pre-allocates chunks so that \p Entries more entries, in blocks of up
  /// to a chunk, need no chunk allocation.
  void reserve(size_t Entries);

  /// Entries backed by already-allocated storage.
  size_t reservedEntries() const { return Dir.size() * size_t(ChunkEntries); }

  /// Nodes of the tries the histories on this store stand for:
  /// DetectorStats::TrieNodes.
  size_t live() const { return Live; }

private:
  friend class AccessHistory;

  static constexpr uint32_t None = 0xFFFFFFFF;
  static constexpr unsigned MaxClass = 31;

  struct FreeChunk {
    void operator()(HistoryEntry *Chunk) const { std::free(Chunk); }
  };

  HistoryEntry *at(uint32_t Index) {
    return Dir[Index >> ChunkShift] + (Index & (ChunkEntries - 1));
  }
  const HistoryEntry *at(uint32_t Index) const {
    return Dir[Index >> ChunkShift] + (Index & (ChunkEntries - 1));
  }

  /// A block of 2^Class entries, from its free list or fresh storage.
  uint32_t allocate(unsigned Class);
  void release(uint32_t Block, unsigned Class);

  /// Appends storage for \p Entries (a multiple of ChunkEntries) entries
  /// and returns the index of its first entry.
  uint32_t appendStorage(uint32_t Entries);

  /// Puts [From, To) on the free lists as power-of-two blocks.
  void retire(uint32_t From, uint32_t To);

  std::vector<HistoryEntry *> Dir; ///< chunk index -> its first entry
  std::vector<std::unique_ptr<HistoryEntry[], FreeChunk>> Storage;
  std::array<uint32_t, MaxClass + 1> FreeHeads; ///< per-size free lists
  uint32_t Next = 0; ///< bump range [Next, End) of fresh entries
  uint32_t End = 0;
  size_t Live = 0;
};

/// Access history of one logical memory location.  Trivially copyable and
/// 16 bytes: its entries live in a HistoryStore.
class AccessHistory {
public:
  using Outcome = HistoryOutcome;

  /// Runs the weakness check, race check, update and prune for one event
  /// whose lockset \p Locks was interned in \p Locksets.
  Outcome process(HistoryStore &Store, const LockSetInterner &Locksets,
                  ThreadId Thread, LockSetId Locks, AccessKind Access,
                  SiteId Site);

  /// Nodes of the trie this history stands for (the root counts as one).
  /// As with AccessTrie, an untouched history reports 1.
  size_t nodeCount() const { return Nodes ? Nodes : 1; }

  /// Stored accesses: the trie's nodes with t != t_⊤.
  size_t storedAccessCount() const { return Size; }

  /// Invariants, asserted after every process() in builds without
  /// NDEBUG: entries strictly ascend in lexicographic order of their
  /// locksets (so no two share a LockSetId); every entry carries an
  /// access; and the node count equals a fresh count of distinct prefixes
  /// plus the root.
  bool checkInvariants(const HistoryStore &Store,
                       const LockSetInterner &Locksets) const;

private:
  /// Inserts \p Fresh, whose lockset no entry has, at its lexicographic
  /// position, counting the nodes its path adds.
  void insert(HistoryStore &Store, const LockSetInterner &Locksets,
              const HistoryEntry &Fresh);

  uint32_t Block = HistoryStore::None; ///< first entry, in the store
  uint32_t Size = 0;                   ///< entries in use
  uint32_t Nodes = 0;                  ///< trie nodes; 0 until first event
  uint8_t Class = 0;                   ///< the block holds 2^Class entries
};

static_assert(sizeof(HistoryEntry) == 16, "an entry is 16 bytes");
static_assert(sizeof(AccessHistory) == 16, "a history is 16 bytes");

} // namespace herd

#endif // HERD_DETECT_ACCESSHISTORY_H
