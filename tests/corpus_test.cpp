//===- tests/corpus_test.cpp - Replay differential over the trace corpus --==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the checked-in compressed trace corpus (tests/corpus/, see its
/// README.md) through the serial and sharded runtimes and checks that all
/// of them report exactly the racy locations the MANIFEST recorded.  The
/// corpus traces are bigger than anything the in-process tests execute, so
/// this is the regression net for the replay path, the RLE codec, and
/// serial/sharded equivalence at scale.
///
//===----------------------------------------------------------------------===//

#include "baselines/EpochDetector.h"
#include "baselines/VectorClockDetector.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "support/ByteRle.h"
#include "support/TempPath.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace herd;

namespace {

struct CorpusEntry {
  std::string File;
  std::string Workload;
  uint32_t Scale = 0;
  uint64_t Records = 0;
  uint64_t RawBytes = 0;
  uint64_t CompressedBytes = 0;
  uint64_t RacyLocations = 0;
};

std::vector<CorpusEntry> readManifest() {
  std::vector<CorpusEntry> Entries;
  std::ifstream In(std::string(HERD_CORPUS_DIR) + "/MANIFEST");
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::istringstream S(Line);
    CorpusEntry E;
    S >> E.File >> E.Workload >> E.Scale >> E.Records >> E.RawBytes >>
        E.CompressedBytes >> E.RacyLocations;
    if (!S.fail())
      Entries.push_back(std::move(E));
  }
  return Entries;
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Out.resize(Size > 0 ? size_t(Size) : 0);
  size_t Read = Out.empty() ? 0 : std::fread(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  return Read == Out.size();
}

/// Decompresses one corpus entry to a scratch trace file, removed when the
/// returned path dies.
TempPath inflateToTemp(const CorpusEntry &E) {
  std::vector<uint8_t> Packed;
  EXPECT_TRUE(
      readFile(std::string(HERD_CORPUS_DIR) + "/" + E.File, Packed))
      << E.File;
  EXPECT_EQ(Packed.size(), E.CompressedBytes) << E.File;
  std::vector<uint8_t> Raw;
  EXPECT_TRUE(rleDecompress(Packed, Raw)) << E.File;
  EXPECT_EQ(Raw.size(), E.RawBytes) << E.File;
  TempPath Path("corpus-test-" + E.Workload);
  std::FILE *F = std::fopen(Path.str().c_str(), "wb");
  EXPECT_NE(F, nullptr);
  if (F) {
    EXPECT_EQ(std::fwrite(Raw.data(), 1, Raw.size(), F), Raw.size());
    std::fclose(F);
  }
  return Path;
}

/// Replays \p Path into \p Sink; returns false on any trace error.
bool replay(const std::string &Path, RuntimeHooks &Sink) {
  TraceReader Reader;
  if (TraceResult TR = Reader.open(Path); !TR.Ok) {
    ADD_FAILURE() << Path << ": " << TR.Error;
    return false;
  }
  if (TraceResult TR = Reader.replayInto(Sink); !TR.Ok) {
    ADD_FAILURE() << Path << ": " << TR.Error;
    return false;
  }
  return true;
}

TEST(TraceCorpus, ManifestPresent) {
  std::vector<CorpusEntry> Entries = readManifest();
  ASSERT_EQ(Entries.size(), 5u)
      << "tests/corpus/MANIFEST should list the five replicas "
         "(regenerate with tools/herd_corpus)";
}

TEST(TraceCorpus, SerialAndShardedAgreeWithManifest) {
  for (const CorpusEntry &E : readManifest()) {
    SCOPED_TRACE(E.Workload);
    TempPath Path = inflateToTemp(E);

    RaceRuntime Serial;
    ASSERT_TRUE(replay(Path, Serial));
    Serial.onRunEnd();
    auto SerialRacy = Serial.reporter().reportedLocations();
    EXPECT_EQ(SerialRacy.size(), E.RacyLocations);

    for (uint32_t Shards : {2u, 3u}) {
      ShardedRuntimeOptions SOpts;
      SOpts.NumShards = Shards;
      ShardedRuntime Sharded(SOpts);
      ASSERT_TRUE(replay(Path, Sharded));
      Sharded.onRunEnd();
      EXPECT_EQ(Sharded.reporter().reportedLocations(), SerialRacy)
          << Shards << " shards";
    }
  }
}

TEST(TraceCorpus, EpochAndVectorClockAgreeAtScale) {
  // The epoch backend must be race-set equivalent to the vector-clock
  // happens-before baseline on every corpus trace (docs/DETECTORS.md);
  // this is the at-scale leg of the differential that baselines_test.cpp
  // and fuzz_test.cpp pin on small traces.
  for (const CorpusEntry &E : readManifest()) {
    SCOPED_TRACE(E.Workload);
    TempPath Path = inflateToTemp(E);

    VectorClockDetector VC;
    ASSERT_TRUE(replay(Path, VC));
    EpochDetector Epoch;
    ASSERT_TRUE(replay(Path, Epoch));
    EXPECT_EQ(Epoch.reportedLocations(), VC.reportedLocations());

    // The epoch fast paths must actually engage on real traces.
    EpochStats S = Epoch.stats();
    EXPECT_EQ(S.Events, S.Reads + S.Writes);
    EXPECT_GT(S.SameEpochReads + S.SameEpochWrites, 0u);
  }
}

TEST(TraceCorpus, RleRoundTripsArbitraryBytes) {
  // Codec unit check alongside the corpus use: adversarial patterns —
  // long runs, alternations, runs crossing the 129 cap, empty input.
  std::vector<std::vector<uint8_t>> Cases;
  Cases.push_back({});
  Cases.push_back({7});
  Cases.push_back(std::vector<uint8_t>(1000, 0));
  Cases.push_back(std::vector<uint8_t>(129, 42));
  Cases.push_back(std::vector<uint8_t>(130, 42));
  {
    std::vector<uint8_t> Alt;
    for (int I = 0; I != 500; ++I)
      Alt.push_back(uint8_t(I & 1 ? 0xAA : 0x55));
    Cases.push_back(std::move(Alt));
    std::vector<uint8_t> Mixed;
    uint32_t X = 123456789;
    for (int I = 0; I != 4096; ++I) {
      X = X * 1664525 + 1013904223;
      // Bursty: stretches of zeros between random bytes, like trace records.
      Mixed.insert(Mixed.end(), (X >> 28) + 1, 0);
      Mixed.push_back(uint8_t(X >> 16));
    }
    Cases.push_back(std::move(Mixed));
  }
  for (const std::vector<uint8_t> &In : Cases) {
    std::vector<uint8_t> Out;
    ASSERT_TRUE(rleDecompress(rleCompress(In), Out));
    EXPECT_EQ(Out, In);
  }
  // Truncated streams must be rejected, not crash.
  std::vector<uint8_t> Bad1 = {5, 1, 2};        // literal promises 6 bytes
  std::vector<uint8_t> Bad2 = {200};            // repeat missing its byte
  std::vector<uint8_t> Out;
  EXPECT_FALSE(rleDecompress(Bad1, Out));
  EXPECT_FALSE(rleDecompress(Bad2, Out));
}

} // namespace
