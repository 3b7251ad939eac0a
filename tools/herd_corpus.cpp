//===- tools/herd_corpus.cpp - Regenerate the checked-in trace corpus -----==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records each benchmark replica at corpus scale through the interpreter,
/// RLE-compresses the trace (support/ByteRle.h) and writes it plus a
/// MANIFEST into the corpus directory.  tests/corpus_test.cpp replays the
/// checked-in corpus differentially (serial vs sharded) every CI run, so
/// the corpus only needs regenerating when the trace format or the
/// workload programs change:
///
///   ./build/tools/herd_corpus tests/corpus [scale]
///
/// MANIFEST columns: file workload scale records raw_bytes
/// compressed_bytes racy_locations.  racy_locations is what the serial
/// runtime reports at record time; the test treats it as ground truth.
///
//===----------------------------------------------------------------------===//

#include "detect/RaceRuntime.h"
#include "detect/TraceFile.h"
#include "runtime/Interpreter.h"
#include "support/ByteRle.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace herd;

namespace {

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

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written =
      Data.empty() ? 0 : std::fwrite(Data.data(), 1, Data.size(), F);
  std::fclose(F);
  return Written == Data.size();
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s CORPUS_DIR [SCALE]\n", argv[0]);
    return 2;
  }
  std::string Dir = argv[1];
  uint32_t Scale = 6;
  if (argc == 3) {
    long N = std::atol(argv[2]);
    if (N < 1 || N > 64) {
      std::fprintf(stderr, "SCALE must be in [1, 64]\n");
      return 2;
    }
    Scale = uint32_t(N);
  }

  std::string Manifest;
  for (Workload &W : buildAllWorkloads(Scale)) {
    TempPath RawPath("corpus-" + W.Name);
    TraceWriter Writer;
    if (TraceResult TR = Writer.open(RawPath); !TR.Ok) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), TR.Error.c_str());
      return 1;
    }
    InterpOptions Opts;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(W.P, &Writer, Opts);
    InterpResult R = Interp.run();
    if (TraceResult TR = Writer.close(); !R.Ok || !TR.Ok) {
      std::fprintf(stderr, "%s failed: %s%s\n", W.Name.c_str(),
                   R.Error.c_str(), TR.Error.c_str());
      return 1;
    }

    // Ground-truth racy-location count: replay through the serial runtime.
    RaceRuntime Serial;
    TraceReader Reader;
    if (TraceResult TR = Reader.open(RawPath); !TR.Ok) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), TR.Error.c_str());
      return 1;
    }
    if (TraceResult TR = Reader.replayInto(Serial); !TR.Ok) {
      std::fprintf(stderr, "%s: %s\n", W.Name.c_str(), TR.Error.c_str());
      return 1;
    }
    Serial.onRunEnd();
    size_t RacyLocations = Serial.reporter().reportedLocations().size();

    std::vector<uint8_t> Raw;
    if (!readFile(RawPath, Raw)) {
      std::fprintf(stderr, "%s: cannot re-read %s\n", W.Name.c_str(),
                   RawPath.str().c_str());
      return 1;
    }
    std::vector<uint8_t> Packed = rleCompress(Raw);
    std::string File = W.Name + ".trace.rle";
    if (!writeFile(Dir + "/" + File, Packed)) {
      std::fprintf(stderr, "%s: cannot write %s/%s\n", W.Name.c_str(),
                   Dir.c_str(), File.c_str());
      return 1;
    }

    char Line[256];
    std::snprintf(Line, sizeof(Line), "%s %s %u %llu %zu %zu %zu\n",
                  File.c_str(), W.Name.c_str(), Scale,
                  (unsigned long long)Writer.recordsWritten(), Raw.size(),
                  Packed.size(), RacyLocations);
    Manifest += Line;
    std::printf("%-10s %8llu records  %9zu -> %8zu bytes (%.1f%%)  "
                "%zu racy locations\n",
                W.Name.c_str(), (unsigned long long)Writer.recordsWritten(),
                Raw.size(), Packed.size(),
                Raw.empty() ? 0.0 : 100.0 * double(Packed.size()) /
                                        double(Raw.size()),
                RacyLocations);
  }

  std::FILE *F = std::fopen((Dir + "/MANIFEST").c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s/MANIFEST\n", Dir.c_str());
    return 1;
  }
  std::fputs(Manifest.c_str(), F);
  std::fclose(F);
  std::printf("wrote %s/MANIFEST\n", Dir.c_str());
  return 0;
}
