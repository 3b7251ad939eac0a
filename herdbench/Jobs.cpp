//===- herdbench/Jobs.cpp - Workload inputs, jobs and checks --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "detect/TraceFile.h"
#include "ir/IRBuilder.h"
#include "support/Metrics.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace herd;

namespace herdbench {

namespace {

// Replica scales: large enough that a Full job takes tens of milliseconds,
// small enough that a run of --seconds holds about a hundred of them or
// more (a p90 of job times needs 100 samples).
constexpr uint32_t TspScale = 100;
constexpr uint32_t MtrtScale = 100;

/// Shape of the refhot stream: the generator of bench/bench_hotpath.cpp,
/// sized so that a run holds over a hundred jobs.  Every access happens
/// under a lock whose release evicts it from the access cache, so the trie,
/// the lockset interner and the race reporter do all the work.  The seed
/// rotates which objects and locks each round touches; the event counts
/// and the sharing pattern do not depend on it.
struct RefShape {
  uint32_t Threads = 8; ///< worker threads (ids 1..Threads; 0 is main)
  uint32_t Locks = 16;
  uint32_t Objects = 4096;
  uint32_t Fields = 4;
  uint32_t Window = 64; ///< accesses per locked region
  uint32_t Rounds = 300;
  uint32_t Sites = 32;
  uint32_t ObjectSalt = 0;
  uint32_t LockSalt = 0;

  uint64_t accesses() const { return uint64_t(Threads) * Rounds * Window; }
};

void emitRefhot(RuntimeHooks &Sink, const RefShape &S) {
  for (uint32_t T = 1; T <= S.Threads; ++T)
    Sink.onThreadCreate(ThreadId(T), ThreadId(0), ObjectId(T));
  for (uint32_t Round = 0; Round != S.Rounds; ++Round) {
    for (uint32_t T = 1; T <= S.Threads; ++T) {
      LockId Outer = LockId((Round + T + S.LockSalt) % S.Locks);
      LockId Inner = LockId((Round * 5 + T * 7 + 1 + S.LockSalt) % S.Locks);
      bool Nest = (Round + T) % 3 == 0 && Inner != Outer;
      Sink.onMonitorEnter(ThreadId(T), Outer, /*Recursive=*/false);
      if (Nest)
        Sink.onMonitorEnter(ThreadId(T), Inner, /*Recursive=*/false);
      for (uint32_t I = 0; I != S.Window; ++I) {
        uint32_t Obj =
            (Round * 97 + T * 31 + I * 13 + S.ObjectSalt) % S.Objects;
        AccessKind Kind =
            (I + T) % 3 == 0 ? AccessKind::Write : AccessKind::Read;
        Sink.onAccess(ThreadId(T),
                      LocationKey::forField(ObjectId(Obj),
                                            FieldId(I % S.Fields)),
                      Kind, SiteId(I % S.Sites));
      }
      if (Nest)
        Sink.onMonitorExit(ThreadId(T), Inner, /*StillHeld=*/false);
      Sink.onMonitorExit(ThreadId(T), Outer, /*StillHeld=*/false);
    }
  }
}

/// The program the refhot trace is replayed against.  Report formatting
/// looks up every field and site id of the stream in it unchecked, so it
/// declares exactly those.
Program refhotProgram(const RefShape &S) {
  Program P;
  IRBuilder B(P);
  ClassId Ref = B.makeClass("Ref");
  for (uint32_t F = 0; F != S.Fields; ++F)
    B.makeField(Ref, std::string("f") + std::to_string(F));
  MethodId Main = B.startMain();
  for (uint32_t Site = 0; Site != S.Sites; ++Site)
    P.addSite(std::string("ref") + std::to_string(Site), Main);
  B.emitReturn();
  return P;
}

/// Counts the records a trace delivers and nothing else.
class CountingSink final : public RuntimeHooks {
public:
  void onAccess(ThreadId, LocationKey, AccessKind, SiteId) override {
    ++Accesses;
  }
  uint64_t Accesses = 0;
};

/// True when \p A and \p B print the same values, apart from the last
/// \p Racy values, which a race in the program decides.
bool sameOutput(const std::vector<int64_t> &A, const std::vector<int64_t> &B,
                size_t Racy) {
  if (A.size() != B.size() || A.size() < Racy)
    return false;
  return std::equal(A.begin(), A.end() - Racy, B.begin());
}

/// Where the references leave their results, so the compiler keeps their
/// work.
volatile uint64_t Checksum = 0;

} // namespace

uint32_t shardCount() {
  uint32_t Cores = std::thread::hardware_concurrency();
  return std::clamp<uint32_t>(Cores > 1 ? Cores - 1 : 1, 1, 3);
}

TempFile::TempFile(const std::string &Dir, const std::string &Stem) {
  static std::atomic<uint32_t> Next{0};
  Path = Dir + "/" + Stem + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(Next++) + ".trace";
}

TempFile::~TempFile() { std::remove(Path.c_str()); }

std::string prepareWorkload(const std::string &Name, uint64_t Seed,
                            const std::string &WorkDir, bool WithReference,
                            Workload &W) {
  W.Name = Name;
  if (Name == "tsp-live" || Name == "mtrt-live") {
    herd::Workload Replica =
        Name == "tsp-live" ? buildTsp(TspScale) : buildMtrt(MtrtScale);
    W.Live = true;
    W.Prog = std::move(Replica.P);
    W.ExpectedRacyObjects = Replica.ExpectedRacyObjectsFull;
    // mtrt's last printed value is RayTrace.threadCount, the subject of
    // one of its real races: its value depends on the schedule.
    W.RacyOutputs = Name == "mtrt-live" ? 1 : 0;
    return std::string();
  }
  if (Name != "refhot-replay")
    return "unknown workload '" + Name + "'";

  W.Live = false;
  RefShape S;
  uint64_t H = mixSeed(Seed);
  S.ObjectSalt = uint32_t(H % S.Objects);
  S.LockSalt = uint32_t((H >> 32) % S.Locks);
  W.Prog = refhotProgram(S);
  W.TraceAccesses = S.accesses();
  W.Trace = std::make_unique<TempFile>(WorkDir, Name);
  TraceWriter Writer;
  if (TraceResult TR = Writer.open(W.Trace->path()); !TR.Ok)
    return "cannot record the refhot trace: " + TR.Error;
  emitRefhot(Writer, S);
  if (TraceResult TR = Writer.close(); !TR.Ok)
    return "cannot record the refhot trace: " + TR.Error;
  std::error_code EC;
  W.TraceBytes = std::filesystem::file_size(W.Trace->path(), EC);
  if (EC || W.TraceBytes == 0)
    return "cannot read back the refhot trace";
  if (!WithReference)
    return std::string();

  PipelineResult Ref =
      replayTracePipeline(W.Prog, ToolConfig::noCache(), W.Trace->path());
  if (!Ref.Run.Ok)
    return "reference replay failed: " + Ref.Run.Error;
  W.Reference = Ref.Reports.reportedLocations();
  if (W.Reference.empty())
    return "the reference replay reported no races";
  return std::string();
}

ToolConfig jobConfig(bool Full, uint64_t Seed) {
  ToolConfig C = Full ? ToolConfig::full() : ToolConfig::base();
  C.Seed = Seed;
  return C;
}

Job runJob(const Workload &W, const ToolConfig &Config) {
  MetricsRegistry Own; // same process-wide clock as any caller's registry
  ToolConfig C = Config;
  if (!C.Metrics)
    C.Metrics = &Own;
  MetricsRegistry &Reg = *C.Metrics;
  Job J;
  uint64_t StartNanos = Reg.nowNanos();
  Clock::time_point T0 = Clock::now();
  J.Result = W.Live ? runPipeline(W.Prog, C)
                    : replayTracePipeline(W.Prog, C, W.Trace->path());
  J.Seconds = secondsSince(T0);
  const char *FirstEvent = W.Live ? "execute" : "replay";
  for (const TraceEvent &E : Reg.traceEvents())
    if (E.Phase == 'X' && E.Tid == 0 && E.Name == FirstEvent &&
        E.StartNanos >= StartNanos) {
      J.SetupSeconds = double(E.StartNanos - StartNanos) * 1e-9;
      break;
    }
  return J;
}

std::string checkFull(const Workload &W, const PipelineResult &Full,
                      const InterpResult *Base) {
  if (!Full.Run.Ok)
    return "run failed: " + Full.Run.Error;
  if (W.Live) {
    size_t Objects = Full.Reports.countDistinctObjects();
    if (Objects != W.ExpectedRacyObjects)
      return "reported " + std::to_string(Objects) +
             " racy objects, expected " +
             std::to_string(W.ExpectedRacyObjects);
    if (Base && !sameOutput(Full.Run.Output, Base->Output, W.RacyOutputs))
      return "printed output differs from the Base job's";
    return std::string();
  }
  if (Full.Stats.EventsSeen != W.TraceAccesses)
    return "saw " + std::to_string(Full.Stats.EventsSeen) + " accesses of " +
           std::to_string(W.TraceAccesses);
  if (Full.Reports.reportedLocations() != W.Reference)
    return "racy locations differ from the NoCache reference";
  return std::string();
}

TraceRead timeTraceRead(const std::string &Path) {
  TraceRead Out;
  TraceReader Reader;
  if (!Reader.open(Path).Ok)
    return Out;
  CountingSink Sink;
  Clock::time_point T0 = Clock::now();
  Out.Ok = Reader.replayInto(Sink).Ok;
  Out.Seconds = secondsSince(T0);
  Out.Accesses = Sink.Accesses;
  return Out;
}

Scan timeFileScan(const std::string &Path) {
  // One counter per 8 bytes of the file, in a table larger than a core's L2
  // cache, like a detector's per-location state.
  constexpr unsigned TableBits = 22;
  static std::vector<uint32_t> Table(size_t(1) << TableBits);
  static uint64_t Buf[1 << 13];
  Scan Out;
  Clock::time_point T0 = Clock::now();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  uint64_t Sum = 0;
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0) {
    for (size_t I = 0; I != N / sizeof(uint64_t); ++I)
      Sum += ++Table[(Buf[I] * 0x9E3779B97F4A7C15ull) >> (64 - TableBits)];
    Out.Bytes += N;
  }
  bool Ok = !std::ferror(F);
  std::fclose(F);
  Checksum = Checksum + Sum;
  if (Ok)
    Out.Seconds = secondsSince(T0);
  return Out;
}

double timeYardstick() {
  Clock::time_point T0 = Clock::now();
  std::map<uint32_t, uint32_t> Tree;
  std::unordered_map<uint32_t, uint32_t> Hash;
  std::vector<std::vector<uint32_t>> Lists(64);
  uint32_t X = 0x2545F491u;
  for (uint32_t I = 0; I != 2048; ++I) {
    X = X * 1664525u + 1013904223u;
    Tree[X >> 21] += I;
    Hash[X >> 14] ^= I;
    Lists[X & 63].push_back(X);
  }
  uint64_t Sum = Hash.size();
  for (std::vector<uint32_t> &L : Lists) {
    std::sort(L.begin(), L.end());
    Sum += L.empty() ? 0 : L.front();
  }
  for (const auto &[K, V] : Tree)
    Sum += uint64_t(K) * V;
  Checksum = Checksum + Sum;
  return secondsSince(T0);
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double tailQuantile(size_t Samples) {
  if (Samples >= 100)
    return 0.9;
  double Q = std::floor(100.0 * (1.0 - 10.0 / double(Samples))) / 100.0;
  return std::max(Q, 0.5);
}

std::string jsonNumber(double V) {
  char Buf[64];
  auto [End, Err] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  if (Err != std::errc())
    return "0";
  return std::string(Buf, End);
}

} // namespace herdbench
