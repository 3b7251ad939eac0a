//===- tests/limits_test.cpp - Interpreter resource limits ----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hostile programs in tests/limits/ must end in a runtime error, not
/// in an exhausted machine: a huge array, a loop of moderate arrays and a
/// loop of field-less objects cross Interpreter::MaxHeapBytes, unbounded
/// recursion crosses Interpreter::MaxCallDepth, and a loop that starts
/// threads crosses MaxThreads.  Each runs under both
/// dispatch modes, serial and sharded; the two dispatch modes must fault
/// at the same instruction (the checks live in the shared executors).
/// tests/cli_limits.cmake checks the same programs end to end through
/// `herd` (exit 1, "herd: runtime error: ...").  A program that nests
/// thousands of locks must run clean in bounded memory, live and replayed.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "herd/Pipeline.h"
#include "support/TempPath.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char **environ;

using namespace herd;

namespace {

CompileResult compileLimitProgram(const std::string &Name) {
  std::ifstream File(std::string(HERD_LIMITS_DIR) + "/" + Name);
  std::stringstream Text;
  Text << File.rdbuf();
  CompileResult R = compileMiniJ(Text.str());
  EXPECT_TRUE(R.Ok) << Name << ": "
                    << (R.Diags.empty() ? "?" : R.Diags[0].str());
  return R;
}

/// Runs \p Name under every dispatch mode, serial and with two shards, and
/// expects each run to fault with \p Error at the same instruction.
void expectFault(const std::string &Name, const std::string &Error) {
  CompileResult C = compileLimitProgram(Name);
  ASSERT_TRUE(C.Ok);
  for (uint32_t Shards : {0u, 2u}) {
    uint64_t FaultAt = 0;
    for (DispatchMode Mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
      ToolConfig Config = ToolConfig::full();
      Config.Shards = Shards;
      Config.Dispatch = Mode;
      PipelineResult R = runPipeline(C.P, Config);
      SCOPED_TRACE(Name + " shards=" + std::to_string(Shards) + " " +
                   dispatchModeName(Mode));
      EXPECT_FALSE(R.Run.Ok);
      EXPECT_EQ(R.Run.Error, Error);
      if (FaultAt == 0)
        FaultAt = R.Run.InstructionsExecuted;
      EXPECT_EQ(R.Run.InstructionsExecuted, FaultAt);
    }
  }
}

const std::string HeapError = "heap budget of 64 MiB exhausted";

TEST(LimitsTest, HugeArrayFaultsBeforeAllocating) {
  expectFault("huge_array.mj", HeapError);
}

TEST(LimitsTest, ArrayLoopCrossesTheHeapBudget) {
  expectFault("array_loop.mj", HeapError);
}

TEST(LimitsTest, ObjectLoopCrossesTheHeapBudget) {
  expectFault("object_loop.mj", HeapError);
}

TEST(LimitsTest, UnboundedRecursionHitsTheCallDepth) {
  expectFault("recursion.mj",
              "call depth limit of 100000 frames exceeded");
}

TEST(LimitsTest, ThreadLoopHitsTheThreadLimit) {
  expectFault("thread_loop.mj", "thread limit of 1024 threads exceeded");
}

/// The replicas at the largest scale any bench runs (bench_paper_grid 250)
/// stay far inside every limit.
TEST(LimitsTest, ReplicasAtTheLargestBenchScaleRunClean) {
  for (Workload &W : buildAllWorkloads(250)) {
    InterpOptions Opts;
    Interpreter Interp(W.P, nullptr, Opts);
    InterpResult R = Interp.run();
    EXPECT_TRUE(R.Ok) << W.Name << ": " << R.Error;
    EXPECT_LE(R.ThreadsCreated, MaxThreads / 64) << W.Name;
    uint64_t Bytes = 0;
    for (size_t I = 0; I != Interp.heap().size(); ++I)
      Bytes += sizeof(HeapObject) +
               Interp.heap().object(ObjectId(uint32_t(I))).Slots.size() *
                   sizeof(Value);
    EXPECT_LT(Bytes, Interpreter::MaxHeapBytes / 16) << W.Name;
  }
}

/// A program that nests `synchronized` blocks on \p N objects in a worker
/// thread and, at each depth, writes a field main wrote first, so every
/// write reaches the detector under a lockset one lock larger than the
/// last.  The objects are fresh ones, whose lock ids ascend with depth, or
/// with \p Descending main's own in reverse, so each lock sorts below every
/// held one.  Ownership drops main's later write (Section 7), so it runs
/// clean.
std::string nestedLocksProgram(uint32_t N, bool Descending = false) {
  std::string Bound = std::to_string(N);
  std::string Pick = Descending ? "cs[" + std::to_string(N - 1) + " - n]"
                                : std::string("new C()");
  return "class C { var f: int; }\n"
         "class W {\n"
         "  var cs: C[];\n"
         "  def down(n: int): int {\n"
         "    var r: int = 0;\n"
         "    if (n < " + Bound + ") {\n"
         "      var o: C = " + Pick + ";\n"
         "      synchronized (o) {\n"
         "        var c: C = cs[n]; c.f = n; r = this.down(n + 1);\n"
         "      }\n"
         "    }\n"
         "    return r;\n"
         "  }\n"
         "  def run() { var x: int = this.down(0); }\n"
         "}\n"
         "def main() {\n"
         "  var cs: C[] = new C[" + Bound + "];\n"
         "  var i: int = 0;\n"
         "  while (i < " + Bound + ") {\n"
         "    var c: C = new C(); c.f = i; cs[i] = c; i = i + 1;\n"
         "  }\n"
         "  var w: W = new W(); w.cs = cs; start w;\n"
         "  var d: C = cs[0]; d.f = 1;\n"
         "}\n";
}

struct HerdRun {
  int Exit = -1;
  std::string Out;
  long PeakKiB = 0; ///< the child's ru_maxrss
};

/// Runs the herd CLI with \p Args in a child process.  The child is
/// forked, not spawned: Linux carries the peak of the memory image a
/// process execs from into its ru_maxrss, and posix_spawn's child execs
/// from this process's own image, whose peak the earlier tests of a run
/// set.  A forked child's image is a copy of this process's resident
/// pages, trimmed first.
HerdRun runHerd(const std::vector<std::string> &Args) {
  HerdRun Run;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    ADD_FAILURE() << "pipe failed";
    return Run;
  }
  std::vector<char *> Argv{const_cast<char *>(HERD_BINARY)};
  for (const std::string &Arg : Args)
    Argv.push_back(const_cast<char *>(Arg.c_str()));
  Argv.push_back(nullptr);
  ::malloc_trim(0);
  pid_t Child = ::fork();
  if (Child == 0) {
    ::dup2(Pipe[1], STDOUT_FILENO);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    ::execv(HERD_BINARY, Argv.data());
    ::_exit(127);
  }
  ::close(Pipe[1]);
  if (Child < 0) {
    ::close(Pipe[0]);
    ADD_FAILURE() << "cannot run " << HERD_BINARY;
    return Run;
  }
  char Buf[4096];
  for (ssize_t Got; (Got = ::read(Pipe[0], Buf, sizeof(Buf))) > 0;)
    Run.Out.append(Buf, size_t(Got));
  ::close(Pipe[0]);
  int Status = 0;
  struct rusage Usage {};
  if (::wait4(Child, &Status, 0, &Usage) == Child && WIFEXITED(Status))
    Run.Exit = WEXITSTATUS(Status);
  Run.PeakKiB = Usage.ru_maxrss;
  return Run;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool Sanitized = true;
#else
constexpr bool Sanitized = false;
#endif
#else
constexpr bool Sanitized = false;
#endif

/// A program whose main thread starts and joins \p Joins threads, one at
/// a time, so it holds \p Joins dummy join locks (Section 2.3), and then
/// writes a field of each of \p Objects objects under that object's lock.
/// The first thread wrote the field of object 0, so the writes reach the
/// detector; it runs clean.
std::string manyJoinsThenLocksProgram(uint32_t Joins, uint32_t Objects) {
  std::string J = std::to_string(Joins), N = std::to_string(Objects);
  return "class C { var f: int; }\n"
         "class J {\n"
         "  var cs: C[]; var w: int;\n"
         "  def run() {\n"
         "    if (this.w == 1) { var a: C[] = this.cs; var x: C = a[0]; "
         "x.f = 1; }\n"
         "  }\n"
         "}\n"
         "def main() {\n"
         "  var cs: C[] = new C[" + N + "];\n"
         "  var i: int = 0;\n"
         "  while (i < " + N + ") {\n"
         "    var c: C = new C(); c.f = i; cs[i] = c; i = i + 1;\n"
         "  }\n"
         "  i = 0;\n"
         "  while (i < " + J + ") {\n"
         "    var j: J = new J(); j.cs = cs;\n"
         "    if (i == 0) { j.w = 1; }\n"
         "    start j; join j; i = i + 1;\n"
         "  }\n"
         "  i = 1;\n"
         "  while (i < " + N + ") {\n"
         "    var c: C = cs[i]; synchronized (c) { c.f = i; } i = i + 1;\n"
         "  }\n"
         "}\n";
}

/// Runs \p Program live serial (recording it), live with two shards and as
/// a replay of the recording: each must run clean under \p BoundMiB of
/// peak memory (sanitizer builds skip the bound).
void expectCleanInBoundedMemory(const std::string &Program, long BoundMiB) {
  TempPath Source("limits-mj"), Trace("limits-trace");
  std::ofstream(Source.str()) << Program;
  const std::vector<std::vector<std::string>> Runs = {
      {Source.str(), "--record=" + Trace.str()},
      {Source.str(), "--shards=2"},
      {Source.str(), "--replay=" + Trace.str()},
  };
  for (const std::vector<std::string> &Args : Runs) {
    HerdRun Run = runHerd(Args);
    SCOPED_TRACE(Args.back());
    EXPECT_EQ(Run.Exit, 0);
    // Recording and replaying print one line about the trace first.
    EXPECT_TRUE(Run.Out.ends_with("no dataraces reported\n")) << Run.Out;
    EXPECT_LE(std::count(Run.Out.begin(), Run.Out.end(), '\n'), 2);
    if (!Sanitized) {
      EXPECT_LT(Run.PeakKiB, BoundMiB * 1024);
    }
  }
}

TEST(LimitsTest, NestedLocksRunInBoundedMemory) {
  // 12,000 nested locks, one more at each depth.  Storing each lockset
  // whole costs about N^2/2 lock ids (near 288 MiB here); the interner adds
  // a node or two per depth.
  expectCleanInBoundedMemory(nestedLocksProgram(12000), 96);
}

TEST(LimitsTest, DescendingNestedLocksRunInBoundedMemory) {
  // The same depth with each lock below every held one, which a prefix
  // chain (a set as the set without its largest lock, plus that lock)
  // rebuilds whole at every depth; the interner's treap copies one path.
  expectCleanInBoundedMemory(nestedLocksProgram(12000, /*Descending=*/true),
                             96);
}

TEST(LimitsTest, LocksTakenAfterManyJoinsRunInBoundedMemory) {
  // 100 dummy join locks held, above every program lock, while 42,000
  // distinct locks come and go below them: a lock change must not cost a
  // node per dummy lock held (4.2 million nodes would pass the interner's
  // cap).
  expectCleanInBoundedMemory(manyJoinsThenLocksProgram(100, 42000), 96);
}

} // namespace
