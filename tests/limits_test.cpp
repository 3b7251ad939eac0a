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
/// `herd` (exit 1, "herd: runtime error: ...").
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "herd/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

} // namespace
