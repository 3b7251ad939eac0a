//===- examples/minij_tour.cpp - The MiniJ surface language ---------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a MiniJ source program — a worker pool with one deliberately
/// missing lock — and runs the full detection pipeline on it.  Race
/// reports point at MiniJ source lines.  Also demonstrates the compiler's
/// diagnostics on a broken program.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "herd/Pipeline.h"

#include <cstdio>
#include <string_view>

using namespace herd;

namespace {

const char *const PoolSource = R"minij(
class Stats {
  var processed: int;    // guarded by `this`... supposedly
  var maxSeen: int;
}

class Job {
  var payload: int;
  var done: int;
}

class Worker {
  var jobs: Job[];
  var lo: int;
  var hi: int;
  var stats: Stats;

  def run() {
    var i = lo;
    while (i < hi) {
      var j: Job = jobs[i];
      j.payload = j.payload * 2 + 1;
      j.done = 1;
      synchronized (stats) {
        stats.processed = stats.processed + 1;
      }
      // BUG: maxSeen is updated OUTSIDE the critical section.
      if (j.payload > stats.maxSeen) {
        stats.maxSeen = j.payload;
      }
      i = i + 1;
    }
  }
}

def main() {
  var jobs: Job[] = new Job[16];
  var i = 0;
  while (i < jobs.length) {
    var j: Job = new Job();
    j.payload = i * 3;
    jobs[i] = j;
    i = i + 1;
  }
  var stats: Stats = new Stats();
  var w1: Worker = new Worker();
  var w2: Worker = new Worker();
  w1.jobs = jobs; w1.lo = 0; w1.hi = 8;  w1.stats = stats;
  w2.jobs = jobs; w2.lo = 8; w2.hi = 16; w2.stats = stats;
  start w1;
  start w2;
  join w1;
  join w2;
  print stats.processed;
  print stats.maxSeen;
}
)minij";

const char *const BrokenSource = R"minij(
class Account {
  var balance: int;
}
def main() {
  var a: Account = new Account();
  a.balence = 10;     // typo
  print a.withdraw(); // no such method
}
)minij";

} // namespace

int main() {
  std::printf("MiniJ tour: source -> compile -> detect\n\n");
  std::printf("%s\n", PoolSource);

  CompileResult R = compileMiniJ(PoolSource);
  if (!R.Ok) {
    for (const Diagnostic &D : R.Diags)
      std::printf("error: %s\n", D.str().c_str());
    return 1;
  }
  std::printf("compiled: %zu classes, %zu methods, %zu IR statements\n\n",
              R.P.numClasses(), R.P.numMethods(), R.P.countInstructions());

  PipelineResult Res = runPipeline(R.P, ToolConfig::full());
  if (!Res.Run.Ok) {
    std::printf("execution failed: %s\n", Res.Run.Error.c_str());
    return 1;
  }
  std::printf("program output: processed=%lld maxSeen=%lld\n",
              (long long)Res.Run.Output[0], (long long)Res.Run.Output[1]);
  std::printf("%zu race report(s):\n", Res.Reports.size());
  for (std::string_view Line : Res.FormattedRaces)
    std::printf("  %.*s\n", int(Line.size()), Line.data());
  std::printf("\n(`L<k>` labels are MiniJ source lines: the maxSeen\n"
              "update at the unsynchronized if-statement.)\n\n");

  std::printf("--- diagnostics on a broken program ---\n");
  CompileResult Bad = compileMiniJ(BrokenSource);
  for (const Diagnostic &D : Bad.Diags)
    std::printf("error: %s\n", D.str().c_str());
  return 0;
}
