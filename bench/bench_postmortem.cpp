//===- bench/bench_postmortem.cpp - Post-mortem mode measurements ---------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the on-the-fly vs post-mortem trade-off the paper discusses
/// (Sections 1 and 9): post-mortem detection moves work off-line but "the
/// size of the trace structure can grow prohibitively large".  For each
/// benchmark replica this harness reports the full event-log size, the
/// (much smaller) footprint the online detector kept instead, and whether
/// replaying the log offline reports the online run's racy locations.
///
//===----------------------------------------------------------------------===//

#include "detect/EventLog.h"
#include "detect/RaceRuntime.h"
#include "runtime/Interpreter.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace herd;

int main() {
  std::printf("Post-mortem mode: log size vs online detector footprint\n\n");
  std::printf("%-10s %10s %12s %14s %12s\n", "program", "events",
              "log-bytes", "online-state*", "same-races");

  for (Workload &W : buildAllWorkloads(4)) {
    // One run, observed by both the online detector and the recorder.
    RaceRuntime Online;
    EventLog Log;
    FanoutHooks Fanout{&Online, &Log};
    InterpOptions Opts;
    Opts.TraceEveryAccess = true;
    Interpreter Interp(W.P, &Fanout, Opts);
    InterpResult R = Interp.run();
    if (!R.Ok) {
      std::fprintf(stderr, "%s failed: %s\n", W.Name.c_str(),
                   R.Error.c_str());
      return 1;
    }

    // Offline: replay the log into a fresh detector.
    RaceRuntime Offline;
    Log.replayInto(Offline);

    // The online detector's retained state: trie nodes (~3 words each)
    // plus location-table entries; dwarfed by the full log.
    RaceRuntimeStats Stats = Online.stats();
    size_t OnlineState = Stats.Detector.TrieNodes * 24 +
                         Stats.Detector.LocationsTracked * 32;

    bool Same = Online.reporter().reportedLocations() ==
                Offline.reporter().reportedLocations();
    std::printf("%-10s %10zu %12zu %14zu %12s\n", W.Name.c_str(),
                Log.size(), Log.serialize().size(), OnlineState,
                Same ? "yes" : "NO!");
  }

  std::printf("\n(*) approximate bytes of detector state retained online;\n"
              "the log grows linearly with execution length while the\n"
              "weaker-than filtering keeps the online state near-constant\n"
              "— the paper's argument for on-the-fly detection.\n");
  return 0;
}
