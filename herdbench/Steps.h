//===- herdbench/Steps.h - A job decomposed into layer calls ----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A detection job re-assembled from the public functions of each layer,
/// in the order herd/Pipeline.cpp calls them, so the benchmark can time
/// each layer from its own files.  The configuration mapping below mirrors
/// the pipeline's private makeDetectionRuntime; the traced run checks that
/// a decomposed job executes exactly the instructions and events of the
/// real job, so any drift shows up as a failed job.
///
//===----------------------------------------------------------------------===//

#ifndef HERDBENCH_STEPS_H
#define HERDBENCH_STEPS_H

#include "Bench.h"

#include "analysis/DetectorPlanner.h"
#include "analysis/StaticRace.h"
#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "detect/TraceFile.h"
#include "instr/Instrumenter.h"
#include "instr/Superinstr.h"
#include "runtime/Interpreter.h"
#include "support/Metrics.h"

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

namespace herdbench {

/// Times named steps; with a registry, each step is also a "layer" span.
class Steps {
public:
  explicit Steps(herd::MetricsRegistry *Reg) : Reg(Reg) {}

  template <typename Fn> void operator()(std::string_view Name, Fn &&Body) {
    herd::Span S(Reg, Name, "layer");
    Clock::time_point T0 = Clock::now();
    Body();
    Times.emplace_back(Name, secondsSince(T0));
  }

  /// Seconds spent in steps called \p Name.
  double seconds(std::string_view Name) const;
  /// Seconds spent in all steps.
  double total() const;

private:
  herd::MetricsRegistry *Reg;
  std::vector<std::pair<std::string_view, double>> Times;
};

/// A live Full job up to its first event.  Members refer to each other
/// (the analysis and the interpreter hold the program), so it stays put.
struct LiveParts {
  herd::Program P;
  std::unique_ptr<herd::StaticRaceAnalysis> Races;
  herd::DetectorPlan Plan;
  herd::InstrumenterStats Instr;
  std::unique_ptr<herd::ThreadedCode> Shadow;
  std::unique_ptr<herd::RaceRuntime> Runtime;
  std::unique_ptr<herd::Interpreter> Interp;
};

/// Steps herd.copy, analysis.static, analysis.plan, instr.instrument,
/// instr.fuse and runtime.init (detection runtime and interpreter).
void liveSetup(const herd::Program &Input, const herd::ToolConfig &Config,
               Steps &S, LiveParts &Out);

/// Runs the Base job's execution (step runtime.base): the uninstrumented
/// program under \p Config's schedule seed, with no detector attached.
herd::InterpResult runBase(const herd::Program &Input,
                           const herd::ToolConfig &Config, Steps &S);

/// A replay job up to its first event.
struct ReplayParts {
  std::unique_ptr<herd::RaceRuntime> Serial;
  std::unique_ptr<herd::ShardedRuntime> Sharded;
  herd::TraceReader Reader;

  herd::RuntimeHooks &sink() {
    return Serial ? static_cast<herd::RuntimeHooks &>(*Serial) : *Sharded;
  }
  herd::RaceRuntimeStats stats() {
    return Serial ? Serial->stats() : Sharded->stats();
  }
};

/// Step runtime.init: the detection runtime and the opened trace at
/// \p TracePath.  Returns false when the trace cannot be opened.
bool replaySetup(const std::string &TracePath, const herd::ToolConfig &Config,
                 Steps &S, ReplayParts &Out);

} // namespace herdbench

#endif // HERDBENCH_STEPS_H
