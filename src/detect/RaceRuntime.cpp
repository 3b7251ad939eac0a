//===- detect/RaceRuntime.cpp - Hooks-to-detector glue --------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/RaceRuntime.h"

using namespace herd;

template class herd::AccessFrontEnd<RaceRuntime>;

RaceRuntime::RaceRuntime(RaceRuntimeOptions Opts)
    : AccessFrontEnd(Opts),
      Det(Reporter, Detector::Options{Opts.UseOwnership}, &Interner) {
  Det.applyPlan(Opts.Plan);
  Det.setOnShared(
      [this](LocationKey Key, ThreadId Owner) { evictShared(Key, Owner); });
}

RaceRuntime::~RaceRuntime() = default;

RaceRuntimeStats RaceRuntime::stats() const {
  RaceRuntimeStats S = frontEndStats();
  S.Detector = Det.stats();
  return S;
}
