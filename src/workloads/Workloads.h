//===- workloads/Workloads.h - Benchmark program replicas -------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniJ replicas of the paper's Table 1 benchmarks.  The originals
/// (SPECJVM98 mtrt and the ETH tsp / sor2 / elevator / hedc programs) are
/// Java programs we do not have; each replica reproduces the *sharing and
/// synchronization structure* that drives the paper's results:
///
///   mtrt     — two render threads over a read-only scene; the real races
///              on RayTrace.threadCount and the output stream's
///              startOfLine flag; I/O statistics accessed by the children
///              under a common lock and by the parent after join (the
///              Eraser-spurious idiom of Section 8.3); plenty of
///              thread-local scratch allocation so the static phase
///              matters (NoStatic exploded on mtrt).
///   tsp      — recursive branch-and-bound with a genuine race on the
///              shared MinTourLen bound, plus TourElement objects guarded
///              by higher-level (queue handoff) synchronization that the
///              detector cannot see — the paper's feasible-but-benign
///              reports.  Deep call chains make the cache essential
///              (NoCache was 3722% on tsp).
///   sor2     — red/black successive over-relaxation with a spin barrier;
///              array subscripts hoisted out of inner loops exactly as
///              the paper's hand-modified sor2, which is what lets the
///              dominator/peeling optimizations remove the array traces
///              (NoDominators was 316%, NoPeeling 226% on sor2).
///   elevator — a discrete-event simulator with fully correct locking:
///              zero races with ownership, many spurious ones without.
///   hedc     — a task-pool web-crawler kernel: unsynchronized pool-size
///              updates and the Task.thread_ null-out race (both real),
///              plus LinkedQueue/MetaSearchRequest objects with per-field
///              disciplines that FieldsMerged conflates.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_WORKLOADS_WORKLOADS_H
#define HERD_WORKLOADS_WORKLOADS_H

#include "ir/Program.h"

#include <string>
#include <vector>

namespace herd {

/// A benchmark replica plus the metadata Table 1 reports.
struct Workload {
  std::string Name;
  std::string Description;
  Program P;
  uint32_t DynamicThreads = 0;  ///< including main
  bool CpuBound = true;         ///< elevator/hedc are interactive in the
                                ///< paper and excluded from Table 2
  /// Objects expected to be reported by the Full configuration (the
  /// Table 3 "Full" column of the replica, validated by tests).
  size_t ExpectedRacyObjectsFull = 0;
};

Workload buildMtrt(uint32_t Scale = 1);
Workload buildTsp(uint32_t Scale = 1);
Workload buildSor2(uint32_t Scale = 1);
Workload buildElevator(uint32_t Scale = 1);
Workload buildHedc(uint32_t Scale = 1);

/// All five, in the paper's Table 1 order.
std::vector<Workload> buildAllWorkloads(uint32_t Scale = 1);

} // namespace herd

#endif // HERD_WORKLOADS_WORKLOADS_H
