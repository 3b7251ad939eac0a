//===- analysis/PointsTo.h - May points-to analysis -------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flow-insensitive, whole-program may points-to analysis of
/// Section 5.3.  A distinct abstract object is created per allocation site;
/// the analysis computes, for each register, field and array, the set of
/// abstract objects it may point to along some path.
///
/// Reachability is computed in the same fixpoint: direct calls from
/// reachable methods make the callee reachable, and ThreadStart on a
/// register makes the run() methods of its points-to classes reachable
/// (the ICFG's interthread start edges, Section 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_ANALYSIS_POINTSTO_H
#define HERD_ANALYSIS_POINTSTO_H

#include "ir/Program.h"
#include "support/SortedIdSet.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace herd {

/// A set of abstract objects (allocation sites).
using ObjSet = SortedIdSet<AllocSiteId>;

/// Whole-program may points-to facts.
class PointsToAnalysis {
public:
  explicit PointsToAnalysis(const Program &P);

  /// Runs to fixpoint; must be called once before queries.
  void run();

  /// MayPT of register \p Reg in method \p M (flow-insensitive: one set per
  /// register over the whole method).
  const ObjSet &pointsTo(MethodId M, RegId Reg) const;

  const ObjSet &staticFieldPointsTo(FieldId Field) const;
  const ObjSet &fieldPointsTo(AllocSiteId Site, FieldId Field) const;
  const ObjSet &elementPointsTo(AllocSiteId Site) const;

  /// Methods reachable from main, including started run() methods.
  bool isMethodReachable(MethodId M) const {
    return Reachable[M.index()] != 0;
  }

  /// run() methods that some ThreadStart may invoke: the thread-root nodes
  /// of the ICFG (besides main).
  const std::vector<MethodId> &startedRunMethods() const {
    return StartedRuns;
  }

  /// Thread abstract objects that may be started through each run method.
  const ObjSet &threadObjectsOf(MethodId RunMethod) const;

  /// Visits every non-empty (site, field) points-to set.  Used by the
  /// escape analysis to close over heap reachability.
  void forEachFieldPts(
      const std::function<void(AllocSiteId, FieldId, const ObjSet &)> &Fn)
      const;

private:
  bool applyInstr(MethodId M, const Instr &I);
  bool markReachable(MethodId M);

  const Program &P;
  std::vector<std::vector<ObjSet>> RegPts;      ///< [method][reg]
  std::vector<ObjSet> ReturnPts;                ///< [method]
  std::vector<ObjSet> StaticPts;                ///< [field]
  std::unordered_map<uint64_t, ObjSet> FieldPts; ///< (site, field) packed
  std::vector<ObjSet> ElemPts;                  ///< [alloc site]
  std::vector<uint8_t> Reachable;               ///< [method]
  std::vector<MethodId> StartedRuns;
  std::vector<ObjSet> RunThreadObjs;            ///< [method]
  static const ObjSet EmptySet;
};

} // namespace herd

#endif // HERD_ANALYSIS_POINTSTO_H
