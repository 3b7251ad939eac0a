//===- analysis/SyncAnalysis.h - MustCommonSync -----------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MustSync computation of Section 5.3, Equation 4, at statement
/// granularity.
///
/// MustSync(s) is the set of abstract synchronization objects *always* held
/// when s executes: the intersection, over all reachable call chains, of
/// the must points-to sets of the enclosing synchronized regions.  The
/// paper expresses this as a dataflow over the interthread call graph whose
/// nodes are methods and synchronized blocks; we factor it equivalently
/// into (a) a per-method *context* — locks always held at every reachable
/// call site of the method (intersection meet; thread roots get the empty
/// context since start edges carry no locks) — and (b) the locally
/// enclosing monitor regions of the statement.  Only must (singleton,
/// single-instance) points-to facts may be used: a may approximation would
/// be unsound for the negated MustCommonSync conjunct (Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef HERD_ANALYSIS_SYNCANALYSIS_H
#define HERD_ANALYSIS_SYNCANALYSIS_H

#include "analysis/PointsTo.h"
#include "analysis/SingleInstance.h"
#include "ir/InstrRef.h"
#include "ir/Program.h"

#include <unordered_map>
#include <vector>

namespace herd {

class SyncAnalysis {
public:
  SyncAnalysis(const Program &P, const PointsToAnalysis &PT,
               const SingleInstanceAnalysis &SI);

  void run();

  /// MustSync(s): abstract objects always locked when \p Ref executes.
  /// Only meaningful for reachable statements.
  const ObjSet &mustSync(const InstrRef &Ref) const;

  /// Equation 4: the two statements always hold a common lock.
  bool mustCommonSync(const InstrRef &A, const InstrRef &B) const {
    return mustSync(A).intersects(mustSync(B));
  }

private:
  const Program &P;
  const PointsToAnalysis &PT;
  const SingleInstanceAnalysis &SI;

  /// Locks always held on entry to each method (the ICG dataflow's SO_in of
  /// the method node); ⊤ is encoded as "not yet constrained".
  std::vector<ObjSet> Context;     ///< [method]
  std::vector<uint8_t> ContextTop; ///< [method] 1 = unconstrained (⊤)

  std::unordered_map<InstrRef, ObjSet> PerInstr;
  static const ObjSet EmptySet;
};

} // namespace herd

#endif // HERD_ANALYSIS_SYNCANALYSIS_H
