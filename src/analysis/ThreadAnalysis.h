//===- analysis/ThreadAnalysis.h - MustSameThread ---------------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MustSameThread computation of Section 5.3, Equation 3.
///
/// ThStart(u) is the set of thread-root nodes (main, plus every started
/// run()) from which an *intrathread* ICFG path — i.e. a chain of ordinary
/// calls, never a start edge — reaches u's method.  MustThread(u) is the
/// intersection over those roots of the must points-to of the root's
/// `this`; main gets a synthetic main-thread abstract object.  Two
/// statements must execute on the same thread when their MustThread sets
/// intersect.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_ANALYSIS_THREADANALYSIS_H
#define HERD_ANALYSIS_THREADANALYSIS_H

#include "analysis/PointsTo.h"
#include "analysis/SingleInstance.h"
#include "ir/Program.h"

#include <vector>

namespace herd {

class ThreadAnalysis {
public:
  /// The synthetic abstract object for the initial (main) thread.
  static AllocSiteId mainThreadObject() { return AllocSiteId(0xFFFFFF00); }

  ThreadAnalysis(const Program &P, const PointsToAnalysis &PT,
                 const SingleInstanceAnalysis &SI);

  void run();

  /// Equation 3: statements in \p A and \p B are always executed by the
  /// same thread.
  bool mustSameThread(MethodId A, MethodId B) const {
    return MustThreadSets[A.index()].intersects(MustThreadSets[B.index()]);
  }

private:
  const Program &P;
  const PointsToAnalysis &PT;
  const SingleInstanceAnalysis &SI;
  std::vector<ObjSet> MustThreadSets; ///< [method]
};

} // namespace herd

#endif // HERD_ANALYSIS_THREADANALYSIS_H
