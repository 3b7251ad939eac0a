//===- tests/RaceRecords.h - Order-independent race-record sets -*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical race-record set the differential tests compare: serial
/// reports come in program order, sharded ones in shard order, so runs
/// are compared as multisets of encoded records.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_TESTS_RACERECORDS_H
#define HERD_TESTS_RACERECORDS_H

#include "detect/RaceReport.h"

#include <set>
#include <sstream>
#include <string>

namespace herd {
namespace testprogs {

/// Every record of \p Reporter, each encoded with every field that reaches
/// a user-visible report.
inline std::multiset<std::string> canonicalRecords(const RaceReporter &Reporter) {
  std::multiset<std::string> Out;
  for (const RaceRecord &Rec : Reporter.records()) {
    std::ostringstream S;
    S << Rec.Location.raw() << '|' << Rec.CurrentThread.index() << '|'
      << int(Rec.CurrentAccess) << '|' << Rec.CurrentSite.index() << '|';
    for (LockId L : Reporter.locks(Rec.CurrentLocks))
      S << L.index() << ',';
    S << '|' << Rec.PriorThreadKnown << '|'
      << (Rec.PriorThreadKnown ? Rec.PriorThread.index() : 0) << '|'
      << int(Rec.PriorAccess) << '|';
    for (LockId L : Reporter.locks(Rec.PriorLocks))
      S << L.index() << ',';
    Out.insert(S.str());
  }
  return Out;
}

} // namespace testprogs
} // namespace herd

#endif // HERD_TESTS_RACERECORDS_H
