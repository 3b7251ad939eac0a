//===- analysis/PointsTo.cpp - May points-to analysis ---------------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/PointsTo.h"

#include <cassert>

using namespace herd;

const ObjSet PointsToAnalysis::EmptySet;

namespace {

uint64_t packSiteField(AllocSiteId Site, FieldId Field) {
  return (uint64_t(Site.index()) << 32) | Field.index();
}

} // namespace

PointsToAnalysis::PointsToAnalysis(const Program &P) : P(P) {
  RegPts.resize(P.numMethods());
  for (size_t MI = 0; MI != P.numMethods(); ++MI)
    RegPts[MI].resize(P.method(MethodId(uint32_t(MI))).NumRegs);
  ReturnPts.resize(P.numMethods());
  StaticPts.resize(P.numFields());
  ElemPts.resize(P.numAllocSites());
  Reachable.assign(P.numMethods(), 0);
  RunThreadObjs.resize(P.numMethods());
}

const ObjSet &PointsToAnalysis::pointsTo(MethodId M, RegId Reg) const {
  if (!Reg.isValid() || Reg.index() >= RegPts[M.index()].size())
    return EmptySet;
  return RegPts[M.index()][Reg.index()];
}

const ObjSet &PointsToAnalysis::staticFieldPointsTo(FieldId Field) const {
  return StaticPts[Field.index()];
}

const ObjSet &PointsToAnalysis::fieldPointsTo(AllocSiteId Site,
                                              FieldId Field) const {
  auto It = FieldPts.find(packSiteField(Site, Field));
  return It == FieldPts.end() ? EmptySet : It->second;
}

const ObjSet &PointsToAnalysis::elementPointsTo(AllocSiteId Site) const {
  return ElemPts[Site.index()];
}

const ObjSet &PointsToAnalysis::threadObjectsOf(MethodId RunMethod) const {
  return RunThreadObjs[RunMethod.index()];
}

void PointsToAnalysis::forEachFieldPts(
    const std::function<void(AllocSiteId, FieldId, const ObjSet &)> &Fn)
    const {
  for (const auto &[Key, Set] : FieldPts) {
    if (Set.empty())
      continue;
    Fn(AllocSiteId(uint32_t(Key >> 32)), FieldId(uint32_t(Key)), Set);
  }
}

bool PointsToAnalysis::markReachable(MethodId M) {
  if (Reachable[M.index()])
    return false;
  Reachable[M.index()] = 1;
  return true;
}

bool PointsToAnalysis::applyInstr(MethodId M, const Instr &I) {
  std::vector<ObjSet> &Regs = RegPts[M.index()];
  bool Changed = false;
  switch (I.Op) {
  case Opcode::New:
  case Opcode::NewArray:
    Changed |= Regs[I.Dst.index()].insert(I.AllocSite);
    break;
  case Opcode::Move:
    Changed |= Regs[I.Dst.index()].unionWith(Regs[I.A.index()]);
    break;
  case Opcode::GetField:
    for (AllocSiteId Site : Regs[I.A.index()])
      Changed |=
          Regs[I.Dst.index()].unionWith(fieldPointsTo(Site, I.Field));
    break;
  case Opcode::PutField:
    for (AllocSiteId Site : Regs[I.A.index()])
      Changed |= FieldPts[packSiteField(Site, I.Field)].unionWith(
          Regs[I.B.index()]);
    break;
  case Opcode::GetStatic:
    Changed |= Regs[I.Dst.index()].unionWith(StaticPts[I.Field.index()]);
    break;
  case Opcode::PutStatic:
    Changed |= StaticPts[I.Field.index()].unionWith(Regs[I.A.index()]);
    break;
  case Opcode::ALoad:
    for (AllocSiteId Site : Regs[I.A.index()])
      Changed |= Regs[I.Dst.index()].unionWith(ElemPts[Site.index()]);
    break;
  case Opcode::AStore:
    for (AllocSiteId Site : Regs[I.A.index()])
      Changed |= ElemPts[Site.index()].unionWith(Regs[I.C.index()]);
    break;
  case Opcode::Call: {
    Changed |= markReachable(I.Callee);
    std::vector<ObjSet> &CalleeRegs = RegPts[I.Callee.index()];
    for (size_t N = 0; N != I.Args.size(); ++N)
      Changed |= CalleeRegs[N].unionWith(Regs[I.Args[N].index()]);
    if (I.Dst.isValid())
      Changed |= Regs[I.Dst.index()].unionWith(ReturnPts[I.Callee.index()]);
    break;
  }
  case Opcode::Return:
    if (I.A.isValid())
      Changed |= ReturnPts[M.index()].unionWith(Regs[I.A.index()]);
    break;
  case Opcode::ThreadStart:
    // The ICFG's start edge: starting an object of class C transfers the
    // thread object into C::run's `this`.
    for (AllocSiteId Site : Regs[I.A.index()]) {
      ClassId Cls = P.allocSite(Site).Class;
      if (!Cls.isValid())
        continue;
      MethodId Run = P.classDecl(Cls).RunMethod;
      if (!Run.isValid())
        continue;
      if (markReachable(Run)) {
        Changed = true;
        StartedRuns.push_back(Run);
      }
      Changed |= RegPts[Run.index()][0].insert(Site);
      Changed |= RunThreadObjs[Run.index()].insert(Site);
    }
    break;
  default:
    break;
  }
  return Changed;
}

void PointsToAnalysis::run() {
  assert(P.MainMethod.isValid() && "points-to requires a main method");
  markReachable(P.MainMethod);
  // Chaotic iteration over all reachable instructions until fixpoint; the
  // program sizes here (thousands of instructions) do not warrant a
  // worklist with dependency tracking.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t MI = 0; MI != P.numMethods(); ++MI) {
      if (!Reachable[MI])
        continue;
      MethodId M{uint32_t(MI)};
      for (const BasicBlock &Block : P.method(M).Blocks)
        for (const Instr &I : Block.Instrs)
          Changed |= applyInstr(M, I);
    }
  }
}
