//===- instr/Superinstr.cpp - Superinstruction peephole pass --------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//

#include "instr/Superinstr.h"

using namespace herd;

namespace {

/// True when \p Def's result register feeds \p Use as a BinOp operand.
bool feedsBinOp(const Instr &Def, const Instr &Use) {
  return Use.A == Def.Dst || Use.B == Def.Dst;
}

/// True for the PEI arithmetic (division by zero): these never fuse, so
/// the exception boundary stays a dispatch boundary.
bool isPeiBinOp(const Instr &I) {
  return I.BinKind == BinOpKind::Div || I.BinKind == BinOpKind::Mod;
}

/// True when the instruction after \p Idx in \p Instrs is the Trace that
/// instruments the access at \p Idx (instrumentation inserts traces
/// immediately after the access they observe).
bool accessIsInstrumented(const std::vector<Instr> &Instrs, size_t Idx) {
  return Idx + 1 < Instrs.size() && Instrs[Idx + 1].Op == Opcode::Trace;
}

/// True for the six heap-access opcodes.  One whose following Trace marks
/// it as instrumented retires per step, so the hook event lands at exactly
/// the per-step accounting point.
bool isHeapAccess(Opcode Op) {
  switch (Op) {
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::GetStatic:
  case Opcode::PutStatic:
  case Opcode::ALoad:
  case Opcode::AStore:
    return true;
  default:
    return false;
  }
}

/// True when \p T is a Trace observing exactly the location heap access
/// \p A touches: same base register (or class), field and access kind.
/// The fused handler builds the trace's key from what the access resolved,
/// so it relies on this mirror (instr/TraceInsertion.cpp makeTraceFor).
bool tracesAccess(const Instr &A, const Instr &T) {
  if (T.Op != Opcode::Trace)
    return false;
  bool Write = A.Op == Opcode::PutField || A.Op == Opcode::PutStatic ||
               A.Op == Opcode::AStore;
  if (T.Access != (Write ? AccessKind::Write : AccessKind::Read))
    return false;
  switch (A.Op) {
  case Opcode::GetField:
  case Opcode::PutField:
    return T.TraceWhat == TraceWhatKind::Field && T.A == A.A &&
           T.Field == A.Field;
  case Opcode::GetStatic:
  case Opcode::PutStatic:
    return T.TraceWhat == TraceWhatKind::Static && T.Class == A.Class &&
           T.Field == A.Field;
  default: // ALoad, AStore
    return T.TraceWhat == TraceWhatKind::Array && T.A == A.A;
  }
}

/// Tries to match a fusible sequence headed at \p Idx; returns the fused
/// opcode and sets \p Len, or Opcode::Trace (sentinel: never a valid head
/// rewrite) when nothing matches.
Opcode matchAt(const std::vector<Instr> &Instrs, size_t Idx, uint32_t &Len) {
  const Instr &A = Instrs[Idx];

  // Access, Trace — an instrumented heap access and the trace observing
  // it, one unit.  No other pattern may claim either of them: the access
  // heads no other sequence (its successor is the Trace) and ends none
  // (the accessIsInstrumented guards below).
  if (isHeapAccess(A.Op) && Idx + 1 < Instrs.size() &&
      tracesAccess(A, Instrs[Idx + 1])) {
    Len = 2;
    return accessTraceOpcode(A.Op);
  }

  // GetField, BinOp, PutField — the read-modify-write triple.
  if (A.Op == Opcode::GetField && Idx + 2 < Instrs.size()) {
    const Instr &B = Instrs[Idx + 1];
    const Instr &C = Instrs[Idx + 2];
    if (B.Op == Opcode::BinOp && !isPeiBinOp(B) && feedsBinOp(A, B) &&
        C.Op == Opcode::PutField && C.B == B.Dst &&
        !accessIsInstrumented(Instrs, Idx + 2)) {
      Len = 3;
      return OpFusedGetBinPut;
    }
  }

  // GetField, BinOp — field read feeding arithmetic with no PutField
  // tail (checked after the 3-length triple so the greedy matcher always
  // prefers the longer sequence).  An instrumented GetField can never
  // match: its following instruction is the Trace, not a BinOp.
  if (A.Op == Opcode::GetField && Idx + 1 < Instrs.size()) {
    const Instr &B = Instrs[Idx + 1];
    if (B.Op == Opcode::BinOp && !isPeiBinOp(B) && feedsBinOp(A, B)) {
      Len = 2;
      return OpFusedGetFieldBinOp;
    }
  }

  if (A.Op == Opcode::Const && Idx + 1 < Instrs.size()) {
    const Instr &B = Instrs[Idx + 1];
    // Const, BinOp — loop/index arithmetic.
    if (B.Op == Opcode::BinOp && !isPeiBinOp(B) && feedsBinOp(A, B)) {
      Len = 2;
      return OpFusedConstBinOp;
    }
    // Const, PutField — constant stores.
    if (B.Op == Opcode::PutField && B.B == A.Dst &&
        !accessIsInstrumented(Instrs, Idx + 1)) {
      Len = 2;
      return OpFusedConstPutField;
    }
  }

  if (A.Op == Opcode::BinOp && !isPeiBinOp(A) && Idx + 1 < Instrs.size()) {
    const Instr &B = Instrs[Idx + 1];
    // BinOp, Branch — the compare-and-branch back-edge of every counted
    // loop; the dominant pair in all replica histograms.
    if (B.Op == Opcode::Branch && B.A == A.Dst) {
      Len = 2;
      return OpFusedBinOpBranch;
    }
    // BinOp, PutField — computed stores (`o.f = a + b`).
    if (B.Op == Opcode::PutField && B.B == A.Dst &&
        !accessIsInstrumented(Instrs, Idx + 1)) {
      Len = 2;
      return OpFusedBinOpPutField;
    }
    // BinOp, Move — arithmetic result copied to a named local.
    if (B.Op == Opcode::Move && B.A == A.Dst) {
      Len = 2;
      return OpFusedBinOpMove;
    }
  }

  return Opcode::Trace;
}

/// True when one dynamic execution of \p Op always advances the pc by one
/// and can only Continue or Fault — never block, yield, finish, or
/// transfer control.  Only such instructions may join a retirement batch:
/// a fault refunds the unexecuted tail, and nothing else about the
/// scheduler's view of the slice can differ from per-step accounting.
bool isBatchable(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
  case Opcode::Move:
  case Opcode::BinOp: // Div/Mod fault via the refund path
  case Opcode::New:
  case Opcode::NewArray:
  case Opcode::ArrayLen:
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::GetStatic:
  case Opcode::PutStatic:
  case Opcode::ALoad:
  case Opcode::AStore:
  case Opcode::Print:
    return true;
  default:
    // Call/Branch/Jump/Return transfer control; monitors, thread ops and
    // Yield can end the slice; Trace is instrumentation and stays a
    // per-step unit with the access it observes.
    return false;
  }
}

/// True when every constituent of the fused opcode is batchable.
/// FusedBinOpBranch carries a control transfer in its tail, and an
/// access+trace head is an instrumented access, so neither can join a
/// batch; every other superinstruction's constituents are straight-line
/// and uninstrumented by the fusion rules.
bool fusedIsBatchable(Opcode Op) {
  return Op != OpFusedBinOpBranch && !isAccessTraceOpcode(Op);
}

/// Length of the block's batchable prefix (see ThreadedCode::BatchLens).
/// Prefixes shorter than \p MinLen are reported as 0: derived accounting
/// already retires per-step runs at the hot path's floor cost, so a
/// short batch cannot recoup its block-entry test
/// (SuperinstrOptions::MinBatchLen).
uint32_t batchablePrefixLen(const std::vector<Instr> &Instrs,
                            uint32_t MinLen) {
  size_t N = 0;
  while (N < Instrs.size()) {
    const Instr &I = Instrs[N];
    if (isFusedOpcode(I.Op)) {
      if (!fusedIsBatchable(I.Op))
        break;
      N += fusedLength(I.Op);
      continue;
    }
    if (!isBatchable(I.Op))
      break;
    if (isHeapAccess(I.Op) && accessIsInstrumented(Instrs, N))
      break;
    ++N;
  }
  return N >= MinLen && N >= 2 ? uint32_t(N) : 0;
}

} // namespace

ThreadedCode herd::buildThreadedCode(const Program &P,
                                     const SuperinstrOptions &Opts) {
  ThreadedCode TC;
  TC.MethodBlocks.resize(P.numMethods());
  TC.BatchLens.resize(P.numMethods());
  for (size_t M = 0; M != P.numMethods(); ++M) {
    TC.MethodBlocks[M] = P.method(MethodId(uint32_t(M))).Blocks;
    if (Opts.Fuse) {
      for (BasicBlock &Block : TC.MethodBlocks[M]) {
        std::vector<Instr> &Instrs = Block.Instrs;
        // The terminator can never head a sequence, and matchAt never
        // looks past the block, so patterns cannot straddle a control
        // edge.
        for (size_t Idx = 0; Idx + 1 < Instrs.size();) {
          uint32_t Len = 0;
          Opcode Fused = matchAt(Instrs, Idx, Len);
          if (Fused == Opcode::Trace) {
            ++Idx;
            continue;
          }
          Instrs[Idx].Op = Fused;
          if (Fused == OpFusedConstBinOp)
            ++TC.Stats.ConstBinOpSites;
          else if (Fused == OpFusedConstPutField)
            ++TC.Stats.ConstPutFieldSites;
          else if (Fused == OpFusedGetBinPut)
            ++TC.Stats.GetBinPutSites;
          else if (Fused == OpFusedBinOpBranch)
            ++TC.Stats.BinOpBranchSites;
          else if (Fused == OpFusedGetFieldBinOp)
            ++TC.Stats.GetFieldBinOpSites;
          else if (Fused == OpFusedBinOpPutField)
            ++TC.Stats.BinOpPutFieldSites;
          else if (Fused == OpFusedBinOpMove)
            ++TC.Stats.BinOpMoveSites;
          else
            ++TC.Stats.AccessTraceSites;
          // Constituents can never also head another sequence:
          // overlapping superinstructions would execute shared
          // constituents twice.
          Idx += Len;
        }
      }
    }
    // Batch planning runs over the FUSED shadow so fused heads count all
    // their constituents and a batch never ends mid-sequence.
    std::vector<uint32_t> &Lens = TC.BatchLens[M];
    Lens.assign(TC.MethodBlocks[M].size(), 0);
    if (Opts.Batch) {
      for (size_t B = 0; B != TC.MethodBlocks[M].size(); ++B) {
        Lens[B] = batchablePrefixLen(TC.MethodBlocks[M][B].Instrs,
                                     Opts.MinBatchLen);
        if (Lens[B] > 0) {
          ++TC.Stats.BatchBlocks;
          TC.Stats.BatchSteps += Lens[B];
        }
      }
    }
  }
  return TC;
}
