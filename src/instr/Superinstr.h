//===- instr/Superinstr.h - Superinstruction peephole pass ------*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan-time peephole pass that builds superinstruction shadow code
/// (runtime/ThreadedCode.h) for the threaded interpreter.
///
/// The pass scans each basic block of the instrumented program for the
/// hot sequences the `--profile` adjacent-pair histograms surface and
/// rewrites the head instruction's opcode in a shadow copy of the block:
///
///   Const, BinOp                  -> FusedConstBinOp      (len 2)
///   Const, PutField               -> FusedConstPutField   (len 2)
///   GetField, BinOp, PutField     -> FusedGetBinPut       (len 3)
///   BinOp, Branch                 -> FusedBinOpBranch     (len 2)
///   GetField, BinOp               -> FusedGetFieldBinOp   (len 2)
///   BinOp, PutField               -> FusedBinOpPutField   (len 2)
///   BinOp, Move                   -> FusedBinOpMove       (len 2)
///   <access>, Trace               -> Fused<access>Trace   (len 2)
///
/// where <access> is any of GetField, PutField, GetStatic, PutStatic,
/// ALoad and AStore, and the Trace observes exactly that access (the
/// access+trace family, counted as one in FusionStats::AccessTraceSites).
///
/// The greedy matcher tries the access+trace pair first, then longer
/// patterns before shorter ones at each head (the GetField triple before
/// the GetField pair), and never lets sequences overlap, so each
/// constituent executes exactly once.
///
/// Fusion rules (pinned by tests/instr_test.cpp):
///
///  * Straight-line only: patterns never span blocks, and MiniJ jumps
///    target blocks, never intra-block positions, so no fused constituent
///    can be a branch target.
///  * Dataflow-fed: the Const/GetField result must feed the next
///    constituent (BinOp operand / PutField stored value), so a
///    superinstruction is a real dependent sequence, not two unrelated
///    neighbors.
///  * Exception boundary: Div/Mod BinOps (the PEI arithmetic) never fuse.
///    Heap-access constituents are PEIs by nature and MAY fuse: the
///    threaded interpreter executes constituents sequentially with full
///    per-instruction accounting, so a mid-sequence fault leaves exactly
///    the state the unfused code would.
///  * Instrumented-access boundary: an access and its Trace fuse as one
///    unit, and nothing else fuses across them.  The Trace is the
///    instrumentation for that access (Section 6.1 inserts traces AFTER
///    the access); the pair keeps both constituents' per-step
///    accounting, so the hook event lands exactly where the unfused pair
///    delivers it, and no other sequence may end at an instrumented
///    access.
///
/// The pass also plans *batched quantum retirement*: for every shadow
/// block it records the length of the leading straight-line run the
/// threaded loop may retire against the scheduler quantum as one unit,
/// skipping the per-step quantum test until the prefix ends
/// (ThreadedCode::BatchLens).  Instructions that can end a
/// slice or transfer control, Trace instructions, and accesses a Trace
/// instruments (fused with it or not) are never part of a batch, so
/// per-step accounting — and with it the byte-identical schedule — is
/// preserved exactly where it is observable.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_INSTR_SUPERINSTR_H
#define HERD_INSTR_SUPERINSTR_H

#include "ir/Program.h"
#include "runtime/ThreadedCode.h"

namespace herd {

/// Options for shadow-code construction.
struct SuperinstrOptions {
  /// When false, the shadow copy is built without any fusion (threaded
  /// dispatch over verbatim code) — the A/B ablation lever.
  bool Fuse = true;

  /// Minimum batchable-prefix length worth planning; shorter prefixes
  /// are reported as zero.  The threaded loop's derived accounting
  /// already retires a per-step run at one compare + one decrement per
  /// instruction, so entering a batch only pays for itself when the
  /// prefix is long enough to amortize the block-entry batch test;
  /// short-block loops must fail that test on its first compare.
  /// Measured crossover on the hotpath suite sits around a dozen steps.
  uint32_t MinBatchLen = 12;
};

/// Builds threaded-dispatch shadow code for \p P (which must already be
/// in its final, post-instrumentation form).  The returned object must
/// outlive every Interpreter run that uses it.
ThreadedCode buildThreadedCode(const Program &P,
                               const SuperinstrOptions &Opts = {});

} // namespace herd

#endif // HERD_INSTR_SUPERINSTR_H
