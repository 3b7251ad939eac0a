//===- runtime/ThreadedCode.h - Superinstruction shadow code ----*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shadow code for the threaded interpreter (docs/INTERPRETER.md).
///
/// Superinstruction fusion never rewrites the verified IR.  Instead the
/// peephole pass (instr/Superinstr.h) produces a per-run *shadow copy* of
/// every method's blocks in which the head instruction of each fusible
/// sequence has its opcode replaced by a fused pseudo-opcode; the
/// constituent instructions stay at ip+1.. with all operand fields intact.
/// The threaded dispatch loop executes the shadow blocks; the switch
/// (reference) interpreter, the verifier, the printer and every analysis
/// keep seeing the original program, so fused opcodes can never leak into
/// IR, traces or reports.
///
/// Keeping constituents in place is also what makes partial execution
/// trivial: when a quantum ends (or a fault hits) mid-sequence, the thread
/// resumes at ip+k, which holds an ordinary instruction.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_RUNTIME_THREADEDCODE_H
#define HERD_RUNTIME_THREADEDCODE_H

#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace herd {

// Fused pseudo-opcodes.  Deliberately NOT members of the Opcode enum:
// every exhaustive switch over Opcode in the analyses stays exhaustive,
// and the verifier never has to reject values that cannot be constructed
// from a frontend.  The values extend the enum's underlying range just
// past Opcode::Trace; only shadow code ever stores them, and only the
// threaded dispatch table ever indexes by them.
static_assert(uint8_t(Opcode::Trace) == 22,
              "dispatch-table layout depends on the opcode numbering; "
              "update the fused constants and the threaded dispatch table");

/// Const feeding a BinOp (loop arithmetic: `i + 1`, `x * 2`).
constexpr Opcode OpFusedConstBinOp = Opcode(uint8_t(Opcode::Trace) + 1);
/// Const feeding a PutField (field initialization: `o.f = k`).
constexpr Opcode OpFusedConstPutField = Opcode(uint8_t(Opcode::Trace) + 2);
/// GetField; BinOp; PutField read-modify-write (`o.f = o.f + n`).
constexpr Opcode OpFusedGetBinPut = Opcode(uint8_t(Opcode::Trace) + 3);
/// BinOp feeding a conditional Branch (`if (i < n)` loop back-edges).
constexpr Opcode OpFusedBinOpBranch = Opcode(uint8_t(Opcode::Trace) + 4);
/// GetField feeding a BinOp (`o.f + n` without a PutField tail).
constexpr Opcode OpFusedGetFieldBinOp = Opcode(uint8_t(Opcode::Trace) + 5);
/// BinOp feeding a PutField (`o.f = a + b` computed stores).
constexpr Opcode OpFusedBinOpPutField = Opcode(uint8_t(Opcode::Trace) + 6);
/// BinOp feeding a Move (`x = a + b` into a named local).
constexpr Opcode OpFusedBinOpMove = Opcode(uint8_t(Opcode::Trace) + 7);

/// The access+trace family: an instrumented heap access and the Trace
/// observing it (Section 6.1's trace(o, f, L, a) right after the access).
/// One head opcode per access kind, in Opcode order, so the threaded loop
/// reaches each kind's executor without a second dispatch.
constexpr Opcode OpFusedGetFieldTrace = Opcode(uint8_t(Opcode::Trace) + 8);
constexpr Opcode OpFusedPutFieldTrace = Opcode(uint8_t(Opcode::Trace) + 9);
constexpr Opcode OpFusedGetStaticTrace = Opcode(uint8_t(Opcode::Trace) + 10);
constexpr Opcode OpFusedPutStaticTrace = Opcode(uint8_t(Opcode::Trace) + 11);
constexpr Opcode OpFusedALoadTrace = Opcode(uint8_t(Opcode::Trace) + 12);
constexpr Opcode OpFusedAStoreTrace = Opcode(uint8_t(Opcode::Trace) + 13);
static_assert(uint8_t(Opcode::AStore) - uint8_t(Opcode::GetField) == 5,
              "the access+trace heads mirror the six heap-access opcodes");

/// Size of the threaded dispatch table: all real opcodes plus the seven
/// fused pairs and the six access+trace heads.
constexpr size_t NumDispatchOpcodes = size_t(Opcode::Trace) + 14;

/// Returns true for a fused pseudo-opcode (shadow code only).
constexpr bool isFusedOpcode(Opcode Op) {
  return uint8_t(Op) > uint8_t(Opcode::Trace);
}

/// Returns true for a head of the access+trace family.
constexpr bool isAccessTraceOpcode(Opcode Op) {
  return uint8_t(Op) >= uint8_t(OpFusedGetFieldTrace) &&
         uint8_t(Op) <= uint8_t(OpFusedAStoreTrace);
}

/// The access+trace head for heap-access opcode \p Access (GetField ..
/// AStore).
constexpr Opcode accessTraceOpcode(Opcode Access) {
  return Opcode(uint8_t(OpFusedGetFieldTrace) +
                (uint8_t(Access) - uint8_t(Opcode::GetField)));
}

/// How many constituent instructions a fused opcode covers.
constexpr uint32_t fusedLength(Opcode Op) {
  return Op == OpFusedGetBinPut ? 3 : 2;
}

/// Printable mnemonic for a fused pseudo-opcode (stats output).
inline const char *fusedOpcodeName(Opcode Op) {
  if (Op == OpFusedConstBinOp)
    return "fused.const+binop";
  if (Op == OpFusedConstPutField)
    return "fused.const+putfield";
  if (Op == OpFusedGetBinPut)
    return "fused.get+binop+put";
  if (Op == OpFusedBinOpBranch)
    return "fused.binop+branch";
  if (Op == OpFusedGetFieldBinOp)
    return "fused.getfield+binop";
  if (Op == OpFusedBinOpPutField)
    return "fused.binop+putfield";
  if (Op == OpFusedBinOpMove)
    return "fused.binop+move";
  if (Op == OpFusedGetFieldTrace)
    return "fused.getfield+trace";
  if (Op == OpFusedPutFieldTrace)
    return "fused.putfield+trace";
  if (Op == OpFusedGetStaticTrace)
    return "fused.getstatic+trace";
  if (Op == OpFusedPutStaticTrace)
    return "fused.putstatic+trace";
  if (Op == OpFusedALoadTrace)
    return "fused.aload+trace";
  if (Op == OpFusedAStoreTrace)
    return "fused.astore+trace";
  return "?";
}

/// Plan-time fusion statistics: how many sequence heads the peephole pass
/// rewrote, per superinstruction kind (`herd --stats=json` "dispatch"),
/// plus the batch-retirement plan (how much straight-line code the
/// threaded loop may retire against the scheduler quantum in one go).
struct FusionStats {
  uint64_t ConstBinOpSites = 0;
  uint64_t ConstPutFieldSites = 0;
  uint64_t GetBinPutSites = 0;
  uint64_t BinOpBranchSites = 0;
  uint64_t GetFieldBinOpSites = 0;
  uint64_t BinOpPutFieldSites = 0;
  uint64_t BinOpMoveSites = 0;
  /// Instrumented accesses fused with their Trace (all six access kinds).
  uint64_t AccessTraceSites = 0;

  /// Blocks whose leading straight-line run qualifies for batched quantum
  /// retirement (length >= SuperinstrOptions::MinBatchLen; see
  /// ThreadedCode::BatchLens).
  uint64_t BatchBlocks = 0;
  /// Total instructions covered by those batchable prefixes.
  uint64_t BatchSteps = 0;

  uint64_t sites() const {
    return ConstBinOpSites + ConstPutFieldSites + GetBinPutSites +
           BinOpBranchSites + GetFieldBinOpSites + BinOpPutFieldSites +
           BinOpMoveSites + AccessTraceSites;
  }
};

/// Run-time fusion counters: how often each superinstruction executed its
/// full sequence without an intervening dispatch.  Zero under the switch
/// interpreter and under `--profile` (the profiled threaded variant runs
/// unfused so per-opcode dispatch counts stay exact).
struct FusedExecCounts {
  uint64_t ConstBinOp = 0;
  uint64_t ConstPutField = 0;
  uint64_t GetBinPut = 0;
  uint64_t BinOpBranch = 0;
  uint64_t GetFieldBinOp = 0;
  uint64_t BinOpPutField = 0;
  uint64_t BinOpMove = 0;
  /// Access+trace pairs run in one dispatch.  Each one delivered exactly
  /// one access event, so this never exceeds InterpResult::AccessEvents.
  uint64_t AccessTrace = 0;

  uint64_t total() const {
    return ConstBinOp + ConstPutField + GetBinPut + BinOpBranch +
           GetFieldBinOp + BinOpPutField + BinOpMove + AccessTrace;
  }
};

/// The shadow program: one vector of blocks per method, mirroring the
/// Program it was built from instruction-for-instruction except for fused
/// head opcodes.  Build with buildThreadedCode (instr/Superinstr.h) AFTER
/// instrumentation, and keep it alive for the interpreter's whole run.
struct ThreadedCode {
  std::vector<std::vector<BasicBlock>> MethodBlocks; ///< [method][block]

  /// BatchLens[method][block] is the length of the block's *batchable
  /// prefix*: the maximal leading run of straight-line instructions that
  /// provably cannot end a slice, which the threaded loop retires
  /// against the scheduler quantum as one unit — it marks where the
  /// prefix ends and skips the per-step quantum test until then
  /// (docs/INTERPRETER.md).  The prefix stops at the first instruction
  /// that can end a slice or transfer control (calls, branches,
  /// monitors, thread ops, Yield), at any Trace, and at any heap access
  /// a Trace instruments, fused with it or not — those always retire per
  /// step, so schedules stay byte-identical.  A fused head counts all its
  /// constituents.
  /// Prefixes shorter than SuperinstrOptions::MinBatchLen are reported
  /// as zero; zero means "no batch for this block".
  std::vector<std::vector<uint32_t>> BatchLens; ///< [method][block]

  FusionStats Stats;
};

} // namespace herd

#endif // HERD_RUNTIME_THREADEDCODE_H
