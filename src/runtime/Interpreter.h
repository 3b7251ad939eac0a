//===- runtime/Interpreter.h - Deterministic MiniJ interpreter --*- C++ -*-==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, cooperatively scheduled interpreter for MiniJ programs.
///
/// Threads are simulated: the interpreter round-robins over runnable
/// threads, preempting after a pseudo-random quantum drawn from a seeded
/// generator.  The same seed therefore replays the identical interleaving,
/// which makes race reports and the Table 2/3 experiments reproducible —
/// the role DejaVu record/replay plays for the paper's prototype
/// (Section 2.6).
///
/// The interpreter reports synchronization operations and traced accesses
/// through RuntimeHooks; it is otherwise oblivious to race detection.
///
//===----------------------------------------------------------------------===//

#ifndef HERD_RUNTIME_INTERPRETER_H
#define HERD_RUNTIME_INTERPRETER_H

#include "ir/Program.h"
#include "runtime/Heap.h"
#include "runtime/Hooks.h"
#include "runtime/ThreadedCode.h"
#include "runtime/Value.h"
#include "support/Rng.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace herd {

class InterpProfiler;
class AccessCache;
class RaceRuntime;
class ShardedRuntime;

/// How the inner loop dispatches instructions (`herd --dispatch=...`,
/// docs/INTERPRETER.md).  Switch is the reference semantics: one switch
/// per step over the original program.  Threaded runs whole scheduling
/// quanta handler-to-handler (computed goto where available) over shadow
/// code with superinstructions and a compiled-out no-hook lane.  Both
/// modes execute byte-identical semantics — schedules, race reports and
/// output match exactly (pinned by tests/dispatch_differential_test.cpp).
enum class DispatchMode : uint8_t {
  Switch,   ///< reference: per-step switch over original code
  Threaded, ///< fast path: threaded dispatch + superinstructions
};

/// Printable name for a dispatch mode ("switch" / "threaded").
const char *dispatchModeName(DispatchMode Mode);

/// A recorded schedule: the exact sequence of (thread, retired
/// instructions) slices of one run.  Plays the role of the DejaVu
/// record/replay tool in the paper's debugging workflow (Section 2.6):
/// detection runs alongside recording, and the expensive FullRace
/// reconstruction happens during replay of the identical interleaving.
struct ScheduleTrace {
  struct Slice {
    uint32_t ThreadIndex;
    uint32_t Steps; ///< instructions actually retired in the slice
  };
  std::vector<Slice> Slices;
};

/// Execution options.
struct InterpOptions {
  /// Seed for the scheduling generator; same seed => same interleaving.
  uint64_t Seed = 1;

  /// Maximum instructions a thread runs before a preemption point.
  uint32_t MaxQuantum = 40;

  /// Fuel limit: total instructions before the run is aborted (guards
  /// against accidentally divergent workloads).
  uint64_t MaxInstructions = 500'000'000;

  /// When true, the interpreter synthesizes an access event at every heap
  /// access, independent of Trace instrumentation.  Used by the baseline
  /// detectors and by the oracle tests, which need the full event stream.
  bool TraceEveryAccess = false;

  /// When set, the executed schedule is appended here (DejaVu-style
  /// recording).
  ScheduleTrace *Record = nullptr;

  /// When set, scheduling decisions are taken from this trace instead of
  /// the seeded generator, reproducing a recorded run exactly.  The
  /// program must be the same one that was recorded; divergence is a
  /// runtime error.
  const ScheduleTrace *Replay = nullptr;

  /// When set, every dispatch is counted and a 1-in-N sample of them is
  /// timed (`herd --profile`).  Profiling never changes execution
  /// semantics; a null profiler costs one predictable branch per step.
  /// Under threaded dispatch the profiled variant runs the original
  /// (unfused) code so per-opcode counts stay exact per constituent.
  InterpProfiler *Profiler = nullptr;

  /// Inner-loop dispatch strategy.  The default is the threaded fast
  /// path; builds configured with -DHERD_DEFAULT_DISPATCH_SWITCH=ON (the
  /// CI reference leg) default to the switch interpreter instead.
#ifdef HERD_DEFAULT_DISPATCH_SWITCH
  DispatchMode Dispatch = DispatchMode::Switch;
#else
  DispatchMode Dispatch = DispatchMode::Threaded;
#endif

  /// Optional superinstruction shadow code (instr/Superinstr.h), built
  /// from the SAME program after instrumentation.  Used only by threaded
  /// dispatch without a profiler; null runs threaded dispatch over the
  /// original blocks.  The caller keeps it alive for the whole run.
  const ThreadedCode *Fused = nullptr;

  /// Devirtualized delivery (docs/HOOKPATH.md): when one of these is set,
  /// traced accesses bypass the virtual RuntimeHooks::onAccess hop.  The
  /// interpreter probes the running thread's Section 4 cache inline and
  /// calls the concrete runtime only on a miss.  The pipeline sets at most
  /// one, and only when the detection runtime is the sole access sink (no
  /// recorder, no deadlock detector, no profiler): every other sink would
  /// miss the accesses the probe absorbs.  All non-access events still
  /// flow through the normal Hooks pointer, which must reference the same
  /// runtime.
  RaceRuntime *SerialSink = nullptr;
  ShardedRuntime *ShardedSink = nullptr;
};

/// The outcome of a run.
struct InterpResult {
  bool Ok = false;
  std::string Error;                ///< non-empty when !Ok
  std::vector<int64_t> Output;      ///< values printed by Print
  uint64_t InstructionsExecuted = 0;
  uint64_t AccessEvents = 0;        ///< events delivered to hooks
  uint64_t ContextSwitches = 0;
  uint32_t ThreadsCreated = 0;

  /// How often each superinstruction ran its full sequence (threaded
  /// dispatch with shadow code only; always zero under switch dispatch).
  /// Excluded from cross-mode equivalence: it describes how the work was
  /// dispatched, not what the program did.
  FusedExecCounts Fused;

  /// Batched quantum retirement counters (threaded dispatch with shadow
  /// code only; zero under switch dispatch).  Like Fused, these describe
  /// how accounting was performed, not what the program did, and are
  /// excluded from cross-mode equivalence.
  uint64_t BlockRetireHits = 0;   ///< straight-line batches entered
  uint64_t BlockRetiredSteps = 0; ///< instructions retired through batches
};

/// Interprets one program once.  Construct, call run(), inspect the result;
/// the heap remains available afterwards for tests that want to examine
/// final object state.
class Interpreter {
public:
  /// Resource limits (docs/MINIJ.md): a run that crosses one faults with a
  /// runtime error instead of exhausting the machine's memory.  The heap
  /// budget charges every New/NewArray its object header plus its slots;
  /// the call depth bounds each thread's frame stack; herd::MaxThreads
  /// (support/Ids.h) bounds the threads a run starts.  The largest replica
  /// at the largest scale any bench runs (mtrt at 250) peaks at ~2.6 MiB.
  static constexpr uint64_t MaxHeapBytes = uint64_t(64) << 20;
  static constexpr uint32_t MaxCallDepth = 100'000;

  // A lock id is its object's index, and the budget charges every object
  // at least its header (class-statics objects, one per class, aside): a
  // run allocates about 1.4M objects at most, so no program lock reaches
  // the dummy join locks' range.
  static_assert(MaxHeapBytes / sizeof(HeapObject) < FirstDummyLock,
                "the heap budget must keep lock ids below FirstDummyLock");

  Interpreter(const Program &P, RuntimeHooks *Hooks, InterpOptions Opts);
  ~Interpreter();

  /// Executes the program's main method to completion (or error).
  InterpResult run();

  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }

private:
  struct Frame;
  struct SimThread;

  /// One step outcome for the per-thread execution loop.
  enum class StepResult : uint8_t {
    Continue,  ///< instruction retired; keep running this thread
    Blocked,   ///< thread blocked; do not advance its pc
    Switched,  ///< voluntary yield; preempt now
    Finished,  ///< thread ran to completion
    Fault,     ///< runtime error; abort the whole run
  };

  StepResult step(SimThread &Thread);
  StepResult executeInstr(SimThread &Thread, Frame &F, Value *Regs,
                          const Instr &I);
  StepResult enterSynchronizedFrame(SimThread &Thread, Frame &F);

  // Per-opcode executors: the single source of semantic truth, shared by
  // the switch (reference) interpreter and every threaded-dispatch
  // variant.
  //
  // The cached-top calling convention (docs/INTERPRETER.md): every
  // executor receives the thread's top frame's register file \p Regs
  // (= F.Regs.data()) — and, where needed, the frame \p F itself — as
  // pinned parameters instead of re-deriving them from
  // Thread.Stack.back() per operand.  The dispatch loops own the cache
  // and re-resolve it only after a control transfer, so the common
  // Const/BinOp/GetField path never round-trips through the SimThread
  // frame.
  //
  // The pc split: straight-line executors (no Frame parameter) never
  // touch F.Ip — the caller advances the pc on Continue, which lets the
  // threaded loop keep the pc in a register across whole straight-line
  // runs.  Executors that transfer control, can block, or must publish
  // the pc (Call/Branch/Jump/Return, monitors, thread ops, Yield) still
  // own F.Ip; callers flush the cached pc before invoking one that
  // reads it.  Executors that pop or push frames (Call/Return) go back
  // to Thread.Stack for the *new* top.
  //
  // Heap-access executors take EmitAll (= TraceEveryAccess) as a plain
  // parameter; the threaded loop passes a template constant so the
  // no-hook instantiations compile the hook plumbing out entirely.  The
  // static-field executors also hand back the statics object they
  // resolved (\p Resolved), which the fused access+trace handler keys
  // its inline Trace on.
  StepResult execConst(Value *Regs, const Instr &I);
  StepResult execMove(Value *Regs, const Instr &I);
  StepResult execBinOp(Value *Regs, const Instr &I);
  StepResult execNew(Value *Regs, const Instr &I);
  StepResult execNewArray(Value *Regs, const Instr &I);
  StepResult execArrayLen(Value *Regs, const Instr &I);
  StepResult execGetField(SimThread &Thread, Value *Regs, const Instr &I,
                          bool EmitAll);
  StepResult execPutField(SimThread &Thread, Value *Regs, const Instr &I,
                          bool EmitAll);
  StepResult execGetStatic(SimThread &Thread, Value *Regs, const Instr &I,
                           bool EmitAll, ObjectId *Resolved = nullptr);
  StepResult execPutStatic(SimThread &Thread, Value *Regs, const Instr &I,
                           bool EmitAll, ObjectId *Resolved = nullptr);
  StepResult execALoad(SimThread &Thread, Value *Regs, const Instr &I,
                       bool EmitAll);
  StepResult execAStore(SimThread &Thread, Value *Regs, const Instr &I,
                        bool EmitAll);
  StepResult execCall(SimThread &Thread, Frame &F, Value *Regs,
                      const Instr &I);
  StepResult execBranch(Frame &F, Value *Regs, const Instr &I);
  StepResult execJump(Frame &F, const Instr &I);
  StepResult execReturn(SimThread &Thread, Frame &F, Value *Regs,
                        const Instr &I);
  StepResult execMonitorEnter(SimThread &Thread, Frame &F, Value *Regs,
                              const Instr &I);
  StepResult execMonitorExit(SimThread &Thread, Frame &F, Value *Regs,
                             const Instr &I);
  StepResult execThreadStart(SimThread &Thread, Frame &F, Value *Regs,
                             const Instr &I);
  StepResult execThreadJoin(SimThread &Thread, Frame &F, Value *Regs,
                            const Instr &I);
  StepResult execPrint(Value *Regs, const Instr &I);
  StepResult execYield(Frame &F, const Instr &I);
  StepResult execTrace(SimThread &Thread, Value *Regs, const Instr &I);

  /// Runs up to \p Quantum steps of \p Thread under threaded dispatch,
  /// reproducing the switch loop's accounting exactly without doing it
  /// per step: the instruction budget folds into the slice's effective
  /// quantum, a block's batchable prefix (ThreadedCode::BatchLens) is
  /// consumed in one decrement, and every exit reconstructs the
  /// InstructionsExecuted/Retired deltas from the quantum consumed —
  /// provably identical because the quantum only ever counts steps that
  /// actually executed and nothing inside a batch can end the slice (see
  /// the derived-accounting comment in Interpreter.cpp).
  template <bool EmitAll, bool Profiled>
  void runSliceThreaded(SimThread &Thread, uint64_t Quantum,
                        uint32_t &Retired);

  bool tryAcquireMonitor(SimThread &Thread, ObjectId Obj, bool &Recursive);
  void exitMonitorOnce(SimThread &Thread, ObjectId Obj);
  void wakeBlockedOn(ObjectId Obj);
  void wakeJoiners(ObjectId ThreadObj);

  void fault(const std::string &Message);
  void emitAccess(ThreadId Thread, LocationKey Loc, AccessKind Kind,
                  SiteId Site);
  /// The hoisted cache probe and its devirtualized miss delivery (requires
  /// hoisted caches); shared by emitAccess and the fused access+trace
  /// handler, which inlines it into the threaded loop.
  void deliverHoisted(ThreadId Thread, LocationKey Loc, AccessKind Kind,
                      SiteId Site);

  /// Charges an allocation of \p Slots slots against MaxHeapBytes;
  /// faults the run and returns false when it does not fit.
  bool chargeHeap(uint64_t Slots);
  bool requireRef(const Value &V, ObjectId &Out, const char *What);
  bool requireInt(const Value &V, int64_t &Out, const char *What);

  const Program &P;
  RuntimeHooks *Hooks;
  InterpProfiler *Prof;
  RaceRuntime *SerialSink;   ///< devirtualized delivery (InterpOptions)
  ShardedRuntime *ShardedSink;
  /// The running thread's read and write caches, indexed by AccessKind and
  /// refreshed at each quantum start from the active sink's cacheHandle
  /// (docs/HOOKPATH.md).  Non-null only on the devirtualized path with the
  /// caches hoistable; emitAccess and the fused access+trace handler probe
  /// them through this one pointer before any call into the runtime.
  AccessCache *CurCaches = nullptr;
  InterpOptions Opts;
  Heap TheHeap;
  uint64_t HeapBytes = 0; ///< charged so far (chargeHeap)
  Rng ScheduleRng;

  std::vector<std::unique_ptr<SimThread>> Threads;
  std::unordered_map<ObjectId, ThreadId> ThreadByObject;
  InterpResult Result;
  bool Faulted = false;
};

} // namespace herd

#endif // HERD_RUNTIME_INTERPRETER_H
