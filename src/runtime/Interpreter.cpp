//===- runtime/Interpreter.cpp - Deterministic MiniJ interpreter ----------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two dispatch strategies share one set of per-opcode executors
// (docs/INTERPRETER.md):
//
//  * Switch (reference): step() is called once per instruction and
//    dispatches through one switch over the original program.
//
//  * Threaded: runSliceThreaded() executes a whole scheduling quantum
//    without returning to the scheduler, jumping handler-to-handler via
//    computed goto.  It runs superinstruction shadow code
//    (runtime/ThreadedCode.h) and is instantiated four ways over
//    <EmitAll, Profiled> so the no-hook lane compiles the access-hook
//    plumbing out of the common path entirely.
//
// Equivalence invariant: for the same program, options and seed, both
// strategies retire the same instructions in the same order with the same
// per-step accounting, so schedules, hook streams, race reports and
// output are byte-identical (tests/dispatch_differential_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "detect/RaceRuntime.h"
#include "detect/ShardedRuntime.h"
#include "runtime/InterpProfiler.h"
#include "support/Compiler.h"

using namespace herd;

RuntimeHooks::~RuntimeHooks() = default;

const char *herd::dispatchModeName(DispatchMode Mode) {
  return Mode == DispatchMode::Switch ? "switch" : "threaded";
}

/// A call frame.
struct Interpreter::Frame {
  MethodId Method;
  BlockId Block = BlockId(0);
  uint32_t Ip = 0;
  std::vector<Value> Regs;
  RegId RetDst;        ///< caller register receiving the return value
  ObjectId SyncSelf;   ///< monitor to release on return (synchronized method)
  bool NeedsMonEnter = false; ///< synchronized method not yet entered
};

/// A simulated thread.
struct Interpreter::SimThread {
  enum class State : uint8_t {
    Runnable,
    BlockedOnMonitor,
    BlockedOnJoin,
    Finished,
  };

  ThreadId Id;
  ObjectId ThreadObj;    ///< invalid for the initial thread
  State St = State::Runnable;
  ObjectId WaitObj;      ///< monitor or thread object blocked on
  std::vector<Frame> Stack;
};

Interpreter::Interpreter(const Program &P, RuntimeHooks *Hooks,
                         InterpOptions Opts)
    : P(P), Hooks(Hooks), Prof(Opts.Profiler), SerialSink(Opts.SerialSink),
      ShardedSink(Opts.ShardedSink), Opts(Opts), TheHeap(P),
      ScheduleRng(Opts.Seed) {
  assert(!(SerialSink && ShardedSink) &&
         "at most one devirtualized access sink");
  assert((!Prof || (!SerialSink && !ShardedSink)) &&
         "direct sinks bypass the profiler's hook timing");
}

Interpreter::~Interpreter() = default;

/// Register access against a cached register file (the pinned
/// `Regs = F.Regs.data()` parameter of the executor calling convention).
/// Range validity is the verifier's invariant; the assert documents it.
static inline Value &rg(Value *Regs, RegId Reg) {
  assert(Reg.isValid() &&
         "invalid register (verifier should have caught this)");
  return Regs[Reg.index()];
}

void Interpreter::fault(const std::string &Message) {
  if (Faulted)
    return;
  Faulted = true;
  Result.Ok = false;
  Result.Error = Message;
}

bool Interpreter::chargeHeap(uint64_t Slots) {
  const uint64_t Left = MaxHeapBytes - HeapBytes;
  if (Left < sizeof(HeapObject) ||
      Slots > (Left - sizeof(HeapObject)) / sizeof(Value)) {
    fault("heap budget of " + std::to_string(MaxHeapBytes >> 20) +
          " MiB exhausted");
    return false;
  }
  HeapBytes += sizeof(HeapObject) + Slots * sizeof(Value);
  return true;
}

bool Interpreter::requireRef(const Value &V, ObjectId &Out,
                             const char *What) {
  if (!V.isRef()) {
    fault(std::string("type error: expected a reference for ") + What);
    return false;
  }
  if (V.isNull()) {
    fault(std::string("null pointer dereference in ") + What);
    return false;
  }
  Out = V.asRef();
  return true;
}

bool Interpreter::requireInt(const Value &V, int64_t &Out,
                             const char *What) {
  if (V.isRef()) {
    fault(std::string("type error: expected an integer for ") + What);
    return false;
  }
  Out = V.asInt();
  return true;
}

inline void Interpreter::deliverHoisted(ThreadId Thread, LocationKey Loc,
                                        AccessKind Kind, SiteId Site) {
  // The hoisted Section 4 probe (docs/HOOKPATH.md): the running thread's
  // cache for this access kind, refreshed at quantum start, so the common
  // case, a guaranteed-redundant access, costs one lookup through a
  // register-resident pointer.  The lookup counts the hit or the miss; a
  // miss takes the rest of the runtime's onAccess, devirtualized.
  if (CurCaches[size_t(Kind)].lookup(Loc))
    return;
  if (SerialSink) {
    SerialSink->onCacheMiss(Thread, Loc, Kind, Site);
    return;
  }
  ShardedSink->onCacheMiss(Thread, Loc, Kind, Site);
}

void Interpreter::emitAccess(ThreadId Thread, LocationKey Loc,
                             AccessKind Kind, SiteId Site) {
  ++Result.AccessEvents;
  if (CurCaches) {
    deliverHoisted(Thread, Loc, Kind, Site);
    return;
  }
  // Devirtualized delivery without hoisted caches (NoCache or
  // FieldsMerged): qualified calls, so the sink's own onAccess runs
  // without a virtual hop.  The pipeline only sets a sink when no
  // profiler is active, so the profiled hook-timing path below stays
  // exact when profiling.
  if (SerialSink) {
    SerialSink->RaceRuntime::onAccess(Thread, Loc, Kind, Site);
    return;
  }
  if (ShardedSink) {
    ShardedSink->ShardedRuntime::onAccess(Thread, Loc, Kind, Site);
    return;
  }
  if (!Hooks)
    return;
  if (HERD_UNLIKELY(Prof != nullptr) && Prof->samplingActive()) {
    // Time the detector feed so the profile splits "interpreting the
    // program" from "running the hooks" (onAccess dominates hook time).
    uint64_t Begin = Prof->now();
    Hooks->onAccess(Thread, Loc, Kind, Site);
    Prof->addHookNanos(Prof->now() - Begin);
    return;
  }
  Hooks->onAccess(Thread, Loc, Kind, Site);
}

bool Interpreter::tryAcquireMonitor(SimThread &Thread, ObjectId Obj,
                                    bool &Recursive) {
  Monitor &Mon = TheHeap.object(Obj).Mon;
  if (Mon.Owner == Thread.Id) {
    ++Mon.Recursion;
    Recursive = true;
    return true;
  }
  if (!Mon.Owner.isValid()) {
    Mon.Owner = Thread.Id;
    Mon.Recursion = 1;
    Recursive = false;
    return true;
  }
  return false;
}

void Interpreter::exitMonitorOnce(SimThread &Thread, ObjectId Obj) {
  Monitor &Mon = TheHeap.object(Obj).Mon;
  if (Mon.Owner != Thread.Id || Mon.Recursion == 0) {
    fault("monitorexit on a monitor the thread does not own");
    return;
  }
  --Mon.Recursion;
  bool StillHeld = Mon.Recursion > 0;
  if (!StillHeld) {
    Mon.Owner = ThreadId::invalid();
    wakeBlockedOn(Obj);
  }
  if (Hooks)
    Hooks->onMonitorExit(Thread.Id, Heap::lockOf(Obj), StillHeld);
}

void Interpreter::wakeBlockedOn(ObjectId Obj) {
  for (auto &T : Threads)
    if (T->St == SimThread::State::BlockedOnMonitor && T->WaitObj == Obj)
      T->St = SimThread::State::Runnable;
}

void Interpreter::wakeJoiners(ObjectId ThreadObj) {
  for (auto &T : Threads)
    if (T->St == SimThread::State::BlockedOnJoin && T->WaitObj == ThreadObj)
      T->St = SimThread::State::Runnable;
}

Interpreter::StepResult
Interpreter::enterSynchronizedFrame(SimThread &Thread, Frame &F) {
  // The callee is a synchronized instance method; acquire this's monitor
  // before its first instruction runs.
  ObjectId Self = F.Regs[0].asRef();
  bool Recursive = false;
  if (!tryAcquireMonitor(Thread, Self, Recursive)) {
    Thread.St = SimThread::State::BlockedOnMonitor;
    Thread.WaitObj = Self;
    return StepResult::Blocked;
  }
  F.NeedsMonEnter = false;
  F.SyncSelf = Self;
  if (Hooks)
    Hooks->onMonitorEnter(Thread.Id, Heap::lockOf(Self), Recursive);
  return StepResult::Continue;
}

//===----------------------------------------------------------------------===//
// Per-opcode executors.
//
// Each executor performs exactly one instruction: operand checks and
// effect.  Both dispatch strategies call these same functions, so a
// semantic change here changes both modes at once — there is no second
// copy of the semantics to drift.
//
// The pc split: straight-line executors (Const..AStore, Print, Trace)
// never touch F.Ip — the CALLER advances the pc on Continue, which lets
// the threaded loop keep the pc in a register for whole straight-line
// runs.  Executors that transfer control, can block, or must publish the
// pc (Call, Branch, Jump, Return, monitors, thread ops, Yield) still own
// F.Ip themselves, and their callers flush the cached pc before invoking
// any of them that reads it.
//===----------------------------------------------------------------------===//

Interpreter::StepResult Interpreter::execConst(Value *Regs, const Instr &I) {
  rg(Regs, I.Dst) = Value::makeInt(I.Imm);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execMove(Value *Regs, const Instr &I) {
  rg(Regs, I.Dst) = rg(Regs, I.A);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execBinOp(Value *Regs, const Instr &I) {
  const Value &AV = rg(Regs, I.A);
  const Value &BV = rg(Regs, I.B);
  // Eq/Ne compare values of either kind; all other operators require
  // integers.
  if (I.BinKind == BinOpKind::CmpEq || I.BinKind == BinOpKind::CmpNe) {
    bool Eq = AV == BV;
    rg(Regs, I.Dst) =
        Value::makeInt((I.BinKind == BinOpKind::CmpEq) == Eq ? 1 : 0);
    return StepResult::Continue;
  }
  int64_t A = 0, B = 0;
  if (!requireInt(AV, A, "binop") || !requireInt(BV, B, "binop"))
    return StepResult::Fault;
  int64_t R = 0;
  switch (I.BinKind) {
  case BinOpKind::Add:
    R = A + B;
    break;
  case BinOpKind::Sub:
    R = A - B;
    break;
  case BinOpKind::Mul:
    R = A * B;
    break;
  case BinOpKind::Div:
  case BinOpKind::Mod:
    if (B == 0) {
      fault("division by zero");
      return StepResult::Fault;
    }
    R = I.BinKind == BinOpKind::Div ? A / B : A % B;
    break;
  case BinOpKind::And:
    R = A & B;
    break;
  case BinOpKind::Or:
    R = A | B;
    break;
  case BinOpKind::Xor:
    R = A ^ B;
    break;
  case BinOpKind::CmpLt:
    R = A < B;
    break;
  case BinOpKind::CmpLe:
    R = A <= B;
    break;
  case BinOpKind::CmpGt:
    R = A > B;
    break;
  case BinOpKind::CmpGe:
    R = A >= B;
    break;
  case BinOpKind::CmpEq:
  case BinOpKind::CmpNe:
    HERD_UNREACHABLE("handled above");
  }
  rg(Regs, I.Dst) = Value::makeInt(R);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execNew(Value *Regs, const Instr &I) {
  if (!chargeHeap(P.classDecl(I.Class).InstanceFields.size()))
    return StepResult::Fault;
  rg(Regs, I.Dst) = Value::makeRef(TheHeap.allocate(I.Class, I.AllocSite));
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execNewArray(Value *Regs,
                                                  const Instr &I) {
  int64_t Len = 0;
  if (!requireInt(rg(Regs, I.A), Len, "newarray length"))
    return StepResult::Fault;
  if (Len < 0) {
    fault("negative array size");
    return StepResult::Fault;
  }
  if (!chargeHeap(uint64_t(Len)))
    return StepResult::Fault;
  rg(Regs, I.Dst) = Value::makeRef(TheHeap.allocateArray(Len, I.AllocSite));
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execArrayLen(Value *Regs,
                                                  const Instr &I) {
  ObjectId Arr;
  if (!requireRef(rg(Regs, I.A), Arr, "arraylen"))
    return StepResult::Fault;
  rg(Regs, I.Dst) = Value::makeInt(int64_t(TheHeap.object(Arr).Slots.size()));
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execGetField(SimThread &Thread,
                                                  Value *Regs, const Instr &I,
                                                  bool EmitAll) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "getfield"))
    return StepResult::Fault;
  rg(Regs, I.Dst) = TheHeap.object(Obj).Slots[P.field(I.Field).SlotIndex];
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forField(Obj, I.Field),
               AccessKind::Read, I.Site);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execPutField(SimThread &Thread,
                                                  Value *Regs, const Instr &I,
                                                  bool EmitAll) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "putfield"))
    return StepResult::Fault;
  TheHeap.object(Obj).Slots[P.field(I.Field).SlotIndex] = rg(Regs, I.B);
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forField(Obj, I.Field),
               AccessKind::Write, I.Site);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execGetStatic(SimThread &Thread,
                                                   Value *Regs, const Instr &I,
                                                   bool EmitAll,
                                                   ObjectId *Resolved) {
  ObjectId Statics = TheHeap.classStatics(I.Class);
  rg(Regs, I.Dst) = TheHeap.object(Statics).Slots[P.field(I.Field).SlotIndex];
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forStatic(Statics, I.Field),
               AccessKind::Read, I.Site);
  if (Resolved)
    *Resolved = Statics;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execPutStatic(SimThread &Thread,
                                                   Value *Regs, const Instr &I,
                                                   bool EmitAll,
                                                   ObjectId *Resolved) {
  ObjectId Statics = TheHeap.classStatics(I.Class);
  TheHeap.object(Statics).Slots[P.field(I.Field).SlotIndex] = rg(Regs, I.A);
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forStatic(Statics, I.Field),
               AccessKind::Write, I.Site);
  if (Resolved)
    *Resolved = Statics;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execALoad(SimThread &Thread, Value *Regs,
                                               const Instr &I, bool EmitAll) {
  ObjectId Arr;
  int64_t Idx = 0;
  if (!requireRef(rg(Regs, I.A), Arr, "aload") ||
      !requireInt(rg(Regs, I.B), Idx, "aload index"))
    return StepResult::Fault;
  HeapObject &ArrObj = TheHeap.object(Arr);
  if (Idx < 0 || size_t(Idx) >= ArrObj.Slots.size()) {
    fault("array index out of bounds");
    return StepResult::Fault;
  }
  rg(Regs, I.Dst) = ArrObj.Slots[size_t(Idx)];
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forArray(Arr), AccessKind::Read,
               I.Site);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execAStore(SimThread &Thread, Value *Regs,
                                                const Instr &I, bool EmitAll) {
  ObjectId Arr;
  int64_t Idx = 0;
  if (!requireRef(rg(Regs, I.A), Arr, "astore") ||
      !requireInt(rg(Regs, I.B), Idx, "astore index"))
    return StepResult::Fault;
  HeapObject &ArrObj = TheHeap.object(Arr);
  if (Idx < 0 || size_t(Idx) >= ArrObj.Slots.size()) {
    fault("array index out of bounds");
    return StepResult::Fault;
  }
  ArrObj.Slots[size_t(Idx)] = rg(Regs, I.C);
  if (EmitAll)
    emitAccess(Thread.Id, LocationKey::forArray(Arr), AccessKind::Write,
               I.Site);
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execCall(SimThread &Thread, Frame &F,
                                              Value *Regs, const Instr &I) {
  if (HERD_UNLIKELY(Thread.Stack.size() >= MaxCallDepth)) {
    fault("call depth limit of " + std::to_string(MaxCallDepth) +
          " frames exceeded");
    return StepResult::Fault;
  }
  const Method &Callee = P.method(I.Callee);
  Frame NewFrame;
  NewFrame.Method = I.Callee;
  NewFrame.Regs.resize(Callee.NumRegs);
  for (size_t N = 0; N != I.Args.size(); ++N)
    NewFrame.Regs[N] = rg(Regs, I.Args[N]);
  NewFrame.RetDst = I.Dst;
  if (Callee.IsSynchronized) {
    if (NewFrame.Regs.empty() || !NewFrame.Regs[0].isRef() ||
        NewFrame.Regs[0].isNull()) {
      fault("synchronized call on null receiver");
      return StepResult::Fault;
    }
    NewFrame.NeedsMonEnter = true;
  }
  ++F.Ip; // the caller resumes after the call; push_back invalidates F
  Thread.Stack.push_back(std::move(NewFrame));
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execBranch(Frame &F, Value *Regs,
                                                const Instr &I) {
  bool Taken = rg(Regs, I.A).isTruthy();
  F.Block = Taken ? I.Target : I.AltTarget;
  F.Ip = 0;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execJump(Frame &F, const Instr &I) {
  F.Block = I.Target;
  F.Ip = 0;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execReturn(SimThread &Thread, Frame &F,
                                                Value *Regs, const Instr &I) {
  Value Ret = I.A.isValid() ? rg(Regs, I.A) : Value();
  ObjectId SyncSelf = F.SyncSelf;
  RegId RetDst = F.RetDst;
  Thread.Stack.pop_back(); // F and Regs are dangling from here on
  if (SyncSelf.isValid())
    exitMonitorOnce(Thread, SyncSelf);
  if (Faulted)
    return StepResult::Fault;
  if (Thread.Stack.empty()) {
    Thread.St = SimThread::State::Finished;
    if (Hooks)
      Hooks->onThreadExit(Thread.Id);
    if (Thread.ThreadObj.isValid())
      wakeJoiners(Thread.ThreadObj);
    return StepResult::Finished;
  }
  if (RetDst.isValid())
    rg(Thread.Stack.back().Regs.data(), RetDst) = Ret;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execMonitorEnter(SimThread &Thread,
                                                      Frame &F, Value *Regs,
                                                      const Instr &I) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "monitorenter"))
    return StepResult::Fault;
  bool Recursive = false;
  if (!tryAcquireMonitor(Thread, Obj, Recursive)) {
    Thread.St = SimThread::State::BlockedOnMonitor;
    Thread.WaitObj = Obj;
    return StepResult::Blocked;
  }
  if (Hooks)
    Hooks->onMonitorEnter(Thread.Id, Heap::lockOf(Obj), Recursive, I.Site);
  ++F.Ip;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execMonitorExit(SimThread &Thread,
                                                     Frame &F, Value *Regs,
                                                     const Instr &I) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "monitorexit"))
    return StepResult::Fault;
  exitMonitorOnce(Thread, Obj);
  if (Faulted)
    return StepResult::Fault;
  ++F.Ip;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execThreadStart(SimThread &Thread,
                                                     Frame &F, Value *Regs,
                                                     const Instr &I) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "thread start"))
    return StepResult::Fault;
  HeapObject &ThreadObj = TheHeap.object(Obj);
  if (!ThreadObj.Class.isValid() ||
      !P.classDecl(ThreadObj.Class).RunMethod.isValid()) {
    fault("start on an object whose class has no run() method");
    return StepResult::Fault;
  }
  if (ThreadByObject.count(Obj)) {
    fault("thread object started twice");
    return StepResult::Fault;
  }
  if (HERD_UNLIKELY(Threads.size() >= MaxThreads)) {
    fault("thread limit of " + std::to_string(MaxThreads) +
          " threads exceeded");
    return StepResult::Fault;
  }
  MethodId Run = P.classDecl(ThreadObj.Class).RunMethod;
  const Method &RunM = P.method(Run);
  auto Child = std::make_unique<SimThread>();
  Child->Id = ThreadId(uint32_t(Threads.size()));
  Child->ThreadObj = Obj;
  Frame RunFrame;
  RunFrame.Method = Run;
  RunFrame.Regs.resize(RunM.NumRegs);
  RunFrame.Regs[0] = Value::makeRef(Obj);
  RunFrame.NeedsMonEnter = RunM.IsSynchronized;
  Child->Stack.push_back(std::move(RunFrame));
  ThreadByObject.emplace(Obj, Child->Id);
  ++Result.ThreadsCreated;
  if (Hooks)
    Hooks->onThreadCreate(Child->Id, Thread.Id, Obj, I.Site);
  Threads.push_back(std::move(Child));
  ++F.Ip;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execThreadJoin(SimThread &Thread,
                                                    Frame &F, Value *Regs,
                                                    const Instr &I) {
  ObjectId Obj;
  if (!requireRef(rg(Regs, I.A), Obj, "thread join"))
    return StepResult::Fault;
  auto It = ThreadByObject.find(Obj);
  if (It == ThreadByObject.end()) {
    // Joining a never-started thread returns immediately (Java semantics);
    // no ordering is established.
    ++F.Ip;
    return StepResult::Continue;
  }
  SimThread &Target = *Threads[It->second.index()];
  if (Target.St != SimThread::State::Finished) {
    Thread.St = SimThread::State::BlockedOnJoin;
    Thread.WaitObj = Obj;
    return StepResult::Blocked;
  }
  if (Hooks)
    Hooks->onThreadJoin(Thread.Id, Target.Id);
  ++F.Ip;
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execPrint(Value *Regs, const Instr &I) {
  const Value &V = rg(Regs, I.A);
  Result.Output.push_back(V.isRef() ? int64_t(V.asRef().index()) : V.asInt());
  return StepResult::Continue;
}

Interpreter::StepResult Interpreter::execYield(Frame &F, const Instr &I) {
  (void)I;
  ++F.Ip;
  return StepResult::Switched;
}

Interpreter::StepResult Interpreter::execTrace(SimThread &Thread, Value *Regs,
                                               const Instr &I) {
  LocationKey Loc;
  switch (I.TraceWhat) {
  case TraceWhatKind::Field: {
    ObjectId Obj;
    if (!requireRef(rg(Regs, I.A), Obj, "trace"))
      return StepResult::Fault;
    Loc = LocationKey::forField(Obj, I.Field);
    break;
  }
  case TraceWhatKind::Array: {
    ObjectId Obj;
    if (!requireRef(rg(Regs, I.A), Obj, "trace"))
      return StepResult::Fault;
    Loc = LocationKey::forArray(Obj);
    break;
  }
  case TraceWhatKind::Static:
    Loc = LocationKey::forStatic(TheHeap.classStatics(I.Class), I.Field);
    break;
  }
  emitAccess(Thread.Id, Loc, I.Access, I.Site);
  return StepResult::Continue;
}

//===----------------------------------------------------------------------===//
// Switch (reference) dispatch.
//===----------------------------------------------------------------------===//

Interpreter::StepResult Interpreter::step(SimThread &Thread) {
  Frame &F = Thread.Stack.back();
  if (F.NeedsMonEnter) {
    StepResult R = enterSynchronizedFrame(Thread, F);
    if (R != StepResult::Continue)
      return R;
  }

  const Method &M = P.method(F.Method);
  const BasicBlock &Block = M.block(F.Block);
  assert(F.Ip < Block.Instrs.size() && "pc ran off the end of a block");
  const Instr &I = Block.Instrs[F.Ip];
  Value *Regs = F.Regs.data();

  if (HERD_UNLIKELY(Prof != nullptr)) {
    // Opcode captured up front: executeInstr can grow Thread.Stack, but
    // never mutates the method body I points into.
    Opcode Op = I.Op;
    if (Prof->onDispatch(Op)) {
      Prof->beginSample();
      uint64_t Begin = Prof->now();
      StepResult R = executeInstr(Thread, F, Regs, I);
      uint64_t End = Prof->now();
      Prof->endSample(Op, End - Begin);
      return R;
    }
    return executeInstr(Thread, F, Regs, I);
  }
  return executeInstr(Thread, F, Regs, I);
}

Interpreter::StepResult Interpreter::executeInstr(SimThread &Thread, Frame &F,
                                                  Value *Regs,
                                                  const Instr &I) {
  // Straight-line executors no longer advance the pc themselves (see the
  // section comment); this reference path advances it here on Continue.
  StepResult R;
  switch (I.Op) {
  case Opcode::Const:
    R = execConst(Regs, I);
    break;
  case Opcode::Move:
    R = execMove(Regs, I);
    break;
  case Opcode::BinOp:
    R = execBinOp(Regs, I);
    break;
  case Opcode::New:
    R = execNew(Regs, I);
    break;
  case Opcode::NewArray:
    R = execNewArray(Regs, I);
    break;
  case Opcode::ArrayLen:
    R = execArrayLen(Regs, I);
    break;
  case Opcode::GetField:
    R = execGetField(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::PutField:
    R = execPutField(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::GetStatic:
    R = execGetStatic(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::PutStatic:
    R = execPutStatic(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::ALoad:
    R = execALoad(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::AStore:
    R = execAStore(Thread, Regs, I, Opts.TraceEveryAccess);
    break;
  case Opcode::Print:
    R = execPrint(Regs, I);
    break;
  case Opcode::Trace:
    R = execTrace(Thread, Regs, I);
    break;
  case Opcode::Call:
    return execCall(Thread, F, Regs, I);
  case Opcode::Branch:
    return execBranch(F, Regs, I);
  case Opcode::Jump:
    return execJump(F, I);
  case Opcode::Return:
    return execReturn(Thread, F, Regs, I);
  case Opcode::MonitorEnter:
    return execMonitorEnter(Thread, F, Regs, I);
  case Opcode::MonitorExit:
    return execMonitorExit(Thread, F, Regs, I);
  case Opcode::ThreadStart:
    return execThreadStart(Thread, F, Regs, I);
  case Opcode::ThreadJoin:
    return execThreadJoin(Thread, F, Regs, I);
  case Opcode::Yield:
    return execYield(F, I);
  default:
    HERD_UNREACHABLE("unknown opcode in interpreter");
  }
  if (HERD_LIKELY(R == StepResult::Continue))
    ++F.Ip;
  return R;
}

//===----------------------------------------------------------------------===//
// Threaded dispatch.
//
// Handlers are labels and dispatch is `goto *Table[op]` (the GNU
// labels-as-values extension, which GCC and Clang provide): each handler's
// tail jump is a separate indirect branch the predictor can correlate with
// the opcode stream.  The switch interpreter (step()) is the reference.
//
// Accounting contract (must mirror run()'s switch-mode inner loop):
//   * quantum check, then one InstructionsExecuted increment + budget
//     check per instruction, BEFORE it executes;
//   * every step that does not Fault increments Retired — including a
//     step that merely blocked;
//   * Blocked/Switched/Finished/Fault end the slice.
// Superinstructions run their constituents back-to-back with this exact
// per-constituent accounting; the only thing fusion removes is the
// dispatch between them.
//
// The threaded loop produces those exact counts WITHOUT maintaining them
// per step (derived accounting).  The instruction budget folds into the
// slice entry: the effective quantum is min(Quantum, budget left), so a
// per-step budget comparison is redundant — when the effective quantum
// runs dry and the real quantum did not, the next step's charge is
// exactly the one that trips the budget, and the slice faults there with
// the same pc, count (MaxInstructions + 1) and retired steps as charging
// each instruction individually would have produced.  Within the slice
// the only hot-path bookkeeping is one counter decrement; at every exit
// HERD_COMMIT reconstructs InstructionsExecuted and Retired from the
// quantum consumed:
//   * normal end:        consumed charged, consumed retired;
//   * blocked/switched/
//     finished:          the slice-ending step never decremented, so
//                        consumed + 1 charged and retired;
//   * fault:             the faulting instruction stays charged but
//                        retires nothing — consumed + 1 charged,
//                        consumed retired (batches never pre-consume,
//                        so this holds inside one too).
//
// Batched quantum retirement (ThreadedCode::BatchLens): on entering a
// block whose batchable prefix of N instructions fits the effective
// quantum, the loop records where the prefix ends (BatchFloor =
// Remaining - N) and the quantum test stops the slice only at that
// floor — the whole prefix is retired against one block-entry decision,
// and because the test is a compare against the floor it degenerates to
// the ordinary Remaining == 0 check when no batch is active.  This is
// unobservable by construction: nothing in a batch can block, yield,
// finish, or transfer control (instr/Superinstr.cpp isBatchable), so
// the slice cannot end inside it.  When the batch does not fit, the
// block falls back to per-step checks, so quantum-edge behavior
// (including partial superinstruction retirement) is bit-identical to
// switch mode.
//===----------------------------------------------------------------------===//

#define HERD_OP(Name) Lbl_##Name:

/// The once-per-exit accounting commit (derived accounting, see the
/// header comment above): reconstructs the per-step counts from the
/// effective quantum consumed.  The adjustments are the slice-ending
/// step's contribution, signed so a fault can refund a pre-charged batch
/// tail; unsigned wraparound makes the negative case exact.
#define HERD_COMMIT(InstrAdj, RetAdj)                                          \
  do {                                                                         \
    const uint64_t Consumed_ = EffRem0 - Remaining;                            \
    Result.InstructionsExecuted += Consumed_ + uint64_t(int64_t(InstrAdj));    \
    Retired += uint32_t(Consumed_ + uint64_t(int64_t(RetAdj)));                \
    Result.BlockRetireHits += BatchHits;                                       \
    Result.BlockRetiredSteps += BatchSteps;                                    \
  } while (false)

/// Common step epilogue: a Fault ends the slice retiring nothing (the
/// commit keeps the faulting instruction charged); any other
/// non-Continue outcome retires the step and ends the slice.  In-batch
/// and per-step execution share the single quantum decrement — a batch
/// changes only where the NextStep test stops (BatchFloor), so this is
/// one register op per step in every mode.  The slice-end commits live
/// behind shared labels so every handler's cold tail is a
/// two-instruction jump, not an inline commit sequence — keeping the
/// hot handlers dense in the instruction cache.
#define HERD_FINISH_STEP()                                                     \
  do {                                                                         \
    if (HERD_UNLIKELY(R != StepResult::Continue))                              \
      goto SliceEnd;                                                           \
    --Remaining;                                                               \
  } while (false)

/// Executes one instruction with switch-mode-identical profiling: count
/// the dispatch under the CONSTITUENT opcode (never a fused one) and time
/// the sampled executions.  Compiles to a bare call when !Profiled.
#define HERD_EXEC(Name, Call)                                                  \
  do {                                                                         \
    if constexpr (Profiled) {                                                  \
      if (Prof->onDispatch(Opcode::Name)) {                                    \
        Prof->beginSample();                                                   \
        uint64_t ProfBegin_ = Prof->now();                                     \
        R = (Call);                                                            \
        Prof->endSample(Opcode::Name, Prof->now() - ProfBegin_);               \
      } else {                                                                 \
        R = (Call);                                                            \
      }                                                                        \
    } else {                                                                   \
      R = (Call);                                                              \
    }                                                                          \
  } while (false)

template <bool EmitAll, bool Profiled>
HERD_ALIGN_HOT_CODE void
Interpreter::runSliceThreaded(SimThread &Thread, uint64_t Quantum,
                              uint32_t &Retired) {
  // The profiled variant runs the ORIGINAL blocks: per-opcode dispatch
  // counts must be exact per constituent, so fusion (and with it batched
  // retirement) is compiled out of the histogram's world entirely
  // (docs/INTERPRETER.md).
  const ThreadedCode *Shadow = Profiled ? nullptr : Opts.Fused;

  // The cached execution state: top frame, its register file, the
  // current block's instruction array, the method's batch plan, and the
  // program counter.  Everything the common path touches lives in these
  // locals; executors receive F/Regs as pinned parameters instead of
  // re-deriving them from Thread.Stack.back() per operand (the
  // "stack-top cache").
  //
  // The pc cache (Ip) shadows F->Ip for the whole slice: straight-line
  // executors never touch the frame's pc (Interpreter.h), so the loop
  // advances Ip in a register and publishes it to F->Ip only where the
  // frame's copy is observable — before an executor that reads it
  // (Call, monitors, thread ops, Yield), at slice exits that leave the
  // thread mid-block, and on a budget fault.  Branch/Jump overwrite
  // F->Ip and Return pops the frame, so those need no flush; Refresh()
  // re-syncs the cache afterwards.  HERD_FINISH_STEP never flushes: on
  // Finished the frame has been popped and F dangles, and a faulted
  // run's frame pc is unobservable (the run aborts).
  Frame *F = nullptr;
  Value *Regs = nullptr;
  const Instr *CodeBase = nullptr;
  const uint32_t *BatchLens = nullptr; // per-block batchable prefix lengths
  const Instr *I = nullptr;
  uint32_t Ip = 0; // cached F->Ip; see flush discipline above
  // The Remaining value at which the current batch ends (0 when no batch
  // is active).  The quantum check compares Remaining against this, so
  // outside a batch it degenerates to the plain Remaining == 0 test —
  // batch support costs the non-batch hot path nothing.
  uint64_t BatchFloor = 0;
  uint64_t BatchHits = 0, BatchSteps = 0; // stats, committed at slice end
  StepResult R = StepResult::Continue;
  // The access+trace family's hand-off from the access to the inline
  // Trace: the statics object a static access resolved, and the location
  // the Trace observes.
  ObjectId TraceStatics;
  LocationKey TraceLoc;

  // Derived accounting (see the header comment): the instruction budget
  // folds into the slice's effective quantum, so the loop keeps ONE hot
  // down-counter and every exit path reconstructs the per-step
  // InstructionsExecuted/Retired deltas with HERD_COMMIT.  When the
  // effective quantum was clipped by the budget (BudgetLimited) and runs
  // dry, the next charge is the one that would have tripped the per-step
  // budget check, and the Exhausted exit faults with identical counts.
  const uint64_t BudgetLeft =
      Opts.MaxInstructions - Result.InstructionsExecuted;
  const bool BudgetLimited = Quantum > BudgetLeft;
  uint64_t Remaining = BudgetLimited ? BudgetLeft : Quantum;
  const uint64_t EffRem0 = Remaining;

  // Re-resolve the cache after any control transfer (Thread.Stack may
  // reallocate on Call; Branch/Jump change blocks).
  auto Refresh = [&] {
    F = &Thread.Stack.back();
    Regs = F->Regs.data();
    Ip = F->Ip;
    if (Shadow) {
      CodeBase = Shadow->MethodBlocks[F->Method.index()][F->Block.index()]
                     .Instrs.data();
      BatchLens = Shadow->BatchLens[F->Method.index()].data();
    } else {
      CodeBase = P.method(F->Method).block(F->Block).Instrs.data();
    }
  };
  Refresh();

  static const void *const DispatchTable[NumDispatchOpcodes] = {
      &&Lbl_Const,        &&Lbl_Move,         &&Lbl_BinOp,
      &&Lbl_New,          &&Lbl_NewArray,     &&Lbl_ArrayLen,
      &&Lbl_GetField,     &&Lbl_PutField,     &&Lbl_GetStatic,
      &&Lbl_PutStatic,    &&Lbl_ALoad,        &&Lbl_AStore,
      &&Lbl_Call,         &&Lbl_Branch,       &&Lbl_Jump,
      &&Lbl_Return,       &&Lbl_MonitorEnter, &&Lbl_MonitorExit,
      &&Lbl_ThreadStart,  &&Lbl_ThreadJoin,   &&Lbl_Print,
      &&Lbl_Yield,        &&Lbl_Trace,        &&Lbl_FusedConstBinOp,
      &&Lbl_FusedConstPutField,  &&Lbl_FusedGetBinPut,
      &&Lbl_FusedBinOpBranch,    &&Lbl_FusedGetFieldBinOp,
      &&Lbl_FusedBinOpPutField,  &&Lbl_FusedBinOpMove,
      &&Lbl_FusedGetFieldTrace,  &&Lbl_FusedPutFieldTrace,
      &&Lbl_FusedGetStaticTrace, &&Lbl_FusedPutStaticTrace,
      &&Lbl_FusedALoadTrace,     &&Lbl_FusedAStoreTrace};

  // A slice begins like a step that may first have to enter a
  // synchronized frame (thread entry into a synchronized run(), or a
  // retry after blocking on it).
  goto EntryStep;

EntryStep:
  // First step of a frame: a pending synchronized-method entry acquires
  // the monitor within the same step as the first instruction (or blocks,
  // which retires the step without advancing the pc) — exactly what
  // step() does when F.NeedsMonEnter is set.  Monitor entry is never part
  // of a batch; the ordinary case falls through to TryBatch.
  if (HERD_UNLIKELY(F->NeedsMonEnter)) {
    if (HERD_UNLIKELY(Remaining == 0))
      goto Exhausted;
    R = enterSynchronizedFrame(Thread, *F);
    if (R != StepResult::Continue)
      goto SliceEnd; // a blocked entry attempt still retires this step
    goto DispatchCurrent; // first instruction shares the charged step
  }
  // Fallthrough.

TryBatch:
  // Block entry (and slice start): when the block's batchable prefix
  // fits the effective quantum (which already encodes the instruction
  // budget), mark where it ends — the quantum test will not stop the
  // slice before Remaining reaches that floor, so the whole prefix is
  // retired against one planning decision.  The prefix property is
  // suffix-closed, so a thread resuming mid-prefix batches the rest.
  if (BatchLens) {
    uint64_t BatchLen = BatchLens[F->Block.index()];
    if (Ip < BatchLen) {
      uint64_t N = BatchLen - Ip;
      if (Remaining >= N) {
        BatchFloor = Remaining - N;
        ++BatchHits;
        BatchSteps += N;
        goto DispatchCurrent;
      }
    }
  }
  // Fallthrough.

NextStep:
  // The quantum test: outside a batch BatchFloor is 0 and this is the
  // plain exhaustion check; inside one it fires first at the batch
  // boundary (where the floor resets and per-step checking resumes —
  // Remaining == BatchFloor > 0 implies steps are left).  A batch whose
  // floor is 0 ends exactly when the quantum does.
  if (HERD_UNLIKELY(Remaining == BatchFloor)) {
    if (BatchFloor == 0)
      goto Exhausted; // quantum or budget dry (the latter faults there)
    BatchFloor = 0;
  }
  // Fallthrough.

DispatchCurrent:
  I = CodeBase + Ip;
  goto *DispatchTable[size_t(I->Op)];

  HERD_OP(Const)
PlainConst : {
    HERD_EXEC(Const, execConst(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(Move) {
    HERD_EXEC(Move, execMove(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(BinOp)
PlainBinOp : {
    HERD_EXEC(BinOp, execBinOp(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(New) {
    HERD_EXEC(New, execNew(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(NewArray) {
    HERD_EXEC(NewArray, execNewArray(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(ArrayLen) {
    HERD_EXEC(ArrayLen, execArrayLen(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(GetField)
PlainGetField : {
    HERD_EXEC(GetField, execGetField(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(PutField)
PlainPutField : {
    HERD_EXEC(PutField, execPutField(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(GetStatic)
PlainGetStatic : {
    HERD_EXEC(GetStatic, execGetStatic(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(PutStatic)
PlainPutStatic : {
    HERD_EXEC(PutStatic, execPutStatic(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(ALoad)
PlainALoad : {
    HERD_EXEC(ALoad, execALoad(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(AStore)
PlainAStore : {
    HERD_EXEC(AStore, execAStore(Thread, Regs, *I, EmitAll));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(Call) {
    F->Ip = Ip; // execCall advances the caller's pc past the call
    HERD_EXEC(Call, execCall(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Refresh();
    goto EntryStep; // the callee may be synchronized
  }

  HERD_OP(Branch) {
    HERD_EXEC(Branch, execBranch(*F, Regs, *I));
    HERD_FINISH_STEP();
    Refresh();
    goto TryBatch; // block entry: a new batch may start
  }

  HERD_OP(Jump) {
    HERD_EXEC(Jump, execJump(*F, *I));
    HERD_FINISH_STEP();
    Refresh();
    goto TryBatch; // block entry: a new batch may start
  }

  HERD_OP(Return) {
    HERD_EXEC(Return, execReturn(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Refresh(); // back in the caller's frame
    goto TryBatch;
  }

  HERD_OP(MonitorEnter) {
    F->Ip = Ip; // executor reads and advances the frame's pc
    HERD_EXEC(MonitorEnter, execMonitorEnter(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Ip = F->Ip;
    goto NextStep;
  }

  HERD_OP(MonitorExit) {
    F->Ip = Ip; // executor reads and advances the frame's pc
    HERD_EXEC(MonitorExit, execMonitorExit(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Ip = F->Ip;
    goto NextStep;
  }

  HERD_OP(ThreadStart) {
    F->Ip = Ip; // executor reads and advances the frame's pc
    HERD_EXEC(ThreadStart, execThreadStart(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Ip = F->Ip;
    goto NextStep;
  }

  HERD_OP(ThreadJoin) {
    F->Ip = Ip; // executor reads and advances the frame's pc
    HERD_EXEC(ThreadJoin, execThreadJoin(Thread, *F, Regs, *I));
    HERD_FINISH_STEP();
    Ip = F->Ip;
    goto NextStep;
  }

  HERD_OP(Print) {
    HERD_EXEC(Print, execPrint(Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  HERD_OP(Yield) {
    F->Ip = Ip; // executor advances the frame's pc before yielding
    HERD_EXEC(Yield, execYield(*F, *I));
    HERD_FINISH_STEP();
    Ip = F->Ip;
    goto NextStep;
  }

  HERD_OP(Trace) {
    HERD_EXEC(Trace, execTrace(Thread, Regs, *I));
    HERD_FINISH_STEP();
    ++Ip;
    goto NextStep;
  }

  // --- Superinstructions (shadow code only; never under Profiled) ---
  // When the remaining quantum cannot cover the whole sequence (only
  // possible outside a batch: a batch always spans whole sequences), only
  // the head constituent runs via its plain handler: the shadow block
  // keeps constituents at ip+1.., so the tail executes as ordinary code
  // in the thread's next slice.

  HERD_OP(FusedConstBinOp) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 2))
      goto PlainConst;
    execConst(Regs, *I); // cannot fault
    --Remaining;
    ++Ip;
    I = CodeBase + Ip;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Result.Fused.ConstBinOp;
    ++Ip;
    goto NextStep;
  }

  HERD_OP(FusedConstPutField) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 2))
      goto PlainConst;
    execConst(Regs, *I); // cannot fault
    --Remaining;
    ++Ip;
    I = CodeBase + Ip;
    R = execPutField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    ++Result.Fused.ConstPutField;
    ++Ip;
    goto NextStep;
  }

  HERD_OP(FusedGetBinPut) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 3))
      goto PlainGetField;
    R = execGetField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    R = execPutField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    ++Result.Fused.GetBinPut;
    ++Ip;
    goto NextStep;
  }

  HERD_OP(FusedBinOpBranch) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    // The tail transfers control, so this head is never part of a batch
    // (instr/Superinstr.cpp fusedIsBatchable) — no BatchFloor is active.
    assert(BatchFloor == 0 && "control-flow superinstruction inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainBinOp;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    R = execBranch(*F, Regs, *I); // overwrites F->Ip; Refresh re-syncs
    HERD_FINISH_STEP();
    ++Result.Fused.BinOpBranch;
    Refresh();
    goto TryBatch; // block entry: a new batch may start
  }

  HERD_OP(FusedGetFieldBinOp) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 2))
      goto PlainGetField;
    R = execGetField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Result.Fused.GetFieldBinOp;
    ++Ip;
    goto NextStep;
  }

  HERD_OP(FusedBinOpPutField) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 2))
      goto PlainBinOp;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    R = execPutField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    ++Result.Fused.BinOpPutField;
    ++Ip;
    goto NextStep;
  }

  HERD_OP(FusedBinOpMove) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    if (HERD_UNLIKELY(Remaining - BatchFloor < 2))
      goto PlainBinOp;
    R = execBinOp(Regs, *I);
    HERD_FINISH_STEP();
    ++Ip;
    I = CodeBase + Ip;
    execMove(Regs, *I); // cannot fault
    --Remaining;
    ++Result.Fused.BinOpMove;
    ++Ip;
    goto NextStep;
  }

  // --- The access+trace family: an instrumented access and its Trace ---
  // The access runs through its executor (the only copy of access
  // semantics); the Trace then runs inline in the shared tails below,
  // which build its location key and probe the hoisted filter.  The pair
  // is never part of a batch (instr/Superinstr.cpp fusedIsBatchable), so
  // no BatchFloor is active, and both constituents charge the quantum:
  // with fewer than two steps left the plain access runs alone and the
  // Trace waits for the thread's next slice.

  HERD_OP(FusedGetFieldTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainGetField;
    R = execGetField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    goto TraceObjectTail;
  }

  HERD_OP(FusedPutFieldTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainPutField;
    R = execPutField(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    goto TraceObjectTail;
  }

  HERD_OP(FusedALoadTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainALoad;
    R = execALoad(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    goto TraceObjectTail;
  }

  HERD_OP(FusedAStoreTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainAStore;
    R = execAStore(Thread, Regs, *I, EmitAll);
    HERD_FINISH_STEP();
    goto TraceObjectTail;
  }

  HERD_OP(FusedGetStaticTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainGetStatic;
    R = execGetStatic(Thread, Regs, *I, EmitAll, &TraceStatics);
    HERD_FINISH_STEP();
    goto TraceStaticTail;
  }

  HERD_OP(FusedPutStaticTrace) {
    if constexpr (Profiled)
      HERD_UNREACHABLE("fused opcode under profiling (shadow code leaked)");
    assert(BatchFloor == 0 && "instrumented access inside a batch");
    if (HERD_UNLIKELY(Remaining < 2))
      goto PlainPutStatic;
    R = execPutStatic(Thread, Regs, *I, EmitAll, &TraceStatics);
    HERD_FINISH_STEP();
    goto TraceStaticTail;
  }

TraceObjectTail : {
    // A field or array Trace reads its base register after the access,
    // exactly like execTrace: normally the object the access just
    // resolved, but a load whose destination is that register has
    // overwritten it, so re-read it.  A value that is no reference takes
    // execTrace, which faults as the unfused Trace would.
    ++Ip;
    I = CodeBase + Ip;
    const Value &Base = rg(Regs, I->A);
    if (HERD_UNLIKELY(!Base.isRef() || Base.isNull())) {
      R = execTrace(Thread, Regs, *I);
      goto AccessTraceTail;
    }
    TraceLoc = I->TraceWhat == TraceWhatKind::Array
                   ? LocationKey::forArray(Base.asRef())
                   : LocationKey::forField(Base.asRef(), I->Field);
    goto TraceDeliver;
  }

TraceStaticTail:
  // A static Trace's location is the statics object the access resolved.
  ++Ip;
  I = CodeBase + Ip;
  TraceLoc = LocationKey::forStatic(TraceStatics, I->Field);
  // Fallthrough.

TraceDeliver:
  // The Trace proper, the rest of execTrace inline: count the event,
  // probe the hoisted cache, and deliver a miss to the concrete runtime.
  // Without hoisted caches (recording, provenance, deadlock detection,
  // the virtual lane of ToolConfig::HookFilter, NoCache, FieldsMerged)
  // the key goes through emitAccess.
  if (HERD_LIKELY(CurCaches != nullptr)) {
    ++Result.AccessEvents;
    deliverHoisted(Thread.Id, TraceLoc, I->Access, I->Site);
  } else {
    emitAccess(Thread.Id, TraceLoc, I->Access, I->Site);
  }
  // Fallthrough.

AccessTraceTail:
  HERD_FINISH_STEP();
  ++Result.Fused.AccessTrace;
  ++Ip;
  goto NextStep;

SliceEnd:
  // A step ended the slice (R != Continue).  Only executed steps ever
  // decremented Remaining — a batch moves the quantum test's stopping
  // point, not the decrements — so the consumed count is exact even for
  // a fault inside a batch: the faulting instruction stays charged
  // (+1) and retires nothing; every other outcome retires the
  // slice-ending step (which never reached its decrement).
  if (R == StepResult::Fault) {
    HERD_COMMIT(1, 0);
  } else {
    assert(BatchFloor == 0 && "slice-ending step inside a batch");
    HERD_COMMIT(1, 1);
  }
  return;

Exhausted:
  // The effective quantum is dry.  If the budget clipped it, the step we
  // are about to NOT take is exactly the one per-step accounting would
  // have charged and faulted on: publish its pc, charge it, fault.
  // Otherwise this is an ordinary end of slice.
  F->Ip = Ip; // slice ends mid-block: publish the resume point
  if (HERD_UNLIKELY(BudgetLimited)) {
    HERD_COMMIT(1, 0);
    fault("instruction budget exhausted (runaway workload?)");
    return;
  }
  HERD_COMMIT(0, 0);
}

#undef HERD_OP
#undef HERD_COMMIT
#undef HERD_FINISH_STEP
#undef HERD_EXEC

//===----------------------------------------------------------------------===//
// The scheduler loop.
//===----------------------------------------------------------------------===//

InterpResult Interpreter::run() {
  Result = InterpResult();
  Result.Ok = true;
  Faulted = false;

  assert(P.MainMethod.isValid() && "program has no main");
  assert((!Opts.Fused ||
          (Opts.Fused->MethodBlocks.size() == P.numMethods() &&
           Opts.Fused->BatchLens.size() == P.numMethods())) &&
         "shadow code was built from a different program");
  const Method &Main = P.method(P.MainMethod);

  auto MainThread = std::make_unique<SimThread>();
  MainThread->Id = ThreadId(0);
  Frame MainFrame;
  MainFrame.Method = P.MainMethod;
  MainFrame.Regs.resize(Main.NumRegs);
  MainThread->Stack.push_back(std::move(MainFrame));
  Threads.clear();
  ThreadByObject.clear();
  Threads.push_back(std::move(MainThread));
  Result.ThreadsCreated = 1;
  if (Hooks)
    Hooks->onThreadCreate(ThreadId(0), ThreadId::invalid(),
                          ObjectId::invalid());

  // Resolve the threaded slice runner once: the no-hook lane (EmitAll =
  // false) and the profiler are per-run constants, so the hot loop never
  // re-tests them.
  using SliceFn = void (Interpreter::*)(SimThread &, uint64_t, uint32_t &);
  const bool UseThreaded = Opts.Dispatch == DispatchMode::Threaded;
  SliceFn ThreadedSlice =
      Opts.TraceEveryAccess
          ? (Prof ? &Interpreter::runSliceThreaded<true, true>
                  : &Interpreter::runSliceThreaded<true, false>)
          : (Prof ? &Interpreter::runSliceThreaded<false, true>
                  : &Interpreter::runSliceThreaded<false, false>);

  size_t Cursor = 0;
  size_t ReplayIndex = 0;
  while (true) {
    SimThread *Current = nullptr;
    uint64_t Quantum = 0;

    if (Opts.Replay) {
      // Replay mode: follow the recorded slices exactly (Section 2.6's
      // DejaVu-style deterministic re-execution).
      if (ReplayIndex >= Opts.Replay->Slices.size())
        break;
      const ScheduleTrace::Slice &Slice = Opts.Replay->Slices[ReplayIndex++];
      if (Slice.ThreadIndex >= Threads.size()) {
        fault("schedule replay diverged: unknown thread in trace");
        break;
      }
      Current = Threads[Slice.ThreadIndex].get();
      if (Current->St != SimThread::State::Runnable) {
        fault("schedule replay diverged: recorded thread not runnable");
        break;
      }
      Quantum = Slice.Steps;
    } else {
      // Round-robin: find the next runnable thread at or after the cursor.
      bool AnyUnfinished = false;
      for (size_t Probe = 0; Probe != Threads.size(); ++Probe) {
        SimThread &T = *Threads[(Cursor + Probe) % Threads.size()];
        if (T.St != SimThread::State::Finished)
          AnyUnfinished = true;
        if (T.St == SimThread::State::Runnable) {
          Current = &T;
          Cursor = (Cursor + Probe) % Threads.size();
          break;
        }
      }
      if (!Current) {
        if (AnyUnfinished)
          fault("deadlock: all live threads are blocked");
        break;
      }
      Quantum = 1 + ScheduleRng.nextBelow(Opts.MaxQuantum);
    }

    // Hoisted hook-path probe (docs/HOOKPATH.md): keep the running
    // thread's two caches for the quantum.  Their addresses are stable
    // (the runtimes heap-allocate per-thread state) and every eviction
    // (the thread's own lock releases, another thread's shared
    // transition, a conflict) mutates the pointed-to cache in place, so a
    // quantum-long copy of the pointers never serves a stale hit.
    CurCaches = SerialSink    ? SerialSink->cacheHandle(Current->Id)
                : ShardedSink ? ShardedSink->cacheHandle(Current->Id)
                              : nullptr;

    // Pair counts never chain across a context switch, in either mode.
    if (HERD_UNLIKELY(Prof != nullptr))
      Prof->onSliceStart();

    uint32_t Retired = 0;
    if (UseThreaded) {
      (this->*ThreadedSlice)(*Current, Quantum, Retired);
    } else {
      for (uint64_t Step = 0; Step != Quantum; ++Step) {
        if (++Result.InstructionsExecuted > Opts.MaxInstructions) {
          fault("instruction budget exhausted (runaway workload?)");
          break;
        }
        StepResult R = step(*Current);
        if (R == StepResult::Fault)
          break;
        ++Retired;
        if (R != StepResult::Continue)
          break; // Blocked / Switched / Finished: end the quantum
      }
    }
    if (Faulted)
      break;
    if (Opts.Record && Retired > 0)
      Opts.Record->Slices.push_back({Current->Id.index(), Retired});
    Cursor = (Cursor + 1) % Threads.size();
    ++Result.ContextSwitches;
  }

  if (Hooks)
    Hooks->onRunEnd();

  if (Faulted) {
    Result.Ok = false;
    return Result;
  }
  Result.Ok = true;
  return Result;
}
