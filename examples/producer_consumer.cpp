//===- examples/producer_consumer.cpp - Pipeline over a locked queue ------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A producer/consumer pipeline over a bounded ring buffer protected by a
/// monitor.  Demonstrates the two mechanisms that keep correct concurrent
/// code cheap to monitor:
///   - the ownership model absorbs the producer's item initialization (the
///     item is created and filled before it is published);
///   - the per-thread caches absorb repeated accesses within each
///     critical section.
/// It also shows the detector's statistics API, and flips a single flag —
/// the consumer peeking at the ring's writeIndex without the lock — to
/// demonstrate how one missing monitorenter turns into a report.
///
//===----------------------------------------------------------------------===//

#include "herd/Pipeline.h"
#include "ir/IRBuilder.h"

#include <cstdio>
#include <string_view>

using namespace herd;

namespace {

Program buildPipeline(bool BuggyPeek, int64_t NumItems) {
  Program P;
  IRBuilder B(P);
  ClassId Item = B.makeClass("Item");
  FieldId ItemVal = B.makeField(Item, "value");
  ClassId Ring = B.makeClass("Ring");
  FieldId RingSlots = B.makeField(Ring, "slots");
  FieldId RingWrite = B.makeField(Ring, "writeIndex");
  FieldId RingRead = B.makeField(Ring, "readIndex");
  ClassId Producer = B.makeClass("Producer");
  FieldId PRing = B.makeField(Producer, "ring");
  FieldId PCount = B.makeField(Producer, "count");
  ClassId Consumer = B.makeClass("Consumer");
  FieldId CRing = B.makeField(Consumer, "ring");
  FieldId CCount = B.makeField(Consumer, "count");
  FieldId CSum = B.makeField(Consumer, "sum");

  B.startMethod(Producer, "run", 1);
  {
    RegId This = B.thisReg();
    RegId RingObj = B.emitGetField(This, PRing);
    RegId N = B.emitGetField(This, PCount);
    B.forLoop(0, N, 1, [&](RegId I) {
      // Initialize the item BEFORE publication: ownership covers this.
      RegId It = B.emitNew(Item);
      B.site("produce:init");
      B.emitPutField(It, ItemVal, B.emitBinOp(BinOpKind::Mul, I,
                                              B.emitConst(3)));
      // Publish under the ring's monitor, spinning while full.
      RegId Stored = B.emitConst(0);
      B.whileLoop(
          [&] {
            return B.emitBinOp(BinOpKind::CmpEq, Stored, B.emitConst(0));
          },
          [&] {
            B.sync(RingObj, [&] {
              B.site("produce:publish");
              RegId Wr = B.emitGetField(RingObj, RingWrite);
              RegId Rd = B.emitGetField(RingObj, RingRead);
              RegId Slots = B.emitGetField(RingObj, RingSlots);
              RegId Cap = B.emitArrayLen(Slots);
              RegId Used = B.emitBinOp(BinOpKind::Sub, Wr, Rd);
              RegId HasRoom = B.emitBinOp(BinOpKind::CmpLt, Used, Cap);
              B.ifThen(HasRoom, [&] {
                RegId Slot = B.emitBinOp(BinOpKind::Mod, Wr, Cap);
                B.emitAStore(Slots, Slot, It);
                B.emitPutField(RingObj, RingWrite,
                               B.emitBinOp(BinOpKind::Add, Wr,
                                           B.emitConst(1)));
                B.emitAssign(Stored, B.emitConst(1));
              });
            });
            B.emitYield();
          });
    });
    B.emitReturn();
  }

  B.startMethod(Consumer, "run", 1);
  {
    RegId This = B.thisReg();
    RegId RingObj = B.emitGetField(This, CRing);
    RegId N = B.emitGetField(This, CCount);
    B.forLoop(0, N, 1, [&](RegId) {
      RegId Taken = B.emitConst(0);
      B.whileLoop(
          [&] {
            return B.emitBinOp(BinOpKind::CmpEq, Taken, B.emitConst(0));
          },
          [&] {
            if (BuggyPeek) {
              // BUG: peek at writeIndex without the lock.
              B.site("consume:unsafe-peek");
              RegId Wr = B.emitGetField(RingObj, RingWrite);
              B.ifThen(B.emitBinOp(BinOpKind::CmpEq, Wr, B.emitConst(0)),
                       [&] { B.emitYield(); });
            }
            B.sync(RingObj, [&] {
              B.site("consume:take");
              RegId Wr = B.emitGetField(RingObj, RingWrite);
              RegId Rd = B.emitGetField(RingObj, RingRead);
              RegId HasItem = B.emitBinOp(BinOpKind::CmpLt, Rd, Wr);
              B.ifThen(HasItem, [&] {
                RegId Slots = B.emitGetField(RingObj, RingSlots);
                RegId Cap = B.emitArrayLen(Slots);
                RegId Slot = B.emitBinOp(BinOpKind::Mod, Rd, Cap);
                RegId It = B.emitALoad(Slots, Slot);
                B.emitPutField(RingObj, RingRead,
                               B.emitBinOp(BinOpKind::Add, Rd,
                                           B.emitConst(1)));
                B.site("consume:use");
                RegId V = B.emitGetField(It, ItemVal);
                RegId Sum = B.emitGetField(This, CSum);
                B.emitPutField(This, CSum,
                               B.emitBinOp(BinOpKind::Add, Sum, V));
                B.emitAssign(Taken, B.emitConst(1));
              });
            });
            B.emitYield();
          });
    });
    B.emitReturn();
  }

  B.startMain();
  {
    RegId RingObj = B.emitNew(Ring);
    RegId Slots = B.emitNewArray(B.emitConst(4));
    B.emitPutField(RingObj, RingSlots, Slots);
    B.emitPutField(RingObj, RingWrite, B.emitConst(0));
    B.emitPutField(RingObj, RingRead, B.emitConst(0));
    RegId Prod = B.emitNew(Producer);
    B.emitPutField(Prod, PRing, RingObj);
    B.emitPutField(Prod, PCount, B.emitConst(NumItems));
    RegId Cons = B.emitNew(Consumer);
    B.emitPutField(Cons, CRing, RingObj);
    B.emitPutField(Cons, CCount, B.emitConst(NumItems));
    B.emitPutField(Cons, CSum, B.emitConst(0));
    B.emitThreadStart(Prod);
    B.emitThreadStart(Cons);
    B.emitThreadJoin(Prod);
    B.emitThreadJoin(Cons);
    B.emitPrint(B.emitGetField(Cons, CSum));
    B.emitReturn();
  }
  return P;
}

void report(const char *Title, const Program &P) {
  std::printf("--- %s ---\n", Title);
  PipelineResult R = runPipeline(P, ToolConfig::full());
  if (!R.Run.Ok) {
    std::printf("run failed: %s\n", R.Run.Error.c_str());
    return;
  }
  std::printf("consumed sum = %lld; %llu events, %llu cache hits "
              "(%.1f%%), %llu absorbed by ownership, %zu report(s)\n",
              (long long)R.Run.Output[0],
              (unsigned long long)R.Stats.EventsSeen,
              (unsigned long long)R.Stats.CacheHits,
              R.Stats.EventsSeen
                  ? 100.0 * double(R.Stats.CacheHits) /
                        double(R.Stats.EventsSeen)
                  : 0.0,
              (unsigned long long)R.Stats.Detector.OwnedFiltered,
              R.Reports.size());
  for (std::string_view Line : R.FormattedRaces)
    std::printf("  %.*s\n", int(Line.size()), Line.data());
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("Producer/consumer example: monitors done right (and one "
              "peek done wrong)\n\n");
  report("correct ring buffer", buildPipeline(false, 25));
  std::printf("The item handoff (produce:init -> consume:use) is silent:\n"
              "the ownership model treats the pre-publication writes as\n"
              "initialization, and the post-publication reads share the\n"
              "ring's monitor ordering.\n\n");
  report("consumer peeks writeIndex without the lock",
         buildPipeline(true, 25));
  return 0;
}
