//===- examples/bank_accounts.cpp - Classic transfer race -----------------==//
//
// Part of the HERD project (PLDI 2002 datarace-detector reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A domain example: two teller threads move money between accounts.  The
/// buggy version updates balances with no locking — the detector pinpoints
/// the racy field and the statement label, and the lost-update corruption
/// is visible in the final balances.  The fixed version wraps each
/// transfer in synchronized(bank) and is verified silent across many
/// schedules.
///
//===----------------------------------------------------------------------===//

#include "herd/Pipeline.h"
#include "ir/IRBuilder.h"

#include <cstdio>
#include <string_view>

using namespace herd;

namespace {

Program buildBank(bool Locked, int64_t TransfersPerTeller) {
  Program P;
  IRBuilder B(P);
  ClassId Account = B.makeClass("Account");
  FieldId Balance = B.makeField(Account, "balance");
  ClassId Bank = B.makeClass("Bank");
  FieldId BankA = B.makeField(Bank, "checking");
  FieldId BankB = B.makeField(Bank, "savings");
  ClassId Teller = B.makeClass("Teller");
  FieldId TBank = B.makeField(Teller, "bank");
  FieldId TAmount = B.makeField(Teller, "amount");

  MethodId Transfer = B.startMethod(Teller, "transfer", 4);
  {
    RegId From = B.param(1);
    RegId To = B.param(2);
    RegId Amount = B.param(3);
    B.site("Teller.transfer");
    RegId FromBal = B.emitGetField(From, Balance);
    B.emitPutField(From, Balance,
                   B.emitBinOp(BinOpKind::Sub, FromBal, Amount));
    RegId ToBal = B.emitGetField(To, Balance);
    B.emitPutField(To, Balance, B.emitBinOp(BinOpKind::Add, ToBal, Amount));
    B.emitReturn();
  }

  B.startMethod(Teller, "run", 1);
  {
    RegId This = B.thisReg();
    RegId BankObj = B.emitGetField(This, TBank);
    RegId A = B.emitGetField(BankObj, BankA);
    RegId Bv = B.emitGetField(BankObj, BankB);
    RegId Amount = B.emitGetField(This, TAmount);
    RegId N = B.emitConst(TransfersPerTeller);
    B.forLoop(0, N, 1, [&](RegId I) {
      RegId Two = B.emitConst(2);
      RegId Even = B.emitBinOp(BinOpKind::CmpEq,
                               B.emitBinOp(BinOpKind::Mod, I, Two),
                               B.emitConst(0));
      auto DoTransfer = [&] {
        B.ifThenElse(
            Even,
            [&] { B.emitCallVoid(Transfer, {This, A, Bv, Amount}); },
            [&] { B.emitCallVoid(Transfer, {This, Bv, A, Amount}); });
      };
      if (Locked)
        B.sync(BankObj, DoTransfer);
      else
        DoTransfer();
    });
    B.emitReturn();
  }

  B.startMain();
  {
    RegId BankObj = B.emitNew(Bank);
    RegId A = B.emitNew(Account);
    RegId Bv = B.emitNew(Account);
    B.emitPutField(A, Balance, B.emitConst(1000));
    B.emitPutField(Bv, Balance, B.emitConst(1000));
    B.emitPutField(BankObj, BankA, A);
    B.emitPutField(BankObj, BankB, Bv);
    RegId T1 = B.emitNew(Teller);
    RegId T2 = B.emitNew(Teller);
    B.emitPutField(T1, TBank, BankObj);
    B.emitPutField(T1, TAmount, B.emitConst(10));
    B.emitPutField(T2, TBank, BankObj);
    B.emitPutField(T2, TAmount, B.emitConst(25));
    B.emitThreadStart(T1);
    B.emitThreadStart(T2);
    B.emitThreadJoin(T1);
    B.emitThreadJoin(T2);
    // Total must be conserved: print both balances and the sum.
    RegId FinalA = B.emitGetField(A, Balance);
    RegId FinalB = B.emitGetField(Bv, Balance);
    B.emitPrint(FinalA);
    B.emitPrint(FinalB);
    B.emitPrint(B.emitBinOp(BinOpKind::Add, FinalA, FinalB));
    B.emitReturn();
  }
  return P;
}

} // namespace

int main() {
  std::printf("Bank-accounts example: lost updates and their detection\n\n");

  std::printf("--- buggy version (no locking) ---\n");
  int SchedulesWithCorruption = 0;
  int SchedulesReported = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Program P = buildBank(/*Locked=*/false, 50);
    // The detector misses nothing if peeling's first-iteration-only traces
    // would suppress the race, so run the robust no-peeling configuration
    // (see DESIGN.md on the Section 7.2 interaction).
    ToolConfig Config = ToolConfig::noPeeling();
    Config.Seed = Seed;
    PipelineResult R = runPipeline(P, Config);
    if (!R.Run.Ok) {
      std::printf("run failed: %s\n", R.Run.Error.c_str());
      return 1;
    }
    int64_t Total = R.Run.Output[2];
    if (Total != 2000)
      ++SchedulesWithCorruption;
    if (!R.Reports.empty())
      ++SchedulesReported;
    if (Seed == 1)
      for (std::string_view Line : R.FormattedRaces)
        std::printf("  %.*s\n", int(Line.size()), Line.data());
  }
  std::printf("10 schedules: race reported in %d, money actually lost or "
              "created in %d\n",
              SchedulesReported, SchedulesWithCorruption);
  std::printf("(the detector flags every schedule; the corruption only "
              "strikes in some — that is why dataraces are so hard to "
              "debug by testing)\n\n");

  std::printf("--- fixed version (synchronized(bank)) ---\n");
  int Silent = 0, Conserved = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    Program P = buildBank(/*Locked=*/true, 50);
    ToolConfig Config = ToolConfig::full();
    Config.Seed = Seed;
    PipelineResult R = runPipeline(P, Config);
    if (!R.Run.Ok) {
      std::printf("run failed: %s\n", R.Run.Error.c_str());
      return 1;
    }
    if (R.Reports.empty())
      ++Silent;
    if (R.Run.Output[2] == 2000)
      ++Conserved;
  }
  std::printf("10 schedules: %d silent, %d conserve the total of 2000\n",
              Silent, Conserved);
  return 0;
}
