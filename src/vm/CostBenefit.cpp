//===- vm/CostBenefit.cpp -------------------------------------------------==//

#include "vm/CostBenefit.h"

using namespace evm;
using namespace evm::vm;

std::optional<OptLevel> vm::chooseRecompileLevel(const TimingModel &TM,
                                                 OptLevel Current,
                                                 uint64_t FutureCycles,
                                                 size_t BytecodeSize,
                                                 RecompileEval *Eval) {
  double StayCost = static_cast<double>(FutureCycles);
  double BestCost = StayCost;
  std::optional<OptLevel> Best;
  for (int I = levelIndex(Current) + 1; I != NumOptLevels; ++I) {
    OptLevel L = levelFromIndex(I);
    double Compile = static_cast<double>(TM.compileCost(L, BytecodeSize));
    // Stall for the compile, then run the remainder faster.
    double Total =
        StayCost * TM.expectedSpeedup(Current) / TM.expectedSpeedup(L) +
        Compile;
    if (Total < BestCost) {
      BestCost = Total;
      Best = L;
    }
  }
  if (Eval) {
    Eval->StayCost = StayCost;
    Eval->BestCost = BestCost;
  }
  return Best;
}

OptLevel vm::idealLevelForMethod(const TimingModel &TM,
                                 double BaselineEquivalentCycles,
                                 size_t BytecodeSize) {
  // Never-executed methods should stay at baseline.
  if (BaselineEquivalentCycles <= 0)
    return OptLevel::Baseline;

  OptLevel Best = OptLevel::Baseline;
  double BestCost = BaselineEquivalentCycles; // run everything at baseline
  for (int I = levelIndex(OptLevel::O0); I != NumOptLevels; ++I) {
    OptLevel L = levelFromIndex(I);
    double Total = BaselineEquivalentCycles / TM.expectedSpeedup(L) +
                   static_cast<double>(TM.compileCost(L, BytecodeSize));
    if (Total < BestCost) {
      BestCost = Total;
      Best = L;
    }
  }
  return Best;
}
