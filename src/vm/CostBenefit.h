//===- vm/CostBenefit.h - Jikes-style recompilation economics ------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost-benefit arithmetic shared by all three strategies the paper
/// compares: the reactive adaptive system queries it at sample time with
/// past-predicts-future estimates; the posterior ideal-strategy computation
/// queries it with the full-run profile; the Rep repository queries it with
/// history-averaged profiles.  Keeping one implementation mirrors the paper,
/// where all consumers use "the default cost-benefit model in Jikes RVM".
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_COSTBENEFIT_H
#define EVM_VM_COSTBENEFIT_H

#include "vm/Timing.h"

#include <cstdint>
#include <optional>

namespace evm {
namespace vm {

/// The numbers behind one chooseRecompileLevel decision, for tracing: the
/// estimated bills the model compared.
struct RecompileEval {
  double StayCost = 0; ///< estimated cycles if the method stays put
  double BestCost = 0; ///< estimated total for the chosen level (== StayCost
                       ///< when no level beat staying)
};

/// Sample-time decision: given a method running at \p Current with an
/// estimated \p FutureCycles of remaining execution (Jikes' assumption:
/// it will run as long as it already has), returns the level whose
/// recompile-cost-plus-faster-execution beats staying put, or nullopt.
/// The compile stalls the application, so its full cost is on the bill.
///
/// When \p Eval is non-null it receives the compared estimates (for the
/// costbenefit.eval trace event).
std::optional<OptLevel> chooseRecompileLevel(const TimingModel &TM,
                                             OptLevel Current,
                                             uint64_t FutureCycles,
                                             size_t BytecodeSize,
                                             RecompileEval *Eval = nullptr);

/// Posterior decision: given a method's whole-run baseline-equivalent
/// execution cycles, the level that minimizes total cost (compile time plus
/// execution time) had it been chosen right after baseline compilation.
/// This is the paper's "ideal strategy" for one method.
OptLevel idealLevelForMethod(const TimingModel &TM,
                             double BaselineEquivalentCycles,
                             size_t BytecodeSize);

} // namespace vm
} // namespace evm

#endif // EVM_VM_COSTBENEFIT_H
