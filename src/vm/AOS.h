//===- vm/AOS.h - The reactive adaptive optimization system ---------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AdaptivePolicy: the paper's "Default" scenario.  At every profiler sample
/// it assumes the method will run for as long as it already has (Jikes'
/// past-predicts-future heuristic) and consults the cost-benefit model for a
/// profitable recompilation.  This is the purely reactive baseline whose
/// delay and partial knowledge the evolvable VM removes.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_AOS_H
#define EVM_VM_AOS_H

#include "support/Profiler.h"
#include "support/Trace.h"
#include "vm/CostBenefit.h"
#include "vm/Policy.h"

namespace evm {
namespace vm {

/// The default reactive policy (sampling + cost-benefit model).  When given
/// a recorder it emits a costbenefit.eval event per decision, carrying the
/// estimates that drove it.
class AdaptivePolicy : public CompilationPolicy {
public:
  explicit AdaptivePolicy(const TimingModel &TM,
                          TraceRecorder *Tracer = nullptr)
      : TM(TM), Tracer(Tracer) {}

  std::optional<OptLevel>
  onSample(const MethodRuntimeInfo &Info) override {
    // Estimated remaining execution: as many cycles as observed so far.
    uint64_t FutureCycles = Info.Samples * TM.SampleIntervalCycles;
    // Free on the virtual clock (the model evaluation rides the sample);
    // the phase frame nests under the engine's aos/sample so evaluation
    // counts show up in the tree (a triggered compile is charged by the
    // engine under aos/sample itself, after this returns).
    PROF_SCOPE("costbenefit");
    RecompileEval Eval;
    std::optional<OptLevel> Chosen = chooseRecompileLevel(
        TM, Info.Level, FutureCycles, Info.BytecodeSize, &Eval);
    if (Tracer && Tracer->enabled()) {
      TraceEvent E;
      E.Kind = TraceEventKind::CostBenefitEval;
      E.Cycle = Info.NowCycles;
      E.Method = Info.Id;
      E.Level = Chosen ? static_cast<int8_t>(*Chosen) : kTraceNoLevel;
      E.A = FutureCycles;
      E.C = static_cast<uint64_t>(levelIndex(Info.Level));
      E.X = Eval.BestCost;
      Tracer->record(E);
    }
    return Chosen;
  }

private:
  TimingModel TM;
  TraceRecorder *Tracer;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_AOS_H
