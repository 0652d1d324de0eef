//===- vm/Profile.h - Run profiles and results -----------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one execution produces: per-method sample counts (the paper's
/// profile p), compilation events, and cycle totals.  The model builder
/// turns these into posterior ideal strategies; the harness turns them into
/// the paper's figures.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_PROFILE_H
#define EVM_VM_PROFILE_H

#include "bytecode/Module.h"
#include "bytecode/Value.h"
#include "support/Metrics.h"
#include "vm/Timing.h"

#include <cstdint>
#include <vector>

namespace evm {
namespace vm {

/// One (re)compilation performed during a run.  Every compile stalls the
/// application for its whole cost.
struct CompileEvent {
  bc::MethodId Method = 0;
  OptLevel Level = OptLevel::Baseline;
  uint64_t CostCycles = 0;
};

/// Per-method runtime statistics for one run.
struct MethodStats {
  uint64_t Samples = 0;     ///< profiler hits (the paper's T_m proxy)
  uint64_t Invocations = 0; ///< times the method was entered
  int NumCompiles = 0;      ///< baseline + recompilations
  OptLevel FinalLevel = OptLevel::Baseline;
  /// Execution cycles attributed to the method while it ran at each level
  /// (indexed by levelIndex).  Used to normalize profiles from optimized
  /// runs back to baseline-equivalent time so the posterior ideal strategy
  /// is stable across scenarios.
  uint64_t CyclesByLevel[NumOptLevels] = {0, 0, 0, 0};

  /// Estimated cycles this method would have taken at Baseline, given the
  /// model's per-level speed estimates.
  double baselineEquivalentCycles(const TimingModel &TM) const {
    double Total = 0;
    for (int I = 0; I != NumOptLevels; ++I)
      Total += static_cast<double>(CyclesByLevel[I]) *
               TM.expectedSpeedup(levelFromIndex(I));
    return Total;
  }
};

/// The outcome of one complete execution.
///
/// Accounting lives in the metrics snapshot (engine.* counters, plus
/// evolve.* entries added by the evolvable VM); the former ad-hoc fields
/// survive as thin accessors over it.
struct RunResult {
  bc::Value ReturnValue;
  uint64_t Cycles = 0; ///< total virtual time, including stalls
  /// Structured accounting: every engine.* counter/gauge/histogram the run
  /// produced, name-sorted, with a stable JSON rendering.
  MetricsSnapshot Metrics;
  std::vector<MethodStats> PerMethod;
  std::vector<CompileEvent> Compiles;

  /// Time spent inside the compilers, every cycle of it stalling the
  /// application clock; always a component of Cycles.
  uint64_t compileCycles() const {
    return Metrics.counter("engine.cycles.stall_compile");
  }
  /// Cycles charged by the evolvable-VM machinery.
  uint64_t overheadCycles() const {
    return Metrics.counter("engine.cycles.overhead");
  }

  /// Total profiler samples across methods.
  uint64_t totalSamples() const {
    uint64_t Total = 0;
    for (const MethodStats &S : PerMethod)
      Total += S.Samples;
    return Total;
  }
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_PROFILE_H
