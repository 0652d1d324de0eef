//===- vm/Timing.h - Optimization levels and the virtual clock model -----===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OptLevel (the Jikes-style -1/0/1/2 ladder the paper predicts over) and
/// TimingModel (the virtual-clock cost constants).  The clock replaces the
/// paper's wall-clock Xeon measurements: interpretation, compiled dispatch,
/// and compilation all charge cycles, so the reactive optimizer's
/// delayed-optimization pathology and the proactive optimizer's benefits
/// (avoided recompilations, early efficient code) both emerge from the same
/// arithmetic that drives Jikes' cost-benefit model.
///
/// Costs are op-dependent (a sin() costs more than an add), so the JIT's
/// transformations have genuine, measurable effects: LICM that hoists a
/// sin() saves 14 cycles per iteration; strength-reducing mul to shl saves
/// the mul/alu difference; DCE and CSE shrink the dynamic op count.
///
/// The expectedSpeedup table plays the role of Jikes' offline-measured
/// "compiler DNA": the adaptive system, the posterior ideal-strategy
/// computation, and the Rep repository all consult the *same* estimates,
/// exactly as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_TIMING_H
#define EVM_VM_TIMING_H

#include "bytecode/Opcode.h"

#include <cassert>
#include <cstdint>

namespace evm {
namespace vm {

/// A method's compilation level.  Baseline (-1) is the non-optimizing tier
/// every method starts in; O0-O2 are optimizing-JIT pipelines of increasing
/// aggressiveness (and compile cost).
enum class OptLevel : int8_t {
  Baseline = -1,
  O0 = 0,
  O1 = 1,
  O2 = 2,
};

/// Number of levels, for table sizing.
constexpr int NumOptLevels = 4;

/// Maps a level to a dense index in [0, NumOptLevels).
constexpr int levelIndex(OptLevel L) { return static_cast<int>(L) + 1; }

/// Inverse of levelIndex.
constexpr OptLevel levelFromIndex(int Index) {
  assert(Index >= 0 && Index < NumOptLevels && "level index out of range");
  return static_cast<OptLevel>(Index - 1);
}

/// Human-readable level name ("-1", "0", "1", "2").
const char *levelName(OptLevel L);

/// Intrinsic execution cost of one scalar operation, in cycles, shared by
/// all tiers (the tiers differ in dispatch overhead and dynamic op counts).
uint64_t scalarOpCost(bc::Opcode Op);

/// Virtual-clock cost constants.  All durations are in cycles; reported
/// "seconds" divide by CyclesPerSecond.
struct TimingModel {
  /// Dispatch overhead per interpreted bytecode (fetch/decode/stack traffic).
  uint64_t InterpDispatchCycles = 7;
  /// Dispatch overhead per executed IR op in compiled code.
  uint64_t CompiledDispatchCycles = 1;
  /// Call/return overhead charged on method entry, per execution tier.
  uint64_t InterpCallOverhead = 40;
  uint64_t CompiledCallOverhead = 12;
  /// Compile cost per bytecode of the method, per level.  Ratios follow
  /// Jikes' compiler DNA: the baseline compiler is orders of magnitude
  /// faster than the optimizing tiers, which is precisely why reactive
  /// recompilation decisions are expensive to get wrong.
  uint64_t CompileCyclesPerBytecode[4] = {3, 300, 1500, 6000};
  /// Fixed per-compilation cost (pipeline setup).
  uint64_t CompileFixedCycles[4] = {50, 2000, 8000, 30000};
  /// Sampling interval of the runtime profiler (the paper's "samples").
  uint64_t SampleIntervalCycles = 50000;
  /// Converts cycles to reported seconds (a 10 MHz virtual machine: chosen
  /// so workload run times land in the paper's 1-26 s range).
  double CyclesPerSecond = 10.0e6;

  /// Estimated steady-state speed of level \p L relative to Baseline; the
  /// analogue of Jikes' offline-measured DNA, used by all cost-benefit
  /// consumers.  Calibrated against bench_jit_levels.
  double expectedSpeedup(OptLevel L) const {
    // Geometric means measured by bench_jit_levels over the 11 workloads.
    switch (L) {
    case OptLevel::Baseline:
      return 1.0;
    case OptLevel::O0:
      return 3.3;
    case OptLevel::O1:
      return 4.9;
    case OptLevel::O2:
      return 6.0;
    }
    assert(false && "invalid level");
    return 1.0;
  }

  /// Cycles to compile a method of \p BytecodeSize at level \p L.
  uint64_t compileCost(OptLevel L, size_t BytecodeSize) const {
    int I = levelIndex(L);
    return CompileFixedCycles[I] +
           CompileCyclesPerBytecode[I] * static_cast<uint64_t>(BytecodeSize);
  }

  /// Converts a cycle count to seconds under this model.
  double toSeconds(uint64_t Cycles) const {
    return static_cast<double>(Cycles) / CyclesPerSecond;
  }
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_TIMING_H
