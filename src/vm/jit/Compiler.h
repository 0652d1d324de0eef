//===- vm/jit/Compiler.h - Level pipelines --------------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizing JIT's level pipelines, mirroring the Jikes RVM ladder the
/// paper predicts over:
///
///   O0: straight lowering (removes interpretive dispatch only).
///   O1: + local constant folding / copy propagation / CSE, global DCE,
///       CFG simplification, small-callee inlining.
///   O2: + aggressive inlining, strength reduction, and loop-invariant
///       code motion, with a second cleanup round.
///
/// compileAtLevel() is pure: its output depends only on its arguments, and
/// no pass keeps static or global state.  The ExecutionEngine relies on
/// this contract: it compiles each (method, level) once, with the default
/// InlinePolicy, and reuses the code for every later install, charging the
/// virtual clock TimingModel::compileCost on each.  Any new input to
/// compileAtLevel must therefore join the engine's cache key.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_JIT_COMPILER_H
#define EVM_VM_JIT_COMPILER_H

#include "bytecode/Module.h"
#include "vm/Timing.h"
#include "vm/jit/IR.h"

#include <string>
#include <vector>

namespace evm {
namespace vm {
namespace jit {

/// Work one pass did during a compilation, aggregated over its runs: the
/// instruction count of the function at each entry to the pass, summed.
/// The engine's phase profiler distributes the level's modeled compile
/// cost across passes proportionally to Work (the real pipelines are
/// roughly linear per invocation), so relative Work is what matters.
struct PassWork {
  std::string Name;
  uint64_t Work = 0;
  uint64_t Runs = 0;
};

/// The output of one compilation.
struct CompiledFunction {
  IRFunction IR;
  OptLevel Level = OptLevel::O0;
  size_t BytecodeSize = 0;
  /// The pipeline's passes in first-execution order (see PassWork); empty
  /// only for code built outside compileAtLevel.
  std::vector<PassWork> Passes;
};

/// Inlining thresholds per optimizing level (bytecode size, call-site
/// budget).
struct InlinePolicy {
  size_t MaxCalleeSizeO1 = 16;
  size_t MaxCalleeSizeO2 = 48;
  int MaxInlinesO1 = 4;
  int MaxInlinesO2 = 12;
};

/// Compiles \p Id at \p Level (must be O0/O1/O2; Baseline methods are
/// interpreted, not compiled).
CompiledFunction compileAtLevel(const bc::Module &M, bc::MethodId Id,
                                OptLevel Level,
                                const InlinePolicy &Inlining = InlinePolicy());

} // namespace jit
} // namespace vm
} // namespace evm

#endif // EVM_VM_JIT_COMPILER_H
