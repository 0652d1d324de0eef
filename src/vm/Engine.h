//===- vm/Engine.h - Mixed-mode execution engine ---------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionEngine runs a MiniVM module start to finish in mixed mode:
/// baseline methods are interpreted, optimized methods execute their
/// compiled code; the two tiers interoperate at call boundaries.  Compiled
/// code is lowered into a flat array of predecoded slots that one switch
/// executes, with frames on a grow-only register arena.  A slot whose next
/// slot in its block consumes its result dispatches once for both, while
/// each slot keeps its own cost and charge point.  Each (method,
/// optimizing level) is compiled and lowered once per engine, at its first
/// install, and reused by every later install in any run; each install
/// still charges the level's modeled compile cost, so reuse moves no
/// virtual cycle.  The engine
/// owns the virtual clock, the sampling profiler, and the recompilation
/// plumbing; a pluggable CompilationPolicy decides *when* and *to what
/// level* methods move (reactive AOS, Evolve prediction, or Rep triggers).
///
/// Like Jikes RVM's recompilation (in the configuration the paper uses),
/// switching levels takes effect at the next invocation of the method; there
/// is no on-stack replacement.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_ENGINE_H
#define EVM_VM_ENGINE_H

#include "bytecode/Module.h"
#include "support/Error.h"
#include "support/Profiler.h"
#include "support/Trace.h"
#include "vm/Heap.h"
#include "vm/Policy.h"
#include "vm/Profile.h"
#include "vm/Timing.h"
#include "vm/jit/Compiler.h"

#include <memory>
#include <optional>
#include <vector>

namespace evm {
namespace vm {

/// Mixed-mode executor for one module.  One engine instance models one
/// "launch of the virtual machine": method levels and the heap persist
/// across invoke()s within a run() but are reset at the start of each run().
/// Lowered code persists for the engine's life (see Lowered).
class ExecutionEngine {
public:
  /// \p M must not change while the engine exists: the engine keeps the
  /// code it lowers from M for its whole life.
  ExecutionEngine(const bc::Module &M, const TimingModel &TM,
                  CompilationPolicy *Policy);

  /// Executes main(Args) to completion.  \p MaxCycles bounds the virtual
  /// clock (a FuelExhausted trap fires beyond it; tests use this to fence
  /// accidental non-termination).  \p PreRunOverheadCycles is charged to
  /// the clock (and the overhead account) before main starts — the
  /// evolvable VM passes its feature-extraction and prediction costs here.
  /// \p SamplePhaseCycles shifts where the first profiler sample lands
  /// (modulo the interval); varying it across runs reproduces the sampling
  /// noise of a real machine, without which every profile of an input
  /// would be bit-identical.
  ErrorOr<RunResult> run(const std::vector<bc::Value> &Args,
                         uint64_t MaxCycles = UINT64_MAX,
                         uint64_t PreRunOverheadCycles = 0,
                         uint64_t SamplePhaseCycles = 0);

  /// Charges evolvable-VM machinery time (feature extraction, prediction)
  /// to the clock; accounted separately in RunResult::OverheadCycles.
  void chargeOverhead(uint64_t Cycles);

  /// Swaps the compilation policy for subsequent run()s (may be null).
  /// Long-lived hosts (the evolvable VM) change policy per production run
  /// while keeping one engine alive across runs.  The pointer is only
  /// dereferenced during run(), never stored across it.
  void setPolicy(CompilationPolicy *P) { Policy = P; }

  /// Attaches an event recorder (may be null to detach).  The engine emits
  /// run/method/sample/compile/transition events with virtual-cycle
  /// timestamps.  Recording never charges virtual cycles, so traced and
  /// untraced runs are cycle-identical.
  void setTracer(TraceRecorder *T) { Tracer = T; }

  /// Current level of \p Id (tests and policies may inspect this).
  OptLevel methodLevel(bc::MethodId Id) const;

  /// Pins externally produced compiled code for \p Id: every subsequent
  /// run() starts the method at Code->Level with this code installed (no
  /// baseline compile, no recompilation below it).  This is the seam for
  /// executing code built outside the engine's own pipelines — ahead-of-time
  /// caches, or the pass-permutation property tests, which must run IR
  /// produced by arbitrary pass orders.  Pass nullptr to clear.
  void setCodeOverride(bc::MethodId Id,
                       std::shared_ptr<const jit::CompiledFunction> Code);

  const TimingModel &timingModel() const { return TM; }

  /// Maximum recursive invocation depth before a CallDepthExceeded trap.
  static constexpr int MaxCallDepth = 512;

private:
  /// One predecoded IR instruction (defined in Engine.cpp).
  struct Slot;
  /// A CompiledFunction lowered for execution: its slots plus the side
  /// tables they index (defined in Engine.cpp).
  struct LoweredCode;

  struct MethodState {
    OptLevel Level = OptLevel::Baseline;
    bool BaselineCompiled = false;
    /// Null at baseline.  Shared, so a recompilation in the middle of a
    /// frame cannot free the code that frame is running.
    std::shared_ptr<const LoweredCode> Code;
    MethodStats Stats;
  };

  /// Lowers \p Code into slots: jump targets become slot indices, each
  /// slot carries its full charge under \p TM, and a slot whose next slot
  /// consumes its result gets a fused dispatch code.  \p Passes is the
  /// compile's pass work, kept for the profiler's split of each install's
  /// cost.
  static std::shared_ptr<const LoweredCode>
  lower(const jit::CompiledFunction &Code, std::vector<jit::PassWork> Passes,
        const TimingModel &TM);

  /// Invokes a method in its current tier; nullopt means a trap is pending.
  /// \p Args points at the callee's arity of values.
  std::optional<bc::Value> invoke(bc::MethodId Id, const bc::Value *Args,
                                  int Depth);
  /// The bytecode interpreter: one switch per instruction.
  std::optional<bc::Value> interpret(bc::MethodId Id, const bc::Value *Args,
                                     int Depth);
  /// The compiled-code executor: one switch per slot or fused pair or
  /// triple of slots, the frame on the register arena.
  std::optional<bc::Value> executeCompiled(bc::MethodId Id,
                                           const LoweredCode &Code,
                                           const bc::Value *Args, int Depth);

  /// Advances the clock, attributing \p Cycles to the method on top of the
  /// call stack and firing profiler samples as intervals elapse.
  void charge(uint64_t Cycles);
  /// One profiler hit: bumps the current method's samples, runs the policy.
  void sampleTick();
  /// Moves \p Id to \p L, charging the full compile stall.  The first
  /// install of (\p Id, \p L) compiles and lowers on the spot; later ones
  /// reuse that code.  The new code takes effect at the method's next
  /// invocation (no OSR).
  void installLevel(bc::MethodId Id, OptLevel L);
  /// Runs first-encounter baseline compilation and the policy's proactive
  /// hook, if not done yet for this method.
  void ensureBaseline(bc::MethodId Id);
  void setTrap(TrapKind Kind, bc::MethodId Method);

  const bc::Module &M;
  TimingModel TM;
  CompilationPolicy *Policy; ///< may be null (no recompilation ever)

  Heap TheHeap;
  std::vector<MethodState> Methods;
  /// Per-method pinned code (see setCodeOverride); sparse, usually empty.
  std::vector<std::shared_ptr<const LoweredCode>> CodeOverrides;
  /// Lowered code per method and optimizing level (O0-O2), at
  /// Id * 3 + levelIndex(L) - 1: filled by the pair's first install and
  /// never erased.  Sized at construction, because installs nest (a
  /// compile's charge can fire a sample whose policy installs another
  /// method), so no entry may move while an outer install holds it.
  std::vector<std::shared_ptr<const LoweredCode>> Lowered;
  std::vector<bc::MethodId> CallStack;
  /// Registers of the compiled frames on the call stack, grow-only.  The
  /// innermost compiled frame ends at ArenaTop; a compiled caller writes a
  /// call's arguments there, where the callee's frame starts.  Growing
  /// moves the arena, so no pointer into it survives a call.
  std::vector<bc::Value> Arena;
  size_t ArenaTop = 0;
  uint64_t Cycles = 0;
  uint64_t NextSampleAt = 0;
  uint64_t CompileCycles = 0; ///< charged to the clock (stall account)
  uint64_t OverheadCycles = 0;
  uint64_t MaxCycles = UINT64_MAX;
  std::vector<CompileEvent> Compiles;
  bool InSamplingHook = false;
  TraceRecorder *Tracer = nullptr;
  /// The phase profiler installed on the execution thread, cached at run()
  /// entry (one TLS read per run instead of one per charge).  Attribution
  /// never advances the virtual clock, so profiled and unprofiled runs are
  /// cycle-identical.
  PhaseProfiler *Prof = nullptr;
  uint64_t RunOrdinal = 0; ///< run() invocations on this engine, for run.begin
  uint64_t Invocations = 0; ///< per-run total, folded into the metrics

  TrapKind PendingTrap = TrapKind::None;
  bc::MethodId TrapMethod = 0;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_ENGINE_H
