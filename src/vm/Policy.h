//===- vm/Policy.h - Compilation policy hooks -------------------------------//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompilationPolicy is the seam between the execution engine and the three
/// strategies the paper compares:
///
///   * Default: the reactive cost-benefit adaptive system (AdaptivePolicy,
///     vm/AOS.h) decides at sample time.
///   * Evolve:  the predicted per-method level is applied right after the
///     first (baseline) compilation via onFirstInvocation.
///   * Rep:     repository-derived <sample-count, level> triggers fire in
///     onSample.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_POLICY_H
#define EVM_VM_POLICY_H

#include "bytecode/Module.h"
#include "vm/Timing.h"

#include <cstdint>
#include <optional>

namespace evm {
namespace vm {

/// Snapshot of one method's runtime state handed to policy hooks.
struct MethodRuntimeInfo {
  bc::MethodId Id = 0;
  uint64_t Samples = 0;
  uint64_t Invocations = 0;
  OptLevel Level = OptLevel::Baseline;
  size_t BytecodeSize = 0;
  /// The engine's virtual clock at the moment of the hook, so policies can
  /// timestamp the trace events they emit.
  uint64_t NowCycles = 0;
};

/// Recompilation decisions.  Hooks return the level to (re)compile the
/// method at, or nullopt to leave it alone.  The engine ignores decisions
/// that do not raise the level.
class CompilationPolicy {
public:
  virtual ~CompilationPolicy();

  /// Called once per run per method, immediately after its first-encounter
  /// baseline compilation.  Evolve's proactive strategy lives here.
  virtual std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &Info) {
    (void)Info;
    return std::nullopt;
  }

  /// Called at every profiler sample attributed to the method.
  virtual std::optional<OptLevel> onSample(const MethodRuntimeInfo &Info) {
    (void)Info;
    return std::nullopt;
  }
};

/// Combines two policies, taking the higher recommendation at each hook.
/// The Rep scenario uses this: repository triggers provide the proactive
/// head start while the normal adaptive system keeps running underneath
/// (as in the original repository-based system).
class CombinedPolicy : public CompilationPolicy {
public:
  CombinedPolicy(CompilationPolicy *First, CompilationPolicy *Second)
      : First(First), Second(Second) {}

  std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &Info) override {
    return higher(First->onFirstInvocation(Info),
                  Second->onFirstInvocation(Info));
  }
  std::optional<OptLevel> onSample(const MethodRuntimeInfo &Info) override {
    return higher(First->onSample(Info), Second->onSample(Info));
  }

private:
  static std::optional<OptLevel> higher(std::optional<OptLevel> A,
                                        std::optional<OptLevel> B) {
    if (!A)
      return B;
    if (!B)
      return A;
    return levelIndex(*A) >= levelIndex(*B) ? A : B;
  }

  CompilationPolicy *First;
  CompilationPolicy *Second;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_POLICY_H
