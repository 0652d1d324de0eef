//===- tests/test_differential.cpp - Interpreter/JIT differential fuzzer --==//
//
// Seeded random-module fuzzer: every generated program is run through the
// interpreter and through each JIT level (O0/O1/O2), and all four tiers
// must agree — on the returned value, on heap effects (main ends with a
// checksum loop over its heap array, so every store is observable in the
// return value), and on trap behavior (same trap message, or no trap
// anywhere).  Failures print the seed so a reproduction is one constant
// away.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "vm/Policy.h"
#include "workloads/Generator.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace evm;
using namespace evm::vm;

namespace {

constexpr uint64_t NumSeeds = 200;
constexpr uint64_t SeedBase = 20090301; // fixed: CI runs are reproducible
constexpr uint64_t MaxCycles = 500000000ULL;

class ForceLevelPolicy : public CompilationPolicy {
public:
  explicit ForceLevelPolicy(OptLevel L) : Level(L) {}
  std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &) override {
    if (Level == OptLevel::Baseline)
      return std::nullopt;
    return Level;
  }

private:
  OptLevel Level;
};

ErrorOr<RunResult> runAtLevel(const bc::Module &M, OptLevel L,
                              int64_t Input) {
  TimingModel TM;
  ForceLevelPolicy Policy(L);
  ExecutionEngine Engine(M, TM, &Policy);
  return Engine.run({bc::Value::makeInt(Input)}, MaxCycles);
}

/// Trap messages have the shape "trap in method 'name' (kind)".  Inlining
/// legitimately re-attributes a trap to the caller (there is no
/// deoptimization metadata to reconstruct the inlined frame), so tiers must
/// agree on the trap *kind*, not on the attributed method.
std::string trapKindOf(const std::string &Message) {
  size_t Open = Message.rfind('(');
  return Open == std::string::npos ? Message : Message.substr(Open);
}

/// Value equality with NaN considered equal to NaN: generated programs can
/// legitimately compute NaN (0.0/0.0, sqrt of a negative after F2I jitter),
/// and "both tiers produced NaN" is agreement, not divergence.
bool valuesEquivalent(const bc::Value &A, const bc::Value &B) {
  if (A.kind() == B.kind() && A.isFloat() && std::isnan(A.asFloat()) &&
      std::isnan(B.asFloat()))
    return true;
  return A.equals(B);
}

} // namespace

TEST(Differential, RandomModulesAgreeAcrossTiers) {
  const int64_t Inputs[] = {0, 3, 17};
  uint64_t Trapped = 0, Succeeded = 0;
  for (uint64_t Seed = SeedBase; Seed != SeedBase + NumSeeds; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    auto MOrErr = wl::generateRandomProgram(Seed);
    ASSERT_TRUE(static_cast<bool>(MOrErr))
        << "seed=" << Seed
        << " generated an invalid module: " << MOrErr.getError().message();
    const bc::Module &M = *MOrErr;

    for (int64_t Input : Inputs) {
      auto Interp = runAtLevel(M, OptLevel::Baseline, Input);
      for (int L = 1; L <= 3; ++L) {
        auto Compiled = runAtLevel(M, levelFromIndex(L), Input);
        if (static_cast<bool>(Interp)) {
          ASSERT_TRUE(static_cast<bool>(Compiled))
              << "seed=" << Seed << " input=" << Input << " O" << L - 1
              << " trapped but the interpreter succeeded: "
              << Compiled.getError().message();
          ASSERT_TRUE(
              valuesEquivalent(Interp->ReturnValue, Compiled->ReturnValue))
              << "seed=" << Seed << " input=" << Input << " O" << L - 1
              << ": interp=" << Interp->ReturnValue.str()
              << " compiled=" << Compiled->ReturnValue.str();
        } else {
          ASSERT_FALSE(static_cast<bool>(Compiled))
              << "seed=" << Seed << " input=" << Input << " O" << L - 1
              << " succeeded but the interpreter trapped: "
              << Interp.getError().message();
          ASSERT_EQ(trapKindOf(Interp.getError().message()),
                    trapKindOf(Compiled.getError().message()))
              << "seed=" << Seed << " input=" << Input << " O" << L - 1
              << ": interp='" << Interp.getError().message()
              << "' compiled='" << Compiled.getError().message() << "'";
        }
      }
      static_cast<bool>(Interp) ? ++Succeeded : ++Trapped;
    }
  }
  // The corpus must exercise both paths: mostly-successful runs with some
  // genuine traps, or the trap-parity half of the property is vacuous.
  EXPECT_GT(Succeeded, NumSeeds);
  EXPECT_GT(Trapped, 0u);
}

TEST(Differential, GeneratedWorkloadsAgreeAcrossTiers) {
  // The open-world generator draws from a different program family than
  // the statement fuzzer: deep call spines, loop nests whose trip counts
  // scale with the input, and heavy call traffic.  The same four-tier
  // agreement must hold there — and the programs are trap-free by
  // construction, so every tier must *succeed* with the same value.
  for (uint64_t Seed = SeedBase; Seed != SeedBase + 20; ++Seed) {
    SCOPED_TRACE("genseed=" + std::to_string(Seed));
    wl::GenSpec Spec;
    Spec.Seed = Seed;
    Spec.HotMethods = 2 + static_cast<int>(Seed % 3);
    Spec.CallDepth = 2 + static_cast<int>(Seed % 3);
    Spec.LoopDepth = 1 + static_cast<int>(Seed % 3);
    Spec.MinWork = 16;
    Spec.MaxWork = 256;
    auto G = wl::generateWorkload(Spec);
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    const bc::Module &M = G->W.Module;

    for (size_t InputIdx : {size_t{0}, G->W.Inputs.size() - 1}) {
      const std::vector<bc::Value> &Args = G->W.Inputs[InputIdx].VmArgs;
      auto runArgsAtLevel = [&](OptLevel L) {
        TimingModel TM;
        ForceLevelPolicy Policy(L);
        ExecutionEngine Engine(M, TM, &Policy);
        return Engine.run(Args, MaxCycles);
      };
      auto Interp = runArgsAtLevel(OptLevel::Baseline);
      ASSERT_TRUE(static_cast<bool>(Interp))
          << "genseed=" << Seed << " input=" << InputIdx
          << " trapped in the interpreter: " << Interp.getError().message();
      for (int L = 1; L <= 3; ++L) {
        auto Compiled = runArgsAtLevel(levelFromIndex(L));
        ASSERT_TRUE(static_cast<bool>(Compiled))
            << "genseed=" << Seed << " input=" << InputIdx << " O" << L - 1
            << " trapped: " << Compiled.getError().message();
        ASSERT_TRUE(
            valuesEquivalent(Interp->ReturnValue, Compiled->ReturnValue))
            << "genseed=" << Seed << " input=" << InputIdx << " O" << L - 1
            << ": interp=" << Interp->ReturnValue.str()
            << " compiled=" << Compiled->ReturnValue.str();
      }
    }
  }
}

TEST(Differential, TracedPipelineIsDeterministic) {
  // Tracing must be a pure observer: attaching a recorder to the adaptive
  // engine changes neither results nor virtual time, and two identical
  // traced runs produce byte-identical event streams.
  for (uint64_t Seed = SeedBase; Seed != SeedBase + 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    auto MOrErr = wl::generateRandomProgram(Seed);
    ASSERT_TRUE(static_cast<bool>(MOrErr));
    const bc::Module &M = *MOrErr;

    auto runTraced = [&](TraceRecorder *Tracer) {
      TimingModel TM;
      AdaptivePolicy Policy(TM, Tracer);
      ExecutionEngine Engine(M, TM, &Policy);
      Engine.setTracer(Tracer);
      return Engine.run({bc::Value::makeInt(11)}, MaxCycles);
    };

    TraceRecorder TracerA, TracerB;
    TracerA.setEnabled(true);
    TracerB.setEnabled(true);
    auto Untraced = runTraced(nullptr);
    auto A = runTraced(&TracerA);
    auto B = runTraced(&TracerB);
    ASSERT_EQ(static_cast<bool>(Untraced), static_cast<bool>(A))
        << "seed=" << Seed;
    if (!Untraced)
      continue;
    EXPECT_EQ(Untraced->Cycles, A->Cycles) << "seed=" << Seed;
    EXPECT_TRUE(valuesEquivalent(Untraced->ReturnValue, A->ReturnValue))
        << "seed=" << Seed;
    TraceMeta Meta;
    EXPECT_EQ(renderJsonlTrace(TracerA.exportOrder(), Meta),
              renderJsonlTrace(TracerB.exportOrder(), Meta))
        << "seed=" << Seed;
  }
}
