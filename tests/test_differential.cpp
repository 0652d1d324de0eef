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

#include "support/Profiler.h"
#include "support/Trace.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "vm/Policy.h"
#include "workloads/Generator.h"
#include "workloads/RandomProgram.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

using namespace evm;
using namespace evm::vm;
using evm::test::ForceLevelPolicy;

namespace {

constexpr uint64_t NumSeeds = 200;
constexpr uint64_t SeedBase = 20090301; // fixed: CI runs are reproducible
constexpr uint64_t MaxCycles = 500000000ULL;

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

/// FNV-1a over everything a run makes observable, fed little-endian so the
/// digest does not depend on the host's byte order.
class Fingerprint {
public:
  void u64(uint64_t V) {
    for (int K = 0; K != 8; ++K) {
      H ^= (V >> (8 * K)) & 0xff;
      H *= 1099511628211ULL;
    }
  }
  void str(const std::string &S) {
    u64(S.size());
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ULL;
    }
  }
  void value(const bc::Value &V) {
    u64(static_cast<uint64_t>(V.kind()));
    if (V.isInt()) {
      u64(static_cast<uint64_t>(V.asInt()));
    } else {
      double F = V.asFloat();
      uint64_t Bits;
      std::memcpy(&Bits, &F, sizeof Bits);
      u64(Bits);
    }
  }
  /// The result (or trap message), then the trace and profile if given.
  void run(const ErrorOr<RunResult> &R, const bc::Module &M,
           const TraceRecorder *Tracer, const PhaseProfiler *Prof) {
    if (R) {
      u64(1);
      value(R->ReturnValue);
      u64(R->Cycles);
      str(R->Metrics.renderJson());
      u64(R->PerMethod.size());
      for (const MethodStats &S : R->PerMethod) {
        u64(S.Samples);
        u64(S.Invocations);
        u64(static_cast<uint64_t>(S.NumCompiles));
        u64(static_cast<uint64_t>(levelIndex(S.FinalLevel)));
        for (uint64_t C : S.CyclesByLevel)
          u64(C);
      }
      u64(R->Compiles.size());
      for (const CompileEvent &E : R->Compiles) {
        u64(E.Method);
        u64(static_cast<uint64_t>(levelIndex(E.Level)));
        u64(E.CostCycles);
      }
    } else {
      u64(0);
      str(R.getError().message());
    }
    if (Tracer) {
      TraceMeta Meta;
      for (size_t Id = 0; Id != M.numFunctions(); ++Id)
        Meta.MethodNames.push_back(M.function(Id).Name);
      str(renderJsonlTrace(Tracer->exportOrder(), Meta));
    }
    if (Prof)
      str(Prof->snapshot().renderJson());
  }
  uint64_t digest() const { return H; }

private:
  uint64_t H = 14695981039346656037ULL;
};

/// One observable run on a caller's engine: sets the policy (and tracer or
/// profiler), runs once, and fingerprints the result.
using RunStep = std::function<void(ExecutionEngine &, Fingerprint &)>;

/// The adaptive policy under an installed profiler; with \p PinMethod0,
/// method 0 runs pinned at O0, so the policy raises pinned code.
RunStep profiledAdaptiveStep(const bc::Module &M,
                             const std::vector<bc::Value> &Args,
                             bool PinMethod0) {
  return [&M, &Args, PinMethod0](ExecutionEngine &E, Fingerprint &FP) {
    PhaseProfiler Prof;
    ProfilerInstallGuard Guard(&Prof);
    AdaptivePolicy Policy(E.timingModel());
    E.setPolicy(&Policy);
    if (PinMethod0)
      E.setCodeOverride(0, std::make_shared<jit::CompiledFunction>(
                               jit::compileAtLevel(M, 0, OptLevel::O0)));
    FP.run(E.run(Args, MaxCycles, 0, 12345), M, nullptr, &Prof);
    E.setCodeOverride(0, nullptr);
  };
}

/// Every accounting path of the compiled tiers on one module and argument
/// list: forced O0-O2, the adaptive policy traced at three sample phases,
/// forced O1 fenced so a FuelExhausted trap lands inside the run (traced
/// and profiled, since a trap returns only its message), and the adaptive
/// policy under an installed profiler.
std::vector<RunStep> accountingSteps(const bc::Module &M,
                                     const std::vector<bc::Value> &Args) {
  std::vector<RunStep> Steps;
  for (int L = 1; L <= 3; ++L)
    Steps.push_back([&M, &Args, L](ExecutionEngine &E, Fingerprint &FP) {
      ForceLevelPolicy Policy(levelFromIndex(L));
      E.setPolicy(&Policy);
      FP.run(E.run(Args, MaxCycles), M, nullptr, nullptr);
    });
  for (uint64_t Phase : {uint64_t{0}, uint64_t{12345}, uint64_t{49999}})
    Steps.push_back([&M, &Args, Phase](ExecutionEngine &E, Fingerprint &FP) {
      TraceRecorder Tracer;
      Tracer.setEnabled(true);
      AdaptivePolicy Policy(E.timingModel(), &Tracer);
      E.setPolicy(&Policy);
      E.setTracer(&Tracer);
      FP.run(E.run(Args, MaxCycles, 0, Phase), M, &Tracer, nullptr);
      E.setTracer(nullptr);
    });
  TimingModel TM;
  ForceLevelPolicy O1Policy(OptLevel::O1);
  ExecutionEngine O1Engine(M, TM, &O1Policy);
  if (auto ForcedO1 = O1Engine.run(Args, MaxCycles)) {
    uint64_t C = ForcedO1->Cycles;
    // Half the clock; halfway through the cycles not spent compiling,
    // which lands the trap in a compiled frame; and the very last charge
    // (a trap set by the final slot's charge still lets that slot return,
    // so the run succeeds).
    for (uint64_t Fence :
         {C / 2, (C + ForcedO1->compileCycles()) / 2, C - 1})
      Steps.push_back([&M, &Args, Fence](ExecutionEngine &E, Fingerprint &FP) {
        TraceRecorder Tracer;
        Tracer.setEnabled(true);
        PhaseProfiler Prof;
        ProfilerInstallGuard Guard(&Prof);
        ForceLevelPolicy Policy(OptLevel::O1);
        E.setPolicy(&Policy);
        E.setTracer(&Tracer);
        FP.run(E.run(Args, Fence), M, &Tracer, &Prof);
        E.setTracer(nullptr);
      });
  }
  Steps.push_back(profiledAdaptiveStep(M, Args, false));
  return Steps;
}

/// Fingerprints every accounting path, each on a fresh engine.
void fingerprintModule(Fingerprint &FP, const bc::Module &M,
                       const std::vector<bc::Value> &Args) {
  TimingModel TM;
  for (const RunStep &Step : accountingSteps(M, Args)) {
    ExecutionEngine Engine(M, TM, nullptr);
    Step(Engine, FP);
  }
}

/// Digests the accounting paths of every argument list, plus a profiled
/// adaptive run with method 0 pinned, twice: all on one engine (warm, so
/// later installs reuse the code earlier ones built), and each on a fresh
/// engine (cold).  Before its step the cold engine makes as many runs as
/// the warm one had made, under no policy and one cycle of fuel: they trap
/// before installing anything, and align the traced run ordinals.
std::pair<uint64_t, uint64_t>
warmAndColdDigests(const bc::Module &M,
                   const std::vector<std::vector<bc::Value>> &ArgLists) {
  TimingModel TM;
  ExecutionEngine Warm(M, TM, nullptr);
  Fingerprint WarmFP, ColdFP;
  uint64_t PriorRuns = 0;
  for (const std::vector<bc::Value> &Args : ArgLists) {
    std::vector<RunStep> Steps = accountingSteps(M, Args);
    Steps.push_back(profiledAdaptiveStep(M, Args, true));
    for (const RunStep &Step : Steps) {
      Step(Warm, WarmFP);
      ExecutionEngine Cold(M, TM, nullptr);
      for (uint64_t K = 0; K != PriorRuns; ++K)
        EXPECT_FALSE(static_cast<bool>(Cold.run(Args, 1)));
      Step(Cold, ColdFP);
      ++PriorRuns;
    }
  }
  return {WarmFP.digest(), ColdFP.digest()};
}

/// The generated-workload specs the differential tests share.
wl::GenSpec workloadSpec(uint64_t Seed) {
  wl::GenSpec Spec;
  Spec.Seed = Seed;
  Spec.HotMethods = 2 + static_cast<int>(Seed % 3);
  Spec.CallDepth = 2 + static_cast<int>(Seed % 3);
  Spec.LoopDepth = 1 + static_cast<int>(Seed % 3);
  Spec.MinWork = 16;
  Spec.MaxWork = 256;
  return Spec;
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
    auto G = wl::generateWorkload(workloadSpec(Seed));
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

TEST(Differential, CompiledTierAccountingPinned) {
  // Exact virtual accounting of the compiled tiers, pinned against digests
  // recorded from the tree-walking IR executor that preceded the slot
  // executor: every cycle, sample, compile event, trace event and profile
  // row must come out the same.  One digest per seed: the 200 fuzzer
  // modules over inputs {0, 3, 17}, then the 20 generated workloads over
  // their first and last inputs.
  static const uint64_t Pinned[NumSeeds + 20] = {
      0x95c9ed08a7d12d60ULL, 0xa85ff34e6ac2cbc9ULL, 0x0784ffe325f8b997ULL,
      0x60f2f4e78249faa6ULL, 0xa1328b46a470ee45ULL, 0x251b78eca886c1f6ULL,
      0x363f0d677ca36577ULL, 0x6d625dc59410c5e5ULL, 0xa01ed383baeea353ULL,
      0xcfc755f5270611c9ULL, 0x1c22081f4362cd58ULL, 0xb9964e60f76af975ULL,
      0x71b54a46e0ccf969ULL, 0xb2982e18fcc19ffbULL, 0xadabffc3ebd42a73ULL,
      0x58f8541a33e1e558ULL, 0xa6f408cbb7d7fb74ULL, 0x5f87fa5211dbd8c2ULL,
      0xcddb99d219ffd47dULL, 0xec5a81701e9923feULL, 0x732849b99c6ff389ULL,
      0x51d6ddb03a7f3edcULL, 0xd4eac4b63f994045ULL, 0x5481e8fcb0d18891ULL,
      0xef9087bfea2b8869ULL, 0xbc7b6a7bd9cf1757ULL, 0xb2d41b6760709e6bULL,
      0xc0f542ee28b5c72cULL, 0x32d8a761ba89e29eULL, 0x6550039777b9d706ULL,
      0xb753de71a88edfb5ULL, 0x1128fcc356347479ULL, 0xba10079ee0fd93faULL,
      0x13931688ef00ef4dULL, 0xea1aeb2574b561d9ULL, 0xe478b2b087095ebaULL,
      0x0e363418fa5d2d31ULL, 0xda1a6b9825aaf4d2ULL, 0xf5225af25bebc3dbULL,
      0x9b83e1e2348a212eULL, 0x9cf4e70dbd858b4aULL, 0x88020cd22785b8c3ULL,
      0xc9ebd8d5e698a011ULL, 0xa2aeba86659c49e2ULL, 0x2e69a8017d9577d4ULL,
      0xf0e5fb584b326df4ULL, 0xe61c20cd37e59152ULL, 0x03c274d8cb6206c7ULL,
      0x743652417e425d83ULL, 0x1232fb5ee9c25648ULL, 0xc97bffc6988b3f76ULL,
      0xff42c0077a775437ULL, 0x7309d336aac7427dULL, 0xe46db459d4ebef90ULL,
      0x114126a06dde4a8aULL, 0x6abdff23f6d2c4fcULL, 0x3977083a90c42cb1ULL,
      0x9cf20bf3b2a1097fULL, 0x42d50856242f0d61ULL, 0xa083495f18f3d672ULL,
      0xd9908f4e31a87aaeULL, 0x5db9919e1969ff47ULL, 0x1f028a89b7629a30ULL,
      0xdb0c9e72f2d98faeULL, 0xa4e3b7d4e964e511ULL, 0x4b1981dc2f8205abULL,
      0x15c4949bd6658577ULL, 0x4987b4e2b568b4a9ULL, 0x74c0dabba276f214ULL,
      0x8016be777d6a0726ULL, 0x2b48dd8655fe5184ULL, 0x8c44860d24643f7eULL,
      0x906c21f3c7b1a1dcULL, 0xeb83a7b7dfd5ccdcULL, 0xd4b694c18709178cULL,
      0x983d268bbf996e3eULL, 0xb7421149264f269fULL, 0x716ca109502e6ff5ULL,
      0xce0c16e32a045319ULL, 0xfd2333173ff316c8ULL, 0xf188050eed37a71dULL,
      0x1d7d1780d2d1759fULL, 0x87de4b5eb91c808fULL, 0x89000abf1e4cfc33ULL,
      0xa3f870371f34c920ULL, 0x13bac55002d1b471ULL, 0xbb5f2d8f14f35a38ULL,
      0x5f649f4054e564dbULL, 0x36e4622b19a18d72ULL, 0xb12ebca5f7f52060ULL,
      0xbc0068d0c60f2ec3ULL, 0xd5be2231ef82c1d5ULL, 0xc0c4ff86ca5a0af7ULL,
      0xce6fdd2c8bff7449ULL, 0x3b8aa0bb19191774ULL, 0x34c04096e95e976aULL,
      0xf25fd5377abd9a0fULL, 0x8c7f4e17dfe7d255ULL, 0x8223e8159aa76ce4ULL,
      0xdf47efc549408eebULL, 0x8203c15065597812ULL, 0xd8c922836b341aebULL,
      0x8d86fce67e5e0eabULL, 0xb98a1aa38896a92eULL, 0x74c7e9bb4bd4d222ULL,
      0xf2cc7f5d3926017eULL, 0x81dc5a13417b1941ULL, 0xdbcb069d714f1971ULL,
      0x8f80903fc7dfac0cULL, 0x9123f11951a13440ULL, 0x876012da067a44b9ULL,
      0x44c9aef16a6a96afULL, 0x6fc539ee0ba1c033ULL, 0x33a3af97ecca134bULL,
      0x73250cfc1a0f1f94ULL, 0xc54e6503c55e2b55ULL, 0xb64b916f004f7d8aULL,
      0x39b7b9a637ac4f3dULL, 0xa5460ac614b1d449ULL, 0x74ea9cc2ece73e34ULL,
      0x31f655e67e9c381bULL, 0x803d459b1e8abf9fULL, 0x3f747724209a967aULL,
      0x0f556c2b88fc853fULL, 0x44f1187d7d235166ULL, 0xfdd8bed7ea0409c1ULL,
      0x7ec6d1acec4b4266ULL, 0x51e628e5a0e9b791ULL, 0xe25b2608ad0792e2ULL,
      0xc9310f82b1569c9aULL, 0x86051df9f5376a15ULL, 0x3ecbb4358c9ee1b9ULL,
      0x15374d87b8702f07ULL, 0xe90b52de4fe7036fULL, 0xa8c8ebe5c574a6b1ULL,
      0x6e6e5f443c186b86ULL, 0x00a5f2ffa41f3a4dULL, 0x8bdb12dbee9e5843ULL,
      0xffdeef67d797cf8aULL, 0xec9c133126b75295ULL, 0x56edcdd92ddf17b1ULL,
      0xa16234dce1e874a5ULL, 0x5e44953e07765e16ULL, 0xb3ebc2af25b66c89ULL,
      0x7ec8643e6283a88dULL, 0x22c47cfc56db802fULL, 0x87d86d9d61140789ULL,
      0xa9c02f996e8298faULL, 0x1f671cb2cfcb3b2eULL, 0x70196d0459f62813ULL,
      0xe74c604954176369ULL, 0xe5758094699ffeefULL, 0x37bf99b422161010ULL,
      0x48c479cb9a9dafbfULL, 0x80b173541782df95ULL, 0xda58396f73555aa9ULL,
      0x7e41571d1c721ef4ULL, 0x61c4369cfe1eae85ULL, 0xb1dbd9edfe71bc5fULL,
      0x7918509fc1c3b02cULL, 0x88ffcfd5d071b4c5ULL, 0xe5d13c9abcfa0e2dULL,
      0x6f2e41bcfed5017aULL, 0x20c3c7fd2d9932bcULL, 0x36c24dfae03165c6ULL,
      0x1b12cae325b337d4ULL, 0xb8d564e6933f6a18ULL, 0xfc4b1790880df5e9ULL,
      0x91bc2e2cb2a87762ULL, 0xf3f05df03c0a2032ULL, 0xf8033aa107baa697ULL,
      0x81e180393003c6b1ULL, 0xee582222568928b5ULL, 0x581aa832b11c2e9fULL,
      0x0bd0967bba730884ULL, 0xc82b0147d2d68a6dULL, 0xe3cbb1e3c7a9d28cULL,
      0xc2732fcf51062470ULL, 0x0e4cf6e36dc5b0aaULL, 0xb142d1c790a8f17cULL,
      0x6e956406fefefed9ULL, 0x80d2cc33a49c92bcULL, 0xda10f48f251e7a2bULL,
      0xed8950938b7dbaceULL, 0x3315939255b85b11ULL, 0x89ba3e4da52c8619ULL,
      0x2ae503468d6b32e4ULL, 0xd99307926669e147ULL, 0x5de5a898204dfe7bULL,
      0x9796077a7cbd7d17ULL, 0x889e58be29456868ULL, 0x209f1092085ce6efULL,
      0x71a4c2bb5469ef0eULL, 0x078e575107ee13f0ULL, 0x49db7ef864855052ULL,
      0xe13f9d165d9577eaULL, 0x02aecf7b276eb1c3ULL, 0xeb16211c1defc812ULL,
      0xa7f7a66a3d0e62b2ULL, 0x5892c4d777a2d420ULL, 0xa0329a1a11118aceULL,
      0xcb5a4b5b805ef008ULL, 0xa5a41cdc3cebadf2ULL, 0x9d38d76c55b63303ULL,
      0xbd4868bc0b8c49b7ULL, 0x5c10378ba081a336ULL, 0xe2563149197f42a9ULL,
      0x2119419e334eaba2ULL, 0xd8ec635733a9fee9ULL, 0xda69537f805ba736ULL,
      0xab4cbabaef5ab375ULL, 0xb38351de7fa06cd7ULL, 0x782ceff51270fae4ULL,
      0xab5da8d7f56f5508ULL, 0xd3b2102c6281963aULL, 0x667e753f6a8edf9dULL,
      0xeb0622ca6850ce03ULL, 0x13ce02ccfc0605d0ULL, 0xcd0bf8c9cbf58ba8ULL,
      0x145b28beeadedc86ULL
  };
  std::vector<uint64_t> Got;
  for (uint64_t Seed = SeedBase; Seed != SeedBase + NumSeeds; ++Seed) {
    auto MOrErr = wl::generateRandomProgram(Seed);
    ASSERT_TRUE(static_cast<bool>(MOrErr)) << "seed=" << Seed;
    Fingerprint FP;
    for (int64_t Input : {0, 3, 17})
      fingerprintModule(FP, *MOrErr, {bc::Value::makeInt(Input)});
    Got.push_back(FP.digest());
  }
  for (uint64_t Seed = SeedBase; Seed != SeedBase + 20; ++Seed) {
    auto G = wl::generateWorkload(workloadSpec(Seed));
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    Fingerprint FP;
    for (size_t InputIdx : {size_t{0}, G->W.Inputs.size() - 1})
      fingerprintModule(FP, G->W.Module, G->W.Inputs[InputIdx].VmArgs);
    Got.push_back(FP.digest());
  }
  for (size_t K = 0; K != Got.size(); ++K) {
    bool Workload = K >= NumSeeds;
    EXPECT_EQ(Got[K], Pinned[K])
        << (Workload ? "genseed=" : "seed=")
        << SeedBase + (Workload ? K - NumSeeds : K);
  }
}

TEST(Differential, FusedSlotBoundariesPinned) {
  // The compiled-code executor runs some adjacent slots in one dispatch
  // (an operator and the Mov, CondJump, HLoad or Jump that consumes it,
  // a Mov and its Jump), while each slot keeps its own cost.  A fuel
  // trap or a sample tick must still land between the same two slots as
  // when every slot had its own dispatch.  Each module below runs with
  // every method pinned at O1 and then at O2 (no compile lumps, so every
  // cycle is compiled execution): fenced at each of its last 2,000
  // cycles (profiled, since a trap returns only its message), and traced
  // at sample intervals 7, 11 and 13 at every phase, so that fences and
  // ticks land between the halves of every fused pair.  The modules were
  // chosen because, between them, their pinned runs execute every fused
  // shape at both levels, and a compare fused with its CondJump for each
  // of the six compares.  The digests were recorded before fusion, with
  // one slot per dispatch.
  struct Case {
    bool Generated; ///< a generated workload, else a fuzzer module
    uint64_t Seed;
    int64_t Input; ///< fuzzer: main's argument; workload: input index
  };
  static const Case Cases[] = {
      {true, 20090301, 0},   {true, 20090311, 0},   {true, 20090313, 15},
      {true, 20090314, 15},  {true, 20090316, 0},   {true, 20090317, 15},
      {false, 20090303, 3},  {false, 20090314, 0},  {false, 20090330, 0},
      {false, 20090339, 0},  {false, 20090354, 0},  {false, 20090357, 0},
      {false, 20090373, 0},  {false, 20090427, 0},  {false, 20090432, 0},
      {false, 20090458, 0},  {false, 20090473, 3},
  };
  static const uint64_t Pinned[2 * std::size(Cases)] = {
      0x9ac54b0179f3035dULL, 0x135dde3c21d72f33ULL, 0xddcb4557ec82273eULL,
      0xc3886b78128895beULL, 0x2b3836a5a1242e0aULL, 0x3278de752c546cf0ULL,
      0x53e0fba8c0a0bb43ULL, 0x1d87dbe17a1be894ULL, 0x27573d8d79b212b7ULL,
      0x3bd24ac6c73ba8b8ULL, 0x1ce0bf47ed2158a1ULL, 0xd192d4ef0e7f776bULL,
      0x3f1a055c73329ad7ULL, 0xe0eb4b73eacf11a4ULL, 0x58959ce7476538b7ULL,
      0x56dab35dbc1884cfULL, 0xd90dfdf7df8be24aULL, 0x01c3f3d68a1c4a1dULL,
      0x803fcf5788b3fa81ULL, 0xef750f9996c89b39ULL, 0x8f464677f5cb34f7ULL,
      0x344a2130fa072c69ULL, 0x1eddb1ea4c0628faULL, 0xe9bcb271f4d39fa2ULL,
      0xdfb49d731dc40fc0ULL, 0x081a736eec940febULL, 0x809905d05eb82374ULL,
      0x78361b595435e3b7ULL, 0xfdb8041601a2ef7cULL, 0xb51f9bd586d5b0adULL,
      0x3a888108fc8c475dULL, 0x7d35ec4412a4a3abULL, 0x6ee7e0a5df6a5c0aULL,
      0xcb4e8cfd02b3a03eULL
  };
  constexpr uint64_t NumFences = 2000;
  std::vector<uint64_t> Got;
  for (const Case &C : Cases) {
    bc::Module M;
    std::vector<bc::Value> Args;
    if (C.Generated) {
      auto G = wl::generateWorkload(workloadSpec(C.Seed));
      ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
      M = G->W.Module;
      Args = G->W.Inputs[static_cast<size_t>(C.Input)].VmArgs;
    } else {
      auto MOrErr = wl::generateRandomProgram(C.Seed);
      ASSERT_TRUE(static_cast<bool>(MOrErr)) << "seed=" << C.Seed;
      M = *MOrErr;
      Args = {bc::Value::makeInt(C.Input)};
    }
    for (OptLevel L : {OptLevel::O1, OptLevel::O2}) {
      auto pinnedEngine = [&](const TimingModel &TM) {
        auto E = std::make_unique<ExecutionEngine>(M, TM, nullptr);
        for (bc::MethodId Id = 0; Id != M.numFunctions(); ++Id)
          E->setCodeOverride(Id, std::make_shared<jit::CompiledFunction>(
                                     jit::compileAtLevel(M, Id, L)));
        return E;
      };
      Fingerprint FP;
      TimingModel TM;
      std::unique_ptr<ExecutionEngine> E = pinnedEngine(TM);
      ErrorOr<RunResult> Full = E->run(Args, MaxCycles);
      ASSERT_TRUE(static_cast<bool>(Full)) << Full.getError().message();
      FP.run(Full, M, nullptr, nullptr);
      uint64_t Cycles = Full->Cycles;
      for (uint64_t Fence = Cycles - std::min(Cycles, NumFences);
           Fence != Cycles; ++Fence) {
        PhaseProfiler Prof;
        ProfilerInstallGuard Guard(&Prof);
        FP.run(E->run(Args, Fence), M, nullptr, &Prof);
      }
      for (uint64_t Interval : {7, 11, 13}) {
        TimingModel Sampled;
        Sampled.SampleIntervalCycles = Interval;
        std::unique_ptr<ExecutionEngine> ES = pinnedEngine(Sampled);
        for (uint64_t Phase = 0; Phase != Interval; ++Phase) {
          TraceRecorder Tracer;
          Tracer.setEnabled(true);
          ES->setTracer(&Tracer);
          FP.run(ES->run(Args, MaxCycles, 0, Phase), M, &Tracer, nullptr);
        }
      }
      Got.push_back(FP.digest());
    }
  }
  for (size_t K = 0; K != Got.size(); ++K) {
    const Case &C = Cases[K / 2];
    EXPECT_EQ(Got[K], Pinned[K])
        << (C.Generated ? "genseed=" : "seed=") << C.Seed
        << " input=" << C.Input << " O" << 1 + K % 2;
  }
}

TEST(Differential, ReusedCodeMatchesFreshCompile) {
  // An engine compiles and lowers each (method, level) once and reuses the
  // code in every later install, in the same run or a later one, while
  // charging each install as a fresh compile.  Running the accounting
  // paths in turn on one engine must then digest exactly like running
  // each on a fresh engine: cycles, stats, compile events, traces and
  // profile rows, including the per-pass split of each compile's cost.
  auto Inputs = [](std::initializer_list<int64_t> Values) {
    std::vector<std::vector<bc::Value>> Lists;
    for (int64_t V : Values)
      Lists.push_back({bc::Value::makeInt(V)});
    return Lists;
  };
  for (uint64_t Seed = SeedBase; Seed != SeedBase + NumSeeds; ++Seed) {
    auto MOrErr = wl::generateRandomProgram(Seed);
    ASSERT_TRUE(static_cast<bool>(MOrErr)) << "seed=" << Seed;
    auto [Warm, Cold] = warmAndColdDigests(*MOrErr, Inputs({0, 3, 17}));
    EXPECT_EQ(Warm, Cold) << "seed=" << Seed;
  }
  for (uint64_t Seed = SeedBase; Seed != SeedBase + 20; ++Seed) {
    auto G = wl::generateWorkload(workloadSpec(Seed));
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    auto [Warm, Cold] = warmAndColdDigests(
        G->W.Module,
        {G->W.Inputs.front().VmArgs, G->W.Inputs.back().VmArgs});
    EXPECT_EQ(Warm, Cold) << "genseed=" << Seed;
  }
}
