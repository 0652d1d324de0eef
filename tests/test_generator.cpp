//===- tests/test_generator.cpp - Open-world generator property suite -----==//
//
// Property tests of workloads/Generator: every generated module verifies,
// generation is byte-deterministic (serial reruns and concurrent threads),
// the declared structure (call-graph depth/fan-out, hot set, input stream,
// drift phases) is realized, and the confidence guard recovers from a
// generated phase change.
//
// The default seed sweep is sized for the quick lane; the FULL-labelled
// ctest entry re-runs this binary with EVM_GEN_SWEEP_SEEDS=500 (the issue's
// contract) via the environment.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Assembler.h"
#include "harness/Scenario.h"
#include "vm/Engine.h"
#include "workloads/Generator.h"
#include "workloads/RandomProgram.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <set>
#include <thread>

using namespace evm;

namespace {

size_t sweepSeeds() {
  if (const char *Env = std::getenv("EVM_GEN_SWEEP_SEEDS")) {
    long N = std::atol(Env);
    if (N > 0)
      return static_cast<size_t>(N);
  }
  return 60; // quick lane
}

/// A spread of spec shapes so sweeps cover the parameter space.
wl::GenSpec sweepSpec(uint64_t Seed) {
  wl::GenSpec S;
  S.Seed = Seed;
  S.HotMethods = 1 + static_cast<int>(Seed % 5);
  S.ColdMethods = static_cast<int>(Seed % 4);
  S.CallDepth = 2 + static_cast<int>(Seed % 4);
  S.FanOut = 2 + static_cast<int>(Seed % 3);
  S.LoopDepth = 1 + static_cast<int>(Seed % 3);
  S.NumInputs = 6 + Seed % 6;
  S.NumRuns = 12;
  S.MinWork = 16;
  S.MaxWork = 512;
  S.Coupling = 1.0 - 0.1 * static_cast<double>(Seed % 4);
  switch (Seed % 3) {
  case 0:
    S.Drift = wl::DriftKind::None;
    break;
  case 1:
    S.Drift = wl::DriftKind::Flip;
    break;
  default:
    S.Drift = wl::DriftKind::Walk;
    break;
  }
  if (S.FanOut > S.HotMethods + S.ColdMethods)
    S.FanOut = S.HotMethods + S.ColdMethods;
  if (S.FanOut < 2)
    S.FanOut = 2;
  while ((S.CallDepth - 1) * (S.FanOut - 1) + S.FanOut <
         S.HotMethods + S.ColdMethods)
    ++S.CallDepth;
  if (S.HotMethods + S.ColdMethods < 2)
    S.ColdMethods = 1;
  return S;
}

std::string fingerprintOf(const wl::GenSpec &S) {
  auto G = wl::generateWorkload(S);
  if (!G)
    return "generator error: " + G.getError().message();
  return wl::workloadFingerprint(*G, wl::makeGenRunOrder(S));
}

//===----------------------------------------------------------------------===//
// GenSpec round-trip + validation
//===----------------------------------------------------------------------===//

TEST(GenSpec, ParseRenderRoundTrip) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    wl::GenSpec S = sweepSpec(Seed);
    auto Parsed = wl::parseGenSpec(wl::renderGenSpec(S));
    ASSERT_TRUE(static_cast<bool>(Parsed))
        << Parsed.getError().message() << " for " << wl::renderGenSpec(S);
    EXPECT_TRUE(S == *Parsed) << wl::renderGenSpec(S);
  }
}

TEST(GenSpec, DefaultsAreValid) {
  EXPECT_TRUE(wl::validateGenSpec(wl::GenSpec()).message().empty());
  auto Parsed = wl::parseGenSpec("");
  ASSERT_TRUE(static_cast<bool>(Parsed));
  EXPECT_TRUE(wl::GenSpec() == *Parsed);
}

TEST(GenSpec, RejectsMalformedAndInvalid) {
  for (const char *Bad :
       {"nonsense", "hot", "hot=0", "depth=1", "fanout=1", "coupling=2",
        "driftat=0", "driftat=1", "drift=sideways", "minwork=0",
        "minwork=100,maxwork=10", "unknown=1",
        "hot=20,cold=20,depth=2,fanout=2"}) {
    auto Parsed = wl::parseGenSpec(Bad);
    EXPECT_FALSE(static_cast<bool>(Parsed)) << Bad;
  }
}

//===----------------------------------------------------------------------===//
// Verifier + determinism sweeps
//===----------------------------------------------------------------------===//

TEST(Generator, SweepVerifiesEveryModule) {
  // Every emitted module must round-trip ModuleBuilder::build, which runs
  // bytecode/Verifier over every function; re-assembling the disassembly
  // proves the textual form is loadable too.
  size_t Seeds = sweepSeeds();
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    wl::GenSpec S = sweepSpec(Seed);
    auto G = wl::generateWorkload(S);
    ASSERT_TRUE(static_cast<bool>(G))
        << "seed " << Seed << ": " << G.getError().message();
    auto Reassembled =
        bc::assembleModule(bc::disassembleModule(G->W.Module));
    EXPECT_TRUE(static_cast<bool>(Reassembled))
        << "seed " << Seed << ": " << Reassembled.getError().message();
  }
}

TEST(Generator, SameSeedIsByteIdentical) {
  size_t Seeds = std::min<size_t>(sweepSeeds(), 40);
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    wl::GenSpec S = sweepSpec(Seed);
    EXPECT_EQ(fingerprintOf(S), fingerprintOf(S)) << "seed " << Seed;
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  EXPECT_NE(fingerprintOf(sweepSpec(3)), fingerprintOf(sweepSpec(4)));
}

TEST(Generator, ConcurrentGenerationIsByteIdentical) {
  wl::GenSpec S = sweepSpec(11);
  std::string Reference = fingerprintOf(S);
  std::vector<std::string> Got(8);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Got.size(); ++T)
    Threads.emplace_back([&, T] { Got[T] = fingerprintOf(S); });
  for (std::thread &Th : Threads)
    Th.join();
  for (size_t T = 0; T != Got.size(); ++T)
    EXPECT_EQ(Got[T], Reference) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Declared structure is realized
//===----------------------------------------------------------------------===//

TEST(Generator, CallGraphShapeMatchesSpec) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    wl::GenSpec S = sweepSpec(Seed);
    auto G = wl::generateWorkload(S);
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    wl::CallGraphStats Stats = wl::analyzeCallGraph(G->W.Module);
    // main + (depth-1) trunks + every hot/cold method are all reachable.
    EXPECT_EQ(Stats.ReachableMethods,
              static_cast<size_t>(S.CallDepth + S.HotMethods +
                                  S.ColdMethods))
        << wl::renderGenSpec(S);
    EXPECT_EQ(Stats.Depth, S.CallDepth) << wl::renderGenSpec(S);
    EXPECT_EQ(Stats.MaxFanOut, S.FanOut) << wl::renderGenSpec(S);
  }
}

TEST(Generator, HotSetDominatesExecution) {
  // The declared hot methods must actually be where the cycles go: on the
  // largest input, every hot kernel must out-cost every cold method.
  wl::GenSpec S;
  S.Seed = 42;
  S.MinWork = 1024;
  S.MaxWork = 4096;
  auto G = wl::generateWorkload(S);
  ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();

  size_t Largest = 0;
  for (size_t I = 0; I != G->W.Inputs.size(); ++I)
    if (G->W.Inputs[I].VmArgs[0].asInt() >
        G->W.Inputs[Largest].VmArgs[0].asInt())
      Largest = I;
  vm::TimingModel TM;
  vm::ExecutionEngine Engine(G->W.Module, TM, nullptr);
  auto RR = Engine.run(G->W.Inputs[Largest].VmArgs);
  ASSERT_TRUE(static_cast<bool>(RR)) << RR.getError().message();
  ASSERT_EQ(RR->PerMethod.size(),
            static_cast<size_t>(G->W.Module.numFunctions()));

  auto CyclesOf = [&](bc::MethodId M) {
    return RR->PerMethod[M].baselineEquivalentCycles(TM);
  };
  double MinHot = 1e300, MaxCold = 0;
  for (bc::MethodId Hot : G->HotMethods)
    MinHot = std::min(MinHot, CyclesOf(Hot));
  for (bc::MethodId Cold : G->ColdMethods)
    MaxCold = std::max(MaxCold, CyclesOf(Cold));
  EXPECT_GT(MinHot, MaxCold);
}

TEST(Generator, InputStreamRealizesSpec) {
  for (uint64_t Seed : {2ULL, 7ULL, 13ULL}) {
    wl::GenSpec S = sweepSpec(Seed);
    S.Drift = wl::DriftKind::Flip;
    auto G = wl::generateWorkload(S);
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    ASSERT_EQ(G->W.Inputs.size(), S.NumInputs);
    EXPECT_GT(G->PhaseSplit, 0u);
    EXPECT_LT(G->PhaseSplit, S.NumInputs);
    for (size_t I = 0; I != G->W.Inputs.size(); ++I) {
      const wl::InputCase &In = G->W.Inputs[I];
      ASSERT_EQ(In.VmArgs.size(), 3u);
      int64_t Size = In.VmArgs[0].asInt();
      int64_t Scale = In.VmArgs[1].asInt();
      EXPECT_GE(Size, S.MinWork);
      EXPECT_LE(Size, S.MaxWork);
      EXPECT_EQ(Scale, I < G->PhaseSplit ? S.ScaleA : S.ScaleB);
      // The command line advertises exactly the visible features.
      char Expect[64];
      std::snprintf(Expect, sizeof(Expect), "gen -n %lld -s %lld",
                    static_cast<long long>(Size),
                    static_cast<long long>(Scale));
      EXPECT_EQ(In.CommandLine, Expect);
      if (S.Coupling >= 1.0) {
        EXPECT_EQ(In.VmArgs[2].asInt(), 0);
      }
    }
  }
}

TEST(Generator, RunOrderRespectsDriftPhases) {
  wl::GenSpec S = sweepSpec(7);
  S.Drift = wl::DriftKind::Flip;
  S.NumRuns = 30;
  auto G = wl::generateWorkload(S);
  ASSERT_TRUE(static_cast<bool>(G));
  std::vector<size_t> Order = wl::makeGenRunOrder(S);
  ASSERT_EQ(Order.size(), S.NumRuns);
  size_t SplitRun = static_cast<size_t>(
      static_cast<double>(S.NumRuns) * S.DriftAt + 0.5);
  std::set<size_t> PhaseA, PhaseB;
  for (size_t I = 0; I != Order.size(); ++I) {
    ASSERT_LT(Order[I], S.NumInputs);
    if (I < SplitRun) {
      EXPECT_LT(Order[I], G->PhaseSplit) << "run " << I;
      PhaseA.insert(Order[I]);
    } else {
      EXPECT_GE(Order[I], G->PhaseSplit) << "run " << I;
      PhaseB.insert(Order[I]);
    }
  }
  EXPECT_FALSE(PhaseA.empty());
  EXPECT_FALSE(PhaseB.empty());
}

TEST(Generator, WalkOrderSlidesUpward) {
  wl::GenSpec S = sweepSpec(5);
  S.Drift = wl::DriftKind::Walk;
  S.NumRuns = 40;
  auto G = wl::generateWorkload(S);
  ASSERT_TRUE(static_cast<bool>(G));
  // Walk sorts inputs by size, so input indices are size ranks; the early
  // window must draw lower ranks than the late window on average.
  std::vector<size_t> Order = wl::makeGenRunOrder(S);
  double Early = 0, Late = 0;
  size_t Half = Order.size() / 2;
  for (size_t I = 0; I != Half; ++I)
    Early += static_cast<double>(Order[I]);
  for (size_t I = Half; I != Order.size(); ++I)
    Late += static_cast<double>(Order[I]);
  EXPECT_LT(Early / static_cast<double>(Half),
            Late / static_cast<double>(Order.size() - Half));
  for (size_t I = 1; I != G->W.Inputs.size(); ++I)
    EXPECT_LE(G->W.Inputs[I - 1].VmArgs[0].asInt(),
              G->W.Inputs[I].VmArgs[0].asInt());
}

//===----------------------------------------------------------------------===//
// Scenario integration: generated apps run trap-free and learn
//===----------------------------------------------------------------------===//

TEST(Generator, ScenariosRunTrapFree) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    wl::GenSpec S = sweepSpec(Seed);
    auto G = wl::generateWorkload(S);
    ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();
    harness::ExperimentConfig C;
    C.Seed = S.Seed;
    C.NumRuns = S.NumRuns;
    // ScenarioRunner asserts trap-freedom internally; surviving all three
    // scenarios is the property.
    harness::ScenarioRunner Runner(G->W, C);
    std::vector<size_t> Order = wl::makeGenRunOrder(S);
    EXPECT_EQ(Runner.runDefault(Order).Runs.size(), Order.size());
    EXPECT_EQ(Runner.runRep(Order).Runs.size(), Order.size());
    EXPECT_EQ(Runner.runEvolve(Order).Runs.size(), Order.size());
  }
}

TEST(Generator, DriftGuardFallsBackAndRecovers) {
  // The drift regression: a flip-drift stream whose phase change flips the
  // feature->best-level mapping.  The pre-drift tree must mispredict after
  // the flip (accuracy drops), the confidence guard must close (a post-
  // drift run has a prediction the guard refuses), and steady state must
  // recover to at least AOS within the stream.
  wl::GenSpec S;
  S.Seed = 9007;
  S.Drift = wl::DriftKind::Flip;
  S.DriftAt = 0.4;
  S.NumRuns = 40;
  S.ScaleB = 32;
  auto G = wl::generateWorkload(S);
  ASSERT_TRUE(static_cast<bool>(G)) << G.getError().message();

  harness::ExperimentConfig C;
  C.Seed = S.Seed;
  C.NumRuns = S.NumRuns;
  harness::ScenarioRunner Runner(G->W, C);
  std::vector<size_t> Order = wl::makeGenRunOrder(S);
  harness::ScenarioResult Evolve = Runner.runEvolve(Order);
  ASSERT_EQ(Evolve.Runs.size(), S.NumRuns);

  size_t DriftRun = static_cast<size_t>(
      static_cast<double>(S.NumRuns) * S.DriftAt + 0.5);

  // Pre-drift, the learner converged: late phase-A runs used predictions.
  bool PreDriftPredicted = false;
  for (size_t I = DriftRun / 2; I != DriftRun; ++I)
    PreDriftPredicted |= Evolve.Runs[I].UsedPrediction;
  EXPECT_TRUE(PreDriftPredicted);

  // The flip hurts: decayed accuracy right after the drift point falls
  // below the pre-drift level.
  double PreAcc = Evolve.Runs[DriftRun - 1].Accuracy;
  double MinPostAcc = 1.0;
  for (size_t I = DriftRun; I != std::min(DriftRun + 8, S.NumRuns); ++I)
    MinPostAcc = std::min(MinPostAcc, Evolve.Runs[I].Accuracy);
  EXPECT_LT(MinPostAcc, PreAcc);

  // Graceful degradation: the guard closes on at least one post-drift run
  // (prediction present, not acted on) instead of mispredicting forever.
  bool GuardClosed = false;
  for (size_t I = DriftRun; I != S.NumRuns; ++I)
    GuardClosed |= Evolve.Runs[I].HadPrediction &&
                   !Evolve.Runs[I].UsedPrediction;
  EXPECT_TRUE(GuardClosed);

  // Bounded recovery: the final window's mean speedup is back at >= AOS.
  double Tail = 0;
  const size_t Window = 6;
  for (size_t I = S.NumRuns - Window; I != S.NumRuns; ++I)
    Tail += Evolve.Runs[I].SpeedupVsDefault;
  EXPECT_GE(Tail / Window, 1.0);
}

//===----------------------------------------------------------------------===//
// The random-program core shared with the fuzzer clients
//===----------------------------------------------------------------------===//

TEST(RandomProgram, TrapFreeModeAvoidsTrappingOpcodes) {
  // AllowTraps=false must keep Div, shifts, and float constants out of the
  // expression stream — that is what generated cold methods rely on.  Mod
  // still appears, but only as `expr mod HeapSize` in heap addressing,
  // where the divisor is a nonzero constant (never a trap); every Mod must
  // therefore directly follow a positive ConstInt.
  wl::RandomProgramOptions O;
  O.AllowTraps = false;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    auto M = wl::generateRandomProgram(Seed, O);
    ASSERT_TRUE(static_cast<bool>(M)) << M.getError().message();
    for (uint32_t F = 0; F != M->numFunctions(); ++F) {
      const auto &Code = M->function(F).Code;
      for (size_t I = 0; I != Code.size(); ++I) {
        EXPECT_NE(Code[I].Op, bc::Opcode::Div);
        EXPECT_NE(Code[I].Op, bc::Opcode::Shl);
        EXPECT_NE(Code[I].Op, bc::Opcode::Shr);
        EXPECT_NE(Code[I].Op, bc::Opcode::ConstFloat);
        if (Code[I].Op == bc::Opcode::Mod) {
          ASSERT_GT(I, 0u);
          EXPECT_EQ(Code[I - 1].Op, bc::Opcode::ConstInt);
          EXPECT_GT(Code[I - 1].Operand, 0);
        }
      }
    }
  }
}

} // namespace
