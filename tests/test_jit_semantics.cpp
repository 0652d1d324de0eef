//===- tests/test_jit_semantics.cpp - Cross-tier equivalence properties ---==//
//
// The JIT's central correctness property: for every program in the corpus,
// every optimization level, and a sweep of inputs, compiled execution
// produces exactly the value the interpreter produces.  Parameterized over
// (program, level, input).
//
//===----------------------------------------------------------------------===//

#include "vm/Engine.h"
#include "vm/Policy.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::vm;
using evm::test::assemble;
using evm::test::ForceLevelPolicy;

namespace {

/// Runs the program with every method pinned at \p L.
ErrorOr<RunResult> runAtLevel(const bc::Module &M, OptLevel L,
                              int64_t Input) {
  TimingModel TM;
  ForceLevelPolicy Policy(L);
  ExecutionEngine Engine(M, TM, &Policy);
  return Engine.run({bc::Value::makeInt(Input)}, 2000000000ULL);
}

struct Case {
  size_t ProgramIndex;
  int LevelIndex; // 1..3 -> O0..O2
  int64_t Input;
};

class JitEquivalence : public ::testing::TestWithParam<Case> {};

} // namespace

TEST_P(JitEquivalence, CompiledMatchesInterpreter) {
  const Case &C = GetParam();
  const auto &[Name, Source] = test::programCorpus()[C.ProgramIndex];
  SCOPED_TRACE(Name);
  bc::Module M = assemble(Source);

  auto Interp = runAtLevel(M, OptLevel::Baseline, C.Input);
  auto Compiled = runAtLevel(M, levelFromIndex(C.LevelIndex), C.Input);
  ASSERT_TRUE(static_cast<bool>(Interp)) << Interp.getError().message();
  ASSERT_TRUE(static_cast<bool>(Compiled)) << Compiled.getError().message();
  EXPECT_TRUE(Interp->ReturnValue.equals(Compiled->ReturnValue))
      << "interp=" << Interp->ReturnValue.str()
      << " compiled=" << Compiled->ReturnValue.str();
}

namespace {

std::vector<Case> makeCases() {
  std::vector<Case> Cases;
  const int64_t Inputs[] = {0, 1, 2, 7, 13, 22};
  for (size_t P = 0; P != test::programCorpus().size(); ++P)
    for (int L = 1; L <= 3; ++L)
      for (int64_t In : Inputs)
        Cases.push_back(Case{P, L, In});
  return Cases;
}

std::string caseName(const ::testing::TestParamInfo<Case> &Info) {
  const Case &C = Info.param;
  return std::string(test::programCorpus()[C.ProgramIndex].first) + "_O" +
         std::to_string(C.LevelIndex - 1) + "_in" +
         std::to_string(C.Input);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Corpus, JitEquivalence,
                         ::testing::ValuesIn(makeCases()), caseName);

//===----------------------------------------------------------------------===//
// Performance-order property: higher levels execute fewer-or-equal cycles
// at steady state (compile cost excluded via long runs).
//===----------------------------------------------------------------------===//

TEST(JitPerformance, LevelsAreFasterThanBaseline) {
  // The float-heavy kernel benefits most; check the cycle ordering
  // baseline > O0 >= O1 >= O2 (with generous slack for O1/O2 compile cost).
  bc::Module M = assemble(test::programCorpus()[3].second); // float_math
  const int64_t N = 30000;
  // Compare steady-state execution (compile cost excluded): higher levels
  // must run the same work in fewer cycles.
  uint64_t Cycles[4];
  for (int L = 0; L != 4; ++L) {
    auto R = runAtLevel(M, levelFromIndex(L), N);
    ASSERT_TRUE(static_cast<bool>(R));
    Cycles[L] = R->Cycles - R->compileCycles();
  }
  EXPECT_GT(Cycles[0], Cycles[1]);
  EXPECT_GT(Cycles[1], Cycles[2]);
  EXPECT_GE(Cycles[2], Cycles[3]);
  // Baseline should be at least 2x slower than O0 on dispatch-heavy code.
  EXPECT_GT(static_cast<double>(Cycles[0]) / Cycles[1], 1.6);
}

TEST(JitPerformance, TrapsAgreeAcrossTiers) {
  // A program that traps (div by zero on input 0) must trap in every tier.
  bc::Module M = assemble("func main(1)\n  const_i 100\n  load_local 0\n"
                          "  div\n  ret\nend\n");
  for (int L = 0; L != 4; ++L) {
    auto R = runAtLevel(M, levelFromIndex(L), 0);
    EXPECT_FALSE(static_cast<bool>(R)) << "level " << L - 1;
    if (!R) {
      EXPECT_NE(R.getError().message().find("division by zero"),
                std::string::npos);
    }
  }
  // And succeed identically on a non-trapping input.
  for (int L = 0; L != 4; ++L) {
    auto R = runAtLevel(M, levelFromIndex(L), 4);
    ASSERT_TRUE(static_cast<bool>(R));
    EXPECT_EQ(R->ReturnValue.asInt(), 25);
  }
}

TEST(JitPerformance, MixedTiersInteroperate) {
  // main at O2 calling a baseline helper and vice versa produce the same
  // result: pin only the *even* methods.
  bc::Module M = assemble(test::programCorpus()[5].second); // helper_calls
  class EvenOnly : public CompilationPolicy {
  public:
    std::optional<OptLevel>
    onFirstInvocation(const MethodRuntimeInfo &Info) override {
      if (Info.Id % 2 == 0)
        return OptLevel::O2;
      return std::nullopt;
    }
  };
  TimingModel TM;
  EvenOnly Policy;
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(9)}, 2000000000ULL);
  ASSERT_TRUE(static_cast<bool>(R));
  auto Want = runAtLevel(M, OptLevel::Baseline, 9);
  EXPECT_TRUE(R->ReturnValue.equals(Want->ReturnValue));
}

namespace {

/// rec(n) keeps 29 locals live across its self-call, so every compiled
/// frame is wide and a deep recursion grows the engine's register arena
/// many times while callers still hold frames in it.
bc::Module deepRecursion() {
  std::string Src = "func main(1) locals 1\n  load_local 0\n  call rec\n"
                    "  ret\nend\nfunc rec(1) locals 30\n  load_local 0\n"
                    "  br_true recurse\n  const_i 0\n  ret\nrecurse:\n";
  for (int K = 1; K != 30; ++K)
    Src += "  load_local 0\n  const_i " + std::to_string(K) +
           "\n  mul\n  store_local " + std::to_string(K) + "\n";
  Src += "  load_local 0\n  const_i 1\n  sub\n  call rec\n";
  for (int K = 1; K != 30; ++K)
    Src += "  load_local " + std::to_string(K) + "\n  add\n";
  Src += "  ret\nend\n";
  return assemble(Src);
}

} // namespace

TEST(JitPerformance, DeepCompiledRecursion) {
  bc::Module M = deepRecursion();
  // rec(n) = sum_{m=1..n} 435 m.  The cycle counts were recorded from the
  // tree-walking IR executor, before frames moved to the register arena.
  const int64_t Depth = 510;
  const uint64_t WantCycles[3] = {297139, 440535, 1321535};
  for (int L = 1; L <= 3; ++L) {
    SCOPED_TRACE("O" + std::to_string(L - 1));
    auto R = runAtLevel(M, levelFromIndex(L), Depth);
    ASSERT_TRUE(static_cast<bool>(R)) << R.getError().message();
    EXPECT_EQ(R->ReturnValue.asInt(), 435 * Depth * (Depth + 1) / 2);
    EXPECT_EQ(R->Cycles, WantCycles[L - 1]);
    auto Deeper = runAtLevel(M, levelFromIndex(L), 600);
    ASSERT_FALSE(static_cast<bool>(Deeper));
    EXPECT_NE(Deeper.getError().message().find("call depth exceeded"),
              std::string::npos);
  }
}
