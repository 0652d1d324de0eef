//===- tests/test_costbenefit.cpp - Recompilation economics ---------------==//

#include "vm/AOS.h"
#include "vm/CostBenefit.h"
#include "vm/Timing.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::vm;

namespace {

TimingModel model() { return TimingModel(); }

} // namespace

TEST(TimingModelTest, LevelIndexRoundTrip) {
  for (int I = 0; I != NumOptLevels; ++I)
    EXPECT_EQ(levelIndex(levelFromIndex(I)), I);
  EXPECT_EQ(levelIndex(OptLevel::Baseline), 0);
  EXPECT_EQ(levelIndex(OptLevel::O2), 3);
}

TEST(TimingModelTest, LevelNames) {
  EXPECT_STREQ(levelName(OptLevel::Baseline), "-1");
  EXPECT_STREQ(levelName(OptLevel::O2), "2");
}

TEST(TimingModelTest, CompileCostMonotoneInLevelAndSize) {
  TimingModel TM = model();
  for (int I = 1; I != NumOptLevels; ++I)
    EXPECT_GT(TM.compileCost(levelFromIndex(I), 100),
              TM.compileCost(levelFromIndex(I - 1), 100));
  EXPECT_GT(TM.compileCost(OptLevel::O2, 200),
            TM.compileCost(OptLevel::O2, 100));
}

TEST(TimingModelTest, ExpectedSpeedupMonotone) {
  TimingModel TM = model();
  for (int I = 1; I != NumOptLevels; ++I)
    EXPECT_GT(TM.expectedSpeedup(levelFromIndex(I)),
              TM.expectedSpeedup(levelFromIndex(I - 1)));
  EXPECT_DOUBLE_EQ(TM.expectedSpeedup(OptLevel::Baseline), 1.0);
}

TEST(TimingModelTest, ScalarOpCosts) {
  EXPECT_GT(scalarOpCost(bc::Opcode::Sin), scalarOpCost(bc::Opcode::Mul));
  EXPECT_GT(scalarOpCost(bc::Opcode::Mul), scalarOpCost(bc::Opcode::Add));
  EXPECT_GT(scalarOpCost(bc::Opcode::Div), scalarOpCost(bc::Opcode::Mul));
}

TEST(TimingModelTest, ToSeconds) {
  TimingModel TM = model();
  EXPECT_DOUBLE_EQ(TM.toSeconds(static_cast<uint64_t>(TM.CyclesPerSecond)),
                   1.0);
}

//===----------------------------------------------------------------------===//
// chooseRecompileLevel
//===----------------------------------------------------------------------===//

TEST(CostBenefitTest, ColdMethodStaysPut) {
  TimingModel TM = model();
  // Tiny future: no level pays for its compilation.
  EXPECT_FALSE(chooseRecompileLevel(TM, OptLevel::Baseline, 1000, 100)
                   .has_value());
}

TEST(CostBenefitTest, HotMethodGetsTopLevel) {
  TimingModel TM = model();
  // An enormous future justifies the most aggressive level.
  auto L = chooseRecompileLevel(TM, OptLevel::Baseline, 1ULL << 33, 100);
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(*L, OptLevel::O2);
}

TEST(CostBenefitTest, MediumMethodGetsMiddleLevel) {
  TimingModel TM = model();
  // Find some future length where the answer is strictly between.
  bool SawMiddle = false;
  for (uint64_t Future = 1u << 14; Future < (1ULL << 32); Future *= 2) {
    auto L = chooseRecompileLevel(TM, OptLevel::Baseline, Future, 100);
    if (L && (*L == OptLevel::O0 || *L == OptLevel::O1))
      SawMiddle = true;
  }
  EXPECT_TRUE(SawMiddle);
}

TEST(CostBenefitTest, NeverDowngrades) {
  TimingModel TM = model();
  auto L = chooseRecompileLevel(TM, OptLevel::O2, 1ULL << 33, 100);
  EXPECT_FALSE(L.has_value()); // already at top
}

TEST(CostBenefitTest, DecisionMonotoneInFuture) {
  TimingModel TM = model();
  int LastIndex = -1;
  for (uint64_t Future = 1u << 12; Future < (1ULL << 34); Future *= 2) {
    auto L = chooseRecompileLevel(TM, OptLevel::Baseline, Future, 120);
    int Index = L ? levelIndex(*L) : 0;
    EXPECT_GE(Index, LastIndex) << "future " << Future;
    LastIndex = Index;
  }
}

TEST(CostBenefitTest, BiggerMethodsNeedMoreEvidence) {
  TimingModel TM = model();
  // At a fixed future, a small method may be worth optimizing while a huge
  // one is not.
  uint64_t Future = 1u << 19;
  auto Small = chooseRecompileLevel(TM, OptLevel::Baseline, Future, 20);
  auto Huge = chooseRecompileLevel(TM, OptLevel::Baseline, Future, 5000);
  int SmallIdx = Small ? levelIndex(*Small) : 0;
  int HugeIdx = Huge ? levelIndex(*Huge) : 0;
  EXPECT_GE(SmallIdx, HugeIdx);
}

//===----------------------------------------------------------------------===//
// idealLevelForMethod
//===----------------------------------------------------------------------===//

TEST(IdealLevelTest, NeverRunIsBaseline) {
  EXPECT_EQ(idealLevelForMethod(model(), 0, 100), OptLevel::Baseline);
}

TEST(IdealLevelTest, MonotoneInRunTime) {
  TimingModel TM = model();
  int LastIndex = -1;
  for (double T = 1e3; T < 1e10; T *= 2) {
    int Index = levelIndex(idealLevelForMethod(TM, T, 150));
    EXPECT_GE(Index, LastIndex);
    LastIndex = Index;
  }
  EXPECT_EQ(LastIndex, levelIndex(OptLevel::O2));
}

TEST(IdealLevelTest, AllFourLevelsReachable) {
  TimingModel TM = model();
  bool Seen[NumOptLevels] = {false, false, false, false};
  for (double T = 1; T < 1e11; T *= 1.5)
    Seen[levelIndex(idealLevelForMethod(TM, T, 150))] = true;
  for (int I = 0; I != NumOptLevels; ++I)
    EXPECT_TRUE(Seen[I]) << "level index " << I << " never ideal";
}

TEST(IdealLevelTest, IdealMinimizesTotalCost) {
  TimingModel TM = model();
  // Brute-force check the argmin property at several run lengths.
  for (double T : {5e4, 5e5, 5e6, 5e7}) {
    OptLevel Best = idealLevelForMethod(TM, T, 100);
    auto TotalCost = [&](OptLevel L) {
      double Execution = T / TM.expectedSpeedup(L);
      double Compile = L == OptLevel::Baseline
                           ? 0
                           : static_cast<double>(TM.compileCost(L, 100));
      return Execution + Compile;
    };
    for (int I = 0; I != NumOptLevels; ++I)
      EXPECT_LE(TotalCost(Best), TotalCost(levelFromIndex(I)) + 1e-9);
  }
}

//===----------------------------------------------------------------------===//
// AdaptivePolicy
//===----------------------------------------------------------------------===//

TEST(AdaptivePolicyTest, EscalatesWithSamples) {
  TimingModel TM = model();
  AdaptivePolicy Policy(TM);
  MethodRuntimeInfo Info;
  Info.Id = 0;
  Info.BytecodeSize = 100;
  Info.Level = OptLevel::Baseline;

  Info.Samples = 1;
  auto First = Policy.onSample(Info);
  Info.Samples = 1000;
  auto Later = Policy.onSample(Info);
  ASSERT_TRUE(Later.has_value());
  EXPECT_EQ(*Later, OptLevel::O2);
  if (First) {
    EXPECT_LE(levelIndex(*First), levelIndex(*Later));
  }
}

TEST(AdaptivePolicyTest, NoDecisionAtTopLevel) {
  TimingModel TM = model();
  AdaptivePolicy Policy(TM);
  MethodRuntimeInfo Info;
  Info.Samples = 100000;
  Info.Level = OptLevel::O2;
  Info.BytecodeSize = 100;
  EXPECT_FALSE(Policy.onSample(Info).has_value());
}

//===----------------------------------------------------------------------===//
// CombinedPolicy
//===----------------------------------------------------------------------===//

namespace {

class FixedPolicy : public CompilationPolicy {
public:
  explicit FixedPolicy(std::optional<OptLevel> L) : L(L) {}
  std::optional<OptLevel> onSample(const MethodRuntimeInfo &) override {
    return L;
  }
  std::optional<OptLevel>
  onFirstInvocation(const MethodRuntimeInfo &) override {
    return L;
  }

private:
  std::optional<OptLevel> L;
};

} // namespace

TEST(CombinedPolicyTest, TakesHigherRecommendation) {
  FixedPolicy Low(OptLevel::O0), High(OptLevel::O2), None(std::nullopt);
  MethodRuntimeInfo Info;
  {
    CombinedPolicy P(&Low, &High);
    EXPECT_EQ(*P.onSample(Info), OptLevel::O2);
  }
  {
    CombinedPolicy P(&High, &Low);
    EXPECT_EQ(*P.onSample(Info), OptLevel::O2);
  }
  {
    CombinedPolicy P(&None, &Low);
    EXPECT_EQ(*P.onSample(Info), OptLevel::O0);
  }
  {
    CombinedPolicy P(&None, &None);
    EXPECT_FALSE(P.onSample(Info).has_value());
  }
}
