//===- tests/test_evolve.cpp - Strategies, models, the evolvable VM -------==//

#include "evolve/EvolvableVM.h"
#include "evolve/EvolvePolicy.h"
#include "evolve/ModelBuilder.h"
#include "evolve/Repository.h"
#include "evolve/Strategy.h"
#include "ml/CrossValidation.h"

#include "ReferenceTree.h"
#include "TestHelpers.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

using namespace evm;
using namespace evm::evolve;
using vm::MethodStats;
using vm::OptLevel;
using vm::TimingModel;
using xicl::Feature;
using xicl::FeatureVector;

namespace {

MethodStats statsWithSamples(uint64_t Samples, const TimingModel &TM,
                             OptLevel RanAt = OptLevel::Baseline) {
  MethodStats S;
  S.Samples = Samples;
  S.CyclesByLevel[vm::levelIndex(RanAt)] = Samples * TM.SampleIntervalCycles;
  return S;
}

FeatureVector fvOf(double Size) {
  FeatureVector FV;
  FV.append(Feature::numeric("size", Size));
  return FV;
}

} // namespace

//===----------------------------------------------------------------------===//
// Strategy and accuracy metric
//===----------------------------------------------------------------------===//

TEST(StrategyTest, LevelForOutOfRangeIsBaseline) {
  MethodLevelStrategy S;
  S.Levels = {OptLevel::O2};
  EXPECT_EQ(S.levelFor(0), OptLevel::O2);
  EXPECT_EQ(S.levelFor(9), OptLevel::Baseline);
}

TEST(StrategyTest, AccuracyIsTimeWeighted) {
  // Paper formula: sum of T_m over correct methods / total.
  TimingModel TM;
  MethodLevelStrategy Pred, Ideal;
  Pred.Levels = {OptLevel::O2, OptLevel::O0, OptLevel::Baseline};
  Ideal.Levels = {OptLevel::O2, OptLevel::O1, OptLevel::Baseline};
  std::vector<MethodStats> Profile = {statsWithSamples(90, TM),
                                      statsWithSamples(10, TM),
                                      statsWithSamples(0, TM)};
  // Correct on m0 (90 samples) and m2 (0 samples); wrong on m1 (10).
  EXPECT_DOUBLE_EQ(predictionAccuracy(Pred, Ideal, Profile), 0.9);
}

TEST(StrategyTest, EmptyProfileScoresOne) {
  MethodLevelStrategy Pred, Ideal;
  Pred.Levels = {OptLevel::O0};
  Ideal.Levels = {OptLevel::O2};
  std::vector<MethodStats> Profile = {MethodStats()};
  EXPECT_DOUBLE_EQ(predictionAccuracy(Pred, Ideal, Profile), 1.0);
}

TEST(StrategyTest, IdealStrategyFromProfile) {
  TimingModel TM;
  std::vector<MethodStats> Profile = {
      statsWithSamples(0, TM),    // never ran -> Baseline
      statsWithSamples(2, TM),    // brief -> low tier
      statsWithSamples(2000, TM), // hot -> O2
  };
  std::vector<size_t> Sizes = {50, 50, 50};
  MethodLevelStrategy Ideal = idealStrategyFromProfile(TM, Profile, Sizes);
  EXPECT_EQ(Ideal.Levels[0], OptLevel::Baseline);
  EXPECT_NE(Ideal.Levels[1], OptLevel::Baseline);
  EXPECT_EQ(Ideal.Levels[2], OptLevel::O2);
  EXPECT_LE(vm::levelIndex(Ideal.Levels[1]), vm::levelIndex(Ideal.Levels[2]));
}

TEST(StrategyTest, StrRendering) {
  MethodLevelStrategy S;
  S.Levels = {OptLevel::Baseline, OptLevel::O2};
  EXPECT_EQ(S.str(), "m0:-1 m1:2");
}

//===----------------------------------------------------------------------===//
// EvolvePolicy
//===----------------------------------------------------------------------===//

TEST(EvolvePolicyTest, AppliesRightAfterBaseline) {
  MethodLevelStrategy S;
  S.Levels = {OptLevel::O1, OptLevel::Baseline};
  EvolvePolicy P(S);
  vm::MethodRuntimeInfo Info;
  Info.Id = 0;
  EXPECT_EQ(*P.onFirstInvocation(Info), OptLevel::O1);
  Info.Id = 1;
  EXPECT_FALSE(P.onFirstInvocation(Info).has_value());
  // No reactive decisions at sample time.
  EXPECT_FALSE(P.onSample(Info).has_value());
}

//===----------------------------------------------------------------------===//
// ModelBuilder
//===----------------------------------------------------------------------===//

TEST(ModelBuilderTest, NoPredictionBeforeRebuild) {
  ModelBuilder MB(2);
  EXPECT_FALSE(MB.predict(fvOf(1)).has_value());
}

TEST(ModelBuilderTest, LearnsSizeThresholdPerMethod) {
  ModelBuilder MB(2);
  // Method 0: O2 when size >= 50; method 1: always baseline.
  for (int I = 0; I != 30; ++I) {
    double Size = I * 4;
    MethodLevelStrategy Ideal;
    Ideal.Levels = {Size >= 50 ? OptLevel::O2 : OptLevel::O0,
                    OptLevel::Baseline};
    MB.addRun(fvOf(Size), Ideal);
  }
  MB.rebuild();
  auto Small = MB.predict(fvOf(10));
  auto Big = MB.predict(fvOf(110));
  ASSERT_TRUE(Small.has_value());
  ASSERT_TRUE(Big.has_value());
  EXPECT_EQ(Small->Levels[0], OptLevel::O0);
  EXPECT_EQ(Big->Levels[0], OptLevel::O2);
  EXPECT_EQ(Small->Levels[1], OptLevel::Baseline);
  EXPECT_EQ(Big->Levels[1], OptLevel::Baseline);
}

TEST(ModelBuilderTest, ConstantMethodsUseConstantModel) {
  ModelBuilder MB(1);
  for (int I = 0; I != 5; ++I) {
    MethodLevelStrategy Ideal;
    Ideal.Levels = {OptLevel::O1};
    MB.addRun(fvOf(I), Ideal);
  }
  MB.rebuild();
  PredictionStats Stats;
  auto P = MB.predict(fvOf(99), &Stats);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Levels[0], OptLevel::O1);
  EXPECT_EQ(Stats.Trees, 0u); // constant predictor, no tree walk
}

TEST(ModelBuilderTest, UsedFeatureNamesReflectTrees) {
  ModelBuilder MB(1);
  for (int I = 0; I != 30; ++I) {
    FeatureVector FV = fvOf(I * 3);
    FV.append(Feature::numeric("-q.val", 0)); // constant noise feature
    MethodLevelStrategy Ideal;
    Ideal.Levels = {I * 3 >= 40 ? OptLevel::O2 : OptLevel::O0};
    MB.addRun(FV, Ideal);
  }
  MB.rebuild();
  auto Used = MB.usedFeatureNames();
  EXPECT_TRUE(Used.count("size"));
  EXPECT_FALSE(Used.count("-q.val"));
  EXPECT_EQ(MB.numRawFeatures(), 2u);
}

TEST(ModelBuilderTest, PredictionStatsMeterWork) {
  ModelBuilder MB(1);
  for (int I = 0; I != 30; ++I) {
    MethodLevelStrategy Ideal;
    Ideal.Levels = {I % 2 ? OptLevel::O0 : OptLevel::O2};
    MB.addRun(fvOf(I), Ideal);
  }
  MB.rebuild();
  PredictionStats Stats;
  MB.predict(fvOf(3), &Stats);
  EXPECT_EQ(Stats.Trees, 1u);
  EXPECT_GT(Stats.TreeNodesVisited, 0u);
  EXPECT_GT(Stats.toCycles(), 0u);
}

TEST(ModelBuilderTest, RebuildAndCrossValidationMatchReference) {
  // 240 runs over five methods: one constant, one tied to a numeric size
  // (with label noise), one to a categorical mode, one to adjacent
  // doubles, and one to noise alone.  A feature that appears at run 100
  // reads 0 in earlier rows.
  const size_t NumMethods = 5;
  ModelBuilder MB(NumMethods);
  Rng R(20091017);
  const char *Modes[] = {"fast", "slow", "mixed"};
  const double Ratios[] = {1.0, std::nextafter(1.0, 2.0),
                           std::nextafter(1.0, 0.0), 1.5};
  const OptLevel Levels[] = {OptLevel::Baseline, OptLevel::O0, OptLevel::O1,
                             OptLevel::O2};
  for (int Run = 0; Run != 240; ++Run) {
    double Size = static_cast<double>(R.nextInt(0, 30) * 10);
    const char *Mode = Modes[R.nextInt(0, 2)];
    double Ratio = Ratios[R.nextInt(0, 3)];
    FeatureVector FV;
    FV.append(Feature::numeric("size", Size));
    FV.append(Feature::categorical("mode", Mode));
    FV.append(Feature::numeric("ratio", Ratio));
    if (Run >= 100)
      FV.append(Feature::numeric("late", R.nextDouble(0, 1)));
    MethodLevelStrategy Ideal;
    Ideal.Levels = {
        OptLevel::O0,
        (Size >= 150) != R.nextBool(0.05) ? OptLevel::O2 : OptLevel::O0,
        Mode[0] == 's' ? OptLevel::O1 : OptLevel::Baseline,
        Ratio > 1.0 ? OptLevel::O2 : OptLevel::O1,
        Levels[R.nextInt(0, 3)]};
    MB.addRun(FV, Ideal);
  }
  MB.rebuild();

  const ml::Dataset &D = MB.encodedRuns();
  std::vector<ExportedMethodModel> Models = MB.exportModels();
  ASSERT_EQ(Models.size(), NumMethods);
  RebuildStats Want;
  ml::SortedColumns Table(D);
  Rng Got(7), Ref(7), Cv(7);
  double RefSum = 0;
  for (size_t M = 0; M != NumMethods; ++M) {
    SCOPED_TRACE("method " + std::to_string(M));
    std::vector<int> Column;
    for (const std::vector<int> &Row : MB.labelRows())
      Column.push_back(Row[M]);
    Want.ExamplesScanned += Column.size();
    if (std::count(Column.begin(), Column.end(), Column[0]) ==
        static_cast<long>(Column.size())) {
      EXPECT_TRUE(Models[M].Constant);
      EXPECT_EQ(Models[M].ConstantLabel, Column[0]);
      RefSum += 1.0;
      continue;
    }
    auto Tree = reftree::build(D, Column, reftree::allRows(D),
                               ml::TreeParams());
    EXPECT_FALSE(Models[M].Constant);
    EXPECT_EQ(Models[M].Tree, reftree::serialize(Tree.get()));
    ++Want.TreesBuilt;
    Want.NodesBuilt += reftree::numNodes(Tree.get());

    double RefCv = reftree::kFoldAccuracy(D, Column, 5, Ref);
    EXPECT_EQ(ml::kFoldAccuracy(Table, Column, 5, Got), RefCv);
    RefSum += RefCv;
  }
  EXPECT_EQ(Want.TreesBuilt, 4u);
  EXPECT_EQ(MB.lastRebuildStats().TreesBuilt, Want.TreesBuilt);
  EXPECT_EQ(MB.lastRebuildStats().NodesBuilt, Want.NodesBuilt);
  EXPECT_EQ(MB.lastRebuildStats().ExamplesScanned, Want.ExamplesScanned);

  EXPECT_EQ(MB.crossValidatedAccuracy(5, Cv),
            RefSum / static_cast<double>(NumMethods));
  uint64_t RefNext = Ref.next();
  EXPECT_EQ(Got.next(), RefNext);
  EXPECT_EQ(Cv.next(), RefNext);
}

//===----------------------------------------------------------------------===//
// Repository (Rep baseline)
//===----------------------------------------------------------------------===//

TEST(RepositoryTest, EmptyRepositoryYieldsEmptyStrategy) {
  TimingModel TM;
  ProfileRepository Repo(TM);
  EXPECT_TRUE(Repo.deriveStrategy({100, 100}).empty());
}

TEST(RepositoryTest, HotMethodGetsEarlyHighTrigger) {
  TimingModel TM;
  ProfileRepository Repo(TM);
  for (int Run = 0; Run != 5; ++Run) {
    std::vector<MethodStats> Profile = {statsWithSamples(500, TM),
                                        statsWithSamples(0, TM)};
    Repo.addRun(Profile);
  }
  RepStrategy S = Repo.deriveStrategy({80, 80});
  ASSERT_EQ(S.PerMethod.size(), 2u);
  ASSERT_EQ(S.PerMethod[0].size(), 1u);
  EXPECT_EQ(S.PerMethod[0][0].Level, OptLevel::O2);
  EXPECT_LE(S.PerMethod[0][0].SampleCount, 8u); // fires early
  EXPECT_TRUE(S.PerMethod[1].empty()); // cold method: no trigger
}

TEST(RepositoryTest, ShortMethodsGetNoTrigger) {
  TimingModel TM;
  ProfileRepository Repo(TM);
  std::vector<MethodStats> Profile = {statsWithSamples(1, TM)};
  Repo.addRun(Profile);
  RepStrategy S = Repo.deriveStrategy({3000});
  // One sample of a huge method never pays for optimized compilation.
  EXPECT_TRUE(S.PerMethod[0].empty());
}

TEST(RepositoryTest, MixedHistoryAverages) {
  TimingModel TM;
  ProfileRepository Repo(TM);
  // Method hot in half the runs, idle in the others.
  for (int Run = 0; Run != 10; ++Run) {
    std::vector<MethodStats> Profile = {
        statsWithSamples(Run % 2 ? 400 : 0, TM)};
    Repo.addRun(Profile);
  }
  RepStrategy S = Repo.deriveStrategy({80});
  ASSERT_FALSE(S.PerMethod[0].empty());
  // The trigger guards against the idle runs: it cannot be k=0, and the
  // chosen level reflects the average benefit.
  EXPECT_GE(S.PerMethod[0][0].SampleCount, 1u);
}

TEST(RepPolicyTest, FiresExactlyAtTriggerCount) {
  RepStrategy S;
  S.PerMethod = {{RepTrigger{3, OptLevel::O1}}};
  RepPolicy P(S);
  vm::MethodRuntimeInfo Info;
  Info.Id = 0;
  Info.Level = OptLevel::Baseline;
  Info.Samples = 2;
  EXPECT_FALSE(P.onSample(Info).has_value());
  Info.Samples = 3;
  EXPECT_EQ(*P.onSample(Info), OptLevel::O1);
  Info.Samples = 4;
  EXPECT_FALSE(P.onSample(Info).has_value());
}

TEST(RepPolicyTest, CompilationBoundRespected) {
  RepStrategy S;
  S.PerMethod = {{RepTrigger{1, OptLevel::O0}}};
  RepPolicy P(S, /*CompilationBound=*/0);
  vm::MethodRuntimeInfo Info;
  Info.Id = 0;
  Info.Samples = 1;
  EXPECT_FALSE(P.onSample(Info).has_value());
}

TEST(RepPolicyTest, NeverDowngrades) {
  RepStrategy S;
  S.PerMethod = {{RepTrigger{1, OptLevel::O0}}};
  RepPolicy P(S);
  vm::MethodRuntimeInfo Info;
  Info.Id = 0;
  Info.Samples = 1;
  Info.Level = OptLevel::O2;
  EXPECT_FALSE(P.onSample(Info).has_value());
}

//===----------------------------------------------------------------------===//
// EvolvableVM end-to-end (Fig. 7 loop)
//===----------------------------------------------------------------------===//

namespace {

/// A micro-application for end-to-end learning: main(chunks) drives a hot
/// chunk method; the input (chunk count) arrives via a numeric operand.
struct MicroApp {
  bc::Module Module;
  xicl::XFMethodRegistry Registry;
  xicl::FileStore Files;
  EvolveConfig Config;

  MicroApp() {
    Module = test::assemble(test::programCorpus()[6].second); // chunked_work
    Config.MaxCyclesPerRun = 1ULL << 42;
  }

  EvolvableVM makeVM() {
    return EvolvableVM(Module,
                       "operand {position=1; type=num; attr=val}\n",
                       &Registry, &Files, Config);
  }

  static std::string cmdline(int64_t Chunks) {
    return "micro " + std::to_string(Chunks);
  }
  static std::vector<bc::Value> args(int64_t Chunks) {
    return {bc::Value::makeInt(Chunks)};
  }
};

} // namespace

TEST(EvolvableVMTest, ConfidenceRampsAndPredictionStarts) {
  MicroApp App;
  EvolvableVM VM = App.makeVM();
  bool SawGuardedRun = false, SawPredictedRun = false;
  double LastConf = 0;
  Rng R(11);
  for (int Run = 0; Run != 12; ++Run) {
    int64_t Chunks = R.nextInt(200, 1200);
    auto Rec = VM.runOnce(MicroApp::cmdline(Chunks), MicroApp::args(Chunks));
    ASSERT_TRUE(static_cast<bool>(Rec)) << Rec.getError().message();
    if (!Rec->UsedPrediction)
      SawGuardedRun = true;
    else
      SawPredictedRun = true;
    LastConf = Rec->ConfidenceAfter;
  }
  EXPECT_TRUE(SawGuardedRun);   // early runs fall back to the default
  EXPECT_TRUE(SawPredictedRun); // later runs predict proactively
  EXPECT_GT(LastConf, 0.7);
  EXPECT_EQ(VM.numRuns(), 12u);
}

TEST(EvolvableVMTest, PredictedRunsBeatDefaultOnRepeatInput) {
  MicroApp App;
  EvolvableVM VM = App.makeVM();
  // Warm up on one input until prediction engages, then compare.
  uint64_t FirstCycles = 0, LastCycles = 0;
  for (int Run = 0; Run != 8; ++Run) {
    auto Rec = VM.runOnce(MicroApp::cmdline(900), MicroApp::args(900));
    ASSERT_TRUE(static_cast<bool>(Rec));
    if (Run == 0)
      FirstCycles = Rec->Result.Cycles;
    LastCycles = Rec->Result.Cycles;
  }
  EXPECT_LT(LastCycles, FirstCycles);
}

TEST(EvolvableVMTest, SpecErrorFallsBackToDefault) {
  MicroApp App;
  EvolvableVM VM(App.Module, "option {bogus}\n", &App.Registry, &App.Files,
                 App.Config);
  EXPECT_FALSE(VM.specError().empty());
  auto Rec = VM.runOnce(MicroApp::cmdline(300), MicroApp::args(300));
  ASSERT_TRUE(static_cast<bool>(Rec));
  EXPECT_FALSE(Rec->UsedPrediction);
  EXPECT_FALSE(Rec->HadPrediction);
  EXPECT_DOUBLE_EQ(Rec->ConfidenceAfter, 0.0);
}

TEST(EvolvableVMTest, AccuracyReportedAgainstPosteriorIdeal) {
  MicroApp App;
  EvolvableVM VM = App.makeVM();
  VM.runOnce(MicroApp::cmdline(600), MicroApp::args(600));
  auto Rec = VM.runOnce(MicroApp::cmdline(600), MicroApp::args(600));
  ASSERT_TRUE(static_cast<bool>(Rec));
  EXPECT_TRUE(Rec->HadPrediction);
  EXPECT_GE(Rec->Accuracy, 0.0);
  EXPECT_LE(Rec->Accuracy, 1.0);
  // The posterior ideal marks the hot chunk method above baseline.
  EXPECT_NE(Rec->Ideal.Levels[1], OptLevel::Baseline);
}

TEST(EvolvableVMTest, ExtractionThrottleBoundsOverhead) {
  MicroApp App;
  App.Config.ExtractionCycleBound = 10;
  EvolvableVM VM = App.makeVM();
  auto Rec = VM.runOnce(MicroApp::cmdline(300), MicroApp::args(300));
  ASSERT_TRUE(static_cast<bool>(Rec));
  EXPECT_LE(Rec->ExtractionCycles, 10u);
  EXPECT_FALSE(Rec->UsedPrediction); // throttled runs use the default path
}

TEST(EvolvableVMTest, BadCommandLineSurfacesError) {
  MicroApp App;
  EvolvableVM VM(App.Module,
                 "option {name=-x; type=num; attr=val; has_arg=y}\n",
                 &App.Registry, &App.Files, App.Config);
  auto Rec = VM.runOnce("micro -zzz", MicroApp::args(10));
  EXPECT_FALSE(static_cast<bool>(Rec));
}

//===----------------------------------------------------------------------===//
// Guard modes (decayed accuracy vs cross-validation vs none)
//===----------------------------------------------------------------------===//

TEST(GuardModeTest, CrossValidationGuardOpensAfterLearning) {
  MicroApp App;
  App.Config.Guard = GuardMode::CrossValidation;
  EvolvableVM VM = App.makeVM();
  bool SawPrediction = false;
  Rng R(3);
  for (int Run = 0; Run != 12; ++Run) {
    int64_t Chunks = R.nextInt(200, 1200);
    auto Rec = VM.runOnce(MicroApp::cmdline(Chunks), MicroApp::args(Chunks));
    ASSERT_TRUE(static_cast<bool>(Rec));
    SawPrediction |= Rec->UsedPrediction;
    EXPECT_GE(Rec->CvConfidence, 0.0);
    EXPECT_LE(Rec->CvConfidence, 1.0);
  }
  EXPECT_TRUE(SawPrediction);
  EXPECT_GT(VM.cvConfidence(), 0.7);
}

TEST(GuardModeTest, AlwaysModePredictsFromSecondRun) {
  MicroApp App;
  App.Config.Guard = GuardMode::Always;
  EvolvableVM VM = App.makeVM();
  auto First = VM.runOnce(MicroApp::cmdline(400), MicroApp::args(400));
  ASSERT_TRUE(static_cast<bool>(First));
  EXPECT_FALSE(First->UsedPrediction); // no model exists yet
  auto Second = VM.runOnce(MicroApp::cmdline(500), MicroApp::args(500));
  ASSERT_TRUE(static_cast<bool>(Second));
  EXPECT_TRUE(Second->UsedPrediction); // unguarded: predicts immediately
}

TEST(GuardModeTest, CvAccuracyHighOnLearnableTask) {
  ModelBuilder MB(1);
  for (int I = 0; I != 40; ++I) {
    FeatureVector FV = fvOf(I * 10);
    MethodLevelStrategy Ideal;
    Ideal.Levels = {I * 10 >= 200 ? OptLevel::O2 : OptLevel::O0};
    MB.addRun(FV, Ideal);
  }
  MB.rebuild();
  Rng R(5);
  EXPECT_GT(MB.crossValidatedAccuracy(5, R), 0.85);
}

TEST(GuardModeTest, CvAccuracyLowOnRandomTask) {
  ModelBuilder MB(1);
  Rng Noise(9);
  for (int I = 0; I != 40; ++I) {
    FeatureVector FV = fvOf(Noise.nextDouble(0, 100));
    MethodLevelStrategy Ideal;
    Ideal.Levels = {Noise.nextBool(0.5) ? OptLevel::O2 : OptLevel::O0};
    MB.addRun(FV, Ideal);
  }
  MB.rebuild();
  Rng R(5);
  EXPECT_LT(MB.crossValidatedAccuracy(5, R), 0.8);
}

TEST(GuardModeTest, CvAccuracyNeedsTwoRuns) {
  ModelBuilder MB(1);
  Rng R(5);
  EXPECT_DOUBLE_EQ(MB.crossValidatedAccuracy(5, R), 0.0);
  MethodLevelStrategy Ideal;
  Ideal.Levels = {OptLevel::O0};
  MB.addRun(fvOf(1), Ideal);
  EXPECT_DOUBLE_EQ(MB.crossValidatedAccuracy(5, R), 0.0);
}

TEST(SafetyNetTest, DisabledNetKeepsPurePredictionSemantics) {
  MicroApp App;
  App.Config.ReactiveSafetyNet = false;
  EvolvableVM VM = App.makeVM();
  for (int Run = 0; Run != 6; ++Run) {
    auto Rec = VM.runOnce(MicroApp::cmdline(700), MicroApp::args(700));
    ASSERT_TRUE(static_cast<bool>(Rec));
  }
  // Still learns and predicts; semantics unchanged.
  EXPECT_GT(VM.confidence(), 0.7);
}
