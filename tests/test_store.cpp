//===- tests/test_store.cpp - Knowledge store: format, merge, warm start --==//

#include "store/Crc32.h"
#include "store/KnowledgeStore.h"
#include "store/StoreFile.h"

#include "evolve/EvolvableVM.h"
#include "harness/Scenario.h"
#include "ml/ClassificationTree.h"
#include "ml/Dataset.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace evm;
using namespace evm::store;
using xicl::Feature;
using xicl::FeatureVector;

namespace {

std::string tmpPath(const char *Name) {
  return ::testing::TempDir() + "evm_store_test_" + Name;
}

FeatureVector fvOf(double N, const char *Cat) {
  FeatureVector FV;
  FV.append(Feature::numeric("-n.val", N));
  FV.append(Feature::categorical("mode", Cat));
  return FV;
}

/// A store exercising every section: confidence, runs with a mixed
/// numeric/categorical schema, constant and tree models, repository rows.
KnowledgeStore sampleStore() {
  KnowledgeStore KS;
  KS.Header.Generation = 3;
  KS.Header.App = "test";
  KS.HasConfidence = true;
  KS.Confidence = 0.8125;
  KS.CvConfidence = 0.75;
  KS.RunsSeen = 4;
  KS.Runs.push_back({fvOf(1.5, "fast"), {0, 1}});
  KS.Runs.push_back({fvOf(2.25, "slow"), {1, 1}});
  KS.Runs.push_back({fvOf(-3.0, "fast"), {0, 2}});
  KS.Runs.push_back({fvOf(0.1, "slow"), {2, 0}});

  // A real trained tree, via the same path the VM uses.
  ml::Dataset D;
  for (const StoredRun &R : KS.Runs)
    D.addExample(R.Features, R.Labels[0]);
  ml::ClassificationTree T = ml::ClassificationTree::build(D);
  StoredMethodModel M0;
  M0.Constant = false;
  M0.Tree = T.serialize();
  M0.Gen = 3;
  StoredMethodModel M1;
  M1.Constant = true;
  M1.ConstantLabel = 1;
  M1.Gen = 2;
  KS.Models = {M0, M1};

  KS.RepRuns = {{10, 0, 250}, {12, 1, 249}};
  return KS;
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC32
//===----------------------------------------------------------------------===//

TEST(Crc32Test, StandardVector) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

//===----------------------------------------------------------------------===//
// Document round trip
//===----------------------------------------------------------------------===//

TEST(KnowledgeStoreTest, SaveLoadSaveIsByteIdentical) {
  KnowledgeStore KS = sampleStore();
  std::string First = KS.serialize();

  StoreReadStats Stats;
  KnowledgeStore Back = KnowledgeStore::deserialize(First, Stats);
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(Back.Runs.size(), KS.Runs.size());
  EXPECT_EQ(Back.Models.size(), KS.Models.size());
  EXPECT_EQ(Back.RepRuns, KS.RepRuns);
  EXPECT_DOUBLE_EQ(Back.Confidence, KS.Confidence);
  EXPECT_EQ(Back.RunsSeen, KS.RunsSeen);

  EXPECT_EQ(Back.serialize(), First);
}

TEST(KnowledgeStoreTest, EmptyStoreRoundTrips) {
  KnowledgeStore KS;
  std::string Text = KS.serialize();
  StoreReadStats Stats;
  KnowledgeStore Back = KnowledgeStore::deserialize(Text, Stats);
  EXPECT_TRUE(Stats.clean());
  EXPECT_TRUE(Back.empty());
  EXPECT_EQ(Back.serialize(), Text);
}

TEST(KnowledgeStoreTest, ReplayReconstructsSchema) {
  KnowledgeStore KS = sampleStore();
  ml::Dataset D;
  KS.replayRunsInto(D);
  ASSERT_EQ(D.numFeatures(), 2u);
  EXPECT_EQ(D.schema()[0].Name, "-n.val");
  EXPECT_FALSE(D.schema()[0].Categorical);
  EXPECT_EQ(D.schema()[1].Name, "mode");
  EXPECT_TRUE(D.schema()[1].Categorical);
  // Dictionary ids follow insertion order: fast first, slow second.
  EXPECT_EQ(D.schema()[1].Dictionary.at("fast"), 0);
  EXPECT_EQ(D.schema()[1].Dictionary.at("slow"), 1);
}

TEST(StoreFileTest, VersionMismatchRejectsHeader) {
  std::string Text = sampleStore().serialize();
  size_t Pos = Text.find("\"version\":1");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 11, "\"version\":9");
  StoreReadStats Stats;
  KnowledgeStore Back = KnowledgeStore::deserialize(Text, Stats);
  EXPECT_TRUE(Back.empty());
  EXPECT_TRUE(Stats.VersionMismatch);
  EXPECT_FALSE(Stats.clean());
}

//===----------------------------------------------------------------------===//
// Tree serialization
//===----------------------------------------------------------------------===//

TEST(TreeSerializationTest, RoundTripPreservesPredictions) {
  ml::Dataset D;
  for (int I = 0; I != 24; ++I) {
    FeatureVector FV = fvOf(I * 0.37 - 3, I % 3 ? "fast" : "slow");
    D.addExample(FV, (I * 0.37 - 3 > 0 ? 2 : 0) + (I % 3 ? 0 : 1));
  }
  ml::ClassificationTree T = ml::ClassificationTree::build(D);
  std::string Text = T.serialize();

  auto Back = ml::ClassificationTree::deserialize(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->serialize(), Text);
  EXPECT_EQ(Back->numNodes(), T.numNodes());
  for (const ml::Example &E : D.examples())
    EXPECT_EQ(Back->predict(E), T.predict(E));
}

TEST(TreeSerializationTest, MalformedTextRejected) {
  EXPECT_FALSE(ml::ClassificationTree::deserialize("").has_value());
  EXPECT_FALSE(ml::ClassificationTree::deserialize("garbage").has_value());
  EXPECT_FALSE(ml::ClassificationTree::deserialize("L1trailing").has_value());
  EXPECT_FALSE(ml::ClassificationTree::deserialize("N0:1.5(L0)").has_value());
  // Depth bomb past the parser's recursion bound.
  std::string Deep;
  for (int I = 0; I != 200; ++I)
    Deep += "N0:1(";
  Deep += "L0";
  EXPECT_FALSE(ml::ClassificationTree::deserialize(Deep).has_value());
}

//===----------------------------------------------------------------------===//
// Merge policy
//===----------------------------------------------------------------------===//

TEST(MergeTest, HigherGenerationWinsPerSection) {
  KnowledgeStore A = sampleStore(); // generation 3
  KnowledgeStore B = sampleStore();
  B.Header.Generation = 5;
  B.Runs.push_back({fvOf(9, "fast"), {1, 1}});
  B.Confidence = 0.5;

  KnowledgeStore M = mergeStores(A, B);
  EXPECT_EQ(M.Header.Generation, 5u);
  EXPECT_EQ(M.Runs.size(), B.Runs.size());
  EXPECT_DOUBLE_EQ(M.Confidence, 0.5);

  // Symmetric: the same winner regardless of argument order.
  KnowledgeStore M2 = mergeStores(B, A);
  EXPECT_EQ(M2.Runs.size(), B.Runs.size());
  EXPECT_DOUBLE_EQ(M2.Confidence, 0.5);
}

TEST(MergeTest, AbsentSectionsSurviveFromLoser) {
  KnowledgeStore A = sampleStore(); // generation 3, has RepRuns
  KnowledgeStore B;
  B.Header.Generation = 7; // newer but holds only confidence
  B.HasConfidence = true;
  B.Confidence = 0.9;
  B.RunsSeen = 20;

  KnowledgeStore M = mergeStores(A, B);
  EXPECT_EQ(M.Header.Generation, 7u);
  EXPECT_DOUBLE_EQ(M.Confidence, 0.9);
  EXPECT_EQ(M.Runs.size(), A.Runs.size()); // B had no runs section
  EXPECT_EQ(M.RepRuns, A.RepRuns);
  EXPECT_EQ(M.Models.size(), A.Models.size());
}

TEST(MergeTest, ModelsMergePerMethodByGeneration) {
  KnowledgeStore A = sampleStore();
  KnowledgeStore B = sampleStore();
  B.Header.Generation = 9;
  // A's method 0 was retrained more recently than B's; B's method 1 newer.
  A.Models[0].Gen = 8;
  A.Models[0].Constant = true;
  A.Models[0].ConstantLabel = 7;
  A.Models[0].Tree.clear();
  B.Models[0].Gen = 2;
  B.Models[1].Gen = 9;
  B.Models[1].ConstantLabel = 5;

  KnowledgeStore M = mergeStores(A, B);
  ASSERT_EQ(M.Models.size(), 2u);
  EXPECT_EQ(M.Models[0].ConstantLabel, 7); // A's newer model 0 survived
  EXPECT_EQ(M.Models[0].Gen, 8u);
  EXPECT_EQ(M.Models[1].ConstantLabel, 5); // B's newer model 1 survived
  EXPECT_EQ(M.Models[1].Gen, 9u);
}

//===----------------------------------------------------------------------===//
// File I/O
//===----------------------------------------------------------------------===//

TEST(StoreIoTest, SaveLoadRoundTripAndStatuses) {
  std::string Path = tmpPath("io.store");
  std::remove(Path.c_str());

  KnowledgeStore KS = sampleStore();
  ASSERT_TRUE(saveStoreFile(Path, KS));

  KnowledgeStore Back;
  StoreReadStats Stats;
  EXPECT_EQ(loadStoreFile(Path, Back, Stats), LoadStatus::Loaded);
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(Back.serialize(), KS.serialize());

  KnowledgeStore Missing;
  EXPECT_EQ(loadStoreFile(Path + ".nope", Missing, Stats),
            LoadStatus::NotFound);
  EXPECT_TRUE(Missing.empty());

  // A directory is readable as a path but not as a file.
  KnowledgeStore Dir;
  EXPECT_NE(loadStoreFile(::testing::TempDir(), Dir, Stats),
            LoadStatus::Loaded);

  // Unwritable destination fails without touching anything.
  EXPECT_FALSE(saveStoreFile("/nonexistent-dir/x.store", KS));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Warm start semantics
//===----------------------------------------------------------------------===//

TEST(WarmStartTest, EmptyStoreIsExactlyColdStart) {
  wl::Workload W = wl::buildRouteExample(20090301, 10);
  harness::ExperimentConfig C;
  C.Seed = 20090301;

  harness::ScenarioRunner ColdRunner(W, C);
  auto Order = ColdRunner.makeInputOrder(1, 12);
  harness::ScenarioResult Cold = ColdRunner.runEvolve(Order);

  std::string Path = tmpPath("empty_warm.store");
  std::remove(Path.c_str()); // warm start from a missing file
  harness::ScenarioRunner WarmRunner(W, C);
  harness::ScenarioResult Warm = WarmRunner.runEvolveLaunches(Order, 1, Path);
  std::remove(Path.c_str());

  ASSERT_EQ(Warm.Runs.size(), Cold.Runs.size());
  for (size_t I = 0; I != Cold.Runs.size(); ++I) {
    EXPECT_EQ(Warm.Runs[I].Cycles, Cold.Runs[I].Cycles) << "run " << I;
    EXPECT_EQ(Warm.Runs[I].UsedPrediction, Cold.Runs[I].UsedPrediction);
    EXPECT_DOUBLE_EQ(Warm.Runs[I].Confidence, Cold.Runs[I].Confidence);
  }
  EXPECT_DOUBLE_EQ(Warm.FinalConfidence, Cold.FinalConfidence);
}

TEST(WarmStartTest, MultiLaunchEvolveCycleIdenticalToSingleProcess) {
  wl::Workload W = wl::buildRouteExample(20090301, 10);
  harness::ExperimentConfig C;
  C.Seed = 20090301;

  harness::ScenarioRunner Single(W, C);
  auto Order = Single.makeInputOrder(2, 15);
  harness::ScenarioResult One = Single.runEvolve(Order);

  std::string Path = tmpPath("multi_evolve.store");
  std::remove(Path.c_str());
  harness::ScenarioRunner Multi(W, C);
  harness::ScenarioResult Three = Multi.runEvolveLaunches(Order, 3, Path);
  std::remove(Path.c_str());

  ASSERT_EQ(Three.Runs.size(), One.Runs.size());
  for (size_t I = 0; I != One.Runs.size(); ++I) {
    EXPECT_EQ(Three.Runs[I].Cycles, One.Runs[I].Cycles) << "run " << I;
    EXPECT_EQ(Three.Runs[I].UsedPrediction, One.Runs[I].UsedPrediction);
    EXPECT_DOUBLE_EQ(Three.Runs[I].Confidence, One.Runs[I].Confidence);
    EXPECT_DOUBLE_EQ(Three.Runs[I].Accuracy, One.Runs[I].Accuracy);
  }
  EXPECT_DOUBLE_EQ(Three.FinalConfidence, One.FinalConfidence);
  EXPECT_DOUBLE_EQ(Three.MeanConfidence, One.MeanConfidence);
}

TEST(WarmStartTest, MultiLaunchRepCycleIdenticalToSingleProcess) {
  wl::Workload W = wl::buildRouteExample(20090301, 10);
  harness::ExperimentConfig C;
  C.Seed = 20090301;

  harness::ScenarioRunner Single(W, C);
  auto Order = Single.makeInputOrder(3, 15);
  harness::ScenarioResult One = Single.runRep(Order);

  std::string Path = tmpPath("multi_rep.store");
  std::remove(Path.c_str());
  harness::ScenarioRunner Multi(W, C);
  harness::ScenarioResult Three = Multi.runRepLaunches(Order, 3, Path);
  std::remove(Path.c_str());

  ASSERT_EQ(Three.Runs.size(), One.Runs.size());
  for (size_t I = 0; I != One.Runs.size(); ++I)
    EXPECT_EQ(Three.Runs[I].Cycles, One.Runs[I].Cycles) << "run " << I;
}

TEST(WarmStartTest, CheckpointRoundTripsThroughWarmStart) {
  wl::Workload W = wl::buildRouteExample(20090301, 10);
  harness::ExperimentConfig C;
  C.Seed = 20090301;
  harness::ScenarioRunner Runner(W, C);
  auto Order = Runner.makeInputOrder(4, 12);

  std::string Path = tmpPath("ckpt.store");
  std::remove(Path.c_str());
  Runner.runEvolveLaunches(Order, 1, Path);

  // The saved store is canonical (load -> serialize reproduces the bytes)
  // and warm-startable.
  store::KnowledgeStore KS;
  StoreReadStats Stats;
  ASSERT_EQ(loadStoreFile(Path, KS, Stats), LoadStatus::Loaded);
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(KS.Header.Generation, 1u);
  EXPECT_EQ(KS.Header.App, W.Name);
  EXPECT_EQ(KS.Runs.size(), Order.size());
  EXPECT_TRUE(KS.HasConfidence);
  EXPECT_EQ(KS.RunsSeen, Order.size());

  std::string Disk;
  {
    std::FILE *F = std::fopen(Path.c_str(), "rb");
    ASSERT_NE(F, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Disk.append(Buf, N);
    std::fclose(F);
  }
  EXPECT_EQ(KS.serialize(), Disk);
  std::remove(Path.c_str());
}

TEST(WarmStartTest, NonFiniteInputsStillSaveALoadableStore) {
  // An "inf" argument must not reach the store: a bare `inf` in the runs
  // section is not JSON and an `inf` threshold fails the tree parser, so
  // the next launch would drop those runs and retrain every tree.  With
  // features finite by construction the store reloads whole and the trees
  // import.
  bc::Module M = test::assemble(test::programCorpus()[6].second);
  xicl::XFMethodRegistry Registry;
  xicl::FileStore Files;
  evolve::EvolveConfig Config;
  Config.MaxCyclesPerRun = 1ULL << 42;
  const char *Spec = "operand {position=1; type=num; attr=val}\n";
  evolve::EvolvableVM VM(M, Spec, &Registry, &Files, Config);
  for (int Run = 0; Run != 8; ++Run) {
    bool Big = Run % 2 == 0;
    auto Rec = VM.runOnce(Big ? "micro inf" : "micro 40",
                          {bc::Value::makeInt(Big ? 1200 : 40)});
    ASSERT_TRUE(static_cast<bool>(Rec)) << Rec.getError().message();
  }
  store::KnowledgeStore Saved = VM.checkpoint(1);
  bool AnyTree = false;
  for (const StoredMethodModel &Model : Saved.Models)
    AnyTree |= !Model.Constant;
  ASSERT_TRUE(AnyTree) << "the inputs must train at least one tree";

  std::string Path = tmpPath("nonfinite.store");
  std::remove(Path.c_str());
  ASSERT_TRUE(saveStoreFile(Path, Saved));
  KnowledgeStore Back;
  StoreReadStats Stats;
  ASSERT_EQ(loadStoreFile(Path, Back, Stats), LoadStatus::Loaded);
  std::remove(Path.c_str());
  EXPECT_TRUE(Stats.clean());
  EXPECT_EQ(Stats.RecordsDropped, 0u);
  EXPECT_EQ(Back.Runs.size(), 8u);

  evolve::EvolvableVM Next(M, Spec, &Registry, &Files, Config);
  evolve::WarmStartResult W = Next.warmStart(Back, &Stats);
  EXPECT_EQ(W.RunsRestored, 8u);
  EXPECT_EQ(W.ModelsImported, Saved.Models.size());
  EXPECT_FALSE(W.Retrained);
}
