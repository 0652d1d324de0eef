//===- tests/test_ml.cpp - Dataset, classification trees, CV, confidence --==//

#include "ml/ClassificationTree.h"
#include "ml/Confidence.h"
#include "ml/CrossValidation.h"
#include "ml/Dataset.h"

#include "ReferenceTree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

using namespace evm;
using namespace evm::ml;
using xicl::Feature;
using xicl::FeatureVector;

namespace {

FeatureVector fv2(double X1, double X2) {
  FeatureVector FV;
  FV.append(Feature::numeric("x1", X1));
  FV.append(Feature::numeric("x2", X2));
  return FV;
}

/// The paper's Fig. 6 training set: class 1 when x1 < 6 (roughly), refined
/// by x1 < 4.5 / x2 < 4 questions.  We synthesize points obeying:
///   x1 < 4.5                 -> class 1
///   4.5 <= x1 < 6 and x2 < 4 -> class 1
///   otherwise                -> class 2
Dataset fig6Dataset() {
  Dataset D;
  const double X1s[] = {1, 2, 3, 4, 5, 5.5, 5, 7, 8, 6.5, 7.5, 9, 5, 6.8};
  const double X2s[] = {2, 6, 4, 7, 3, 2, 5, 2, 6, 5, 3, 7, 1, 6};
  for (size_t I = 0; I != sizeof(X1s) / sizeof(X1s[0]); ++I) {
    double X1 = X1s[I], X2 = X2s[I];
    int Label = (X1 < 4.5 || (X1 < 6 && X2 < 4)) ? 1 : 2;
    D.addExample(fv2(X1, X2), Label);
  }
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Dataset
//===----------------------------------------------------------------------===//

TEST(DatasetTest, SchemaGrowsByName) {
  Dataset D;
  D.addExample(fv2(1, 2), 0);
  EXPECT_EQ(D.numFeatures(), 2u);
  FeatureVector Extra = fv2(3, 4);
  Extra.append(Feature::numeric("x3", 5));
  D.addExample(Extra, 1);
  EXPECT_EQ(D.numFeatures(), 3u);
  // The earlier row reads 0 for the new column.
  EXPECT_DOUBLE_EQ(D.example(0).Values[2], 0);
  EXPECT_DOUBLE_EQ(D.example(1).Values[2], 5);
}

TEST(DatasetTest, CategoricalDictionaryEncoding) {
  Dataset D;
  FeatureVector A;
  A.append(Feature::categorical("fmt", "pdf"));
  FeatureVector B;
  B.append(Feature::categorical("fmt", "txt"));
  D.addExample(A, 0);
  D.addExample(B, 1);
  EXPECT_TRUE(D.schema()[0].Categorical);
  EXPECT_EQ(D.schema()[0].Dictionary.size(), 2u);
  EXPECT_NE(D.example(0).Values[0], D.example(1).Values[0]);
  // Re-encoding a known category matches; unknown encodes as -1.
  EXPECT_DOUBLE_EQ(D.encode(A).Values[0], D.example(0).Values[0]);
  FeatureVector C;
  C.append(Feature::categorical("fmt", "svg"));
  EXPECT_DOUBLE_EQ(D.encode(C).Values[0], -1);
}

TEST(DatasetTest, EncodeIgnoresUnknownNames) {
  Dataset D;
  D.addExample(fv2(1, 2), 0);
  FeatureVector Strange;
  Strange.append(Feature::numeric("zz", 9));
  Example E = D.encode(Strange);
  ASSERT_EQ(E.Values.size(), 2u);
  EXPECT_DOUBLE_EQ(E.Values[0], 0);
}

//===----------------------------------------------------------------------===//
// Entropy
//===----------------------------------------------------------------------===//

TEST(EntropyTest, PureIsZero) {
  const size_t Counts[] = {2};
  EXPECT_DOUBLE_EQ(labelEntropy(Counts), 0.0);
}

TEST(EntropyTest, EvenSplitIsOneBit) {
  const size_t Counts[] = {1, 1};
  EXPECT_DOUBLE_EQ(labelEntropy(Counts), 1.0);
}

TEST(EntropyTest, ZeroCountsAndEmptyContributeNothing) {
  const size_t Sparse[] = {0, 3, 0, 3, 0};
  EXPECT_DOUBLE_EQ(labelEntropy(Sparse), 1.0);
  const size_t Empty[] = {0, 0};
  EXPECT_DOUBLE_EQ(labelEntropy(Empty), 0.0);
  EXPECT_DOUBLE_EQ(labelEntropy({}), 0.0);
}

//===----------------------------------------------------------------------===//
// Classification tree
//===----------------------------------------------------------------------===//

TEST(TreeTest, LearnsFig6Structure) {
  Dataset D = fig6Dataset();
  ClassificationTree Tree = ClassificationTree::build(D);
  // Perfect training accuracy on this separable set.
  for (size_t I = 0; I != D.numExamples(); ++I)
    EXPECT_EQ(Tree.predict(D.example(I)), D.example(I).Label) << "row " << I;
  // Both features participate (the paper's x1 < 6, x1 < 4.5, x2 < 4 tree).
  auto Used = Tree.usedFeatures();
  EXPECT_TRUE(Used.count(0));
  EXPECT_TRUE(Used.count(1));
}

TEST(TreeTest, GeneralizesOnFig6Grid) {
  Dataset D = fig6Dataset();
  ClassificationTree Tree = ClassificationTree::build(D);
  // Points deep inside each region classify correctly.
  EXPECT_EQ(Tree.predict(D.encode(fv2(1, 1))), 1);
  EXPECT_EQ(Tree.predict(D.encode(fv2(5.2, 1.5))), 1);
  EXPECT_EQ(Tree.predict(D.encode(fv2(8.5, 6.5))), 2);
  EXPECT_EQ(Tree.predict(D.encode(fv2(7.2, 2.0))), 2);
}

TEST(TreeTest, ConstantLabelsGiveLeaf) {
  Dataset D;
  for (int I = 0; I != 5; ++I)
    D.addExample(fv2(I, I), 3);
  ClassificationTree Tree = ClassificationTree::build(D);
  EXPECT_EQ(Tree.numNodes(), 1u);
  EXPECT_EQ(Tree.depth(), 1);
  EXPECT_EQ(Tree.predict(D.encode(fv2(99, 99))), 3);
  EXPECT_TRUE(Tree.usedFeatures().empty());
}

TEST(TreeTest, EmptyDatasetPredictsZero) {
  Dataset D;
  ClassificationTree Tree = ClassificationTree::build(D);
  Example E;
  EXPECT_EQ(Tree.predict(E), 0);
}

TEST(TreeTest, IrrelevantConstantFeatureNeverUsed) {
  // The paper's automatic feature selection: an option stuck at its
  // default can never reduce impurity and never appears in the tree.
  Dataset D;
  for (int I = 0; I != 20; ++I) {
    FeatureVector FV;
    FV.append(Feature::numeric("size", I));
    FV.append(Feature::numeric("-q.val", 0)); // never-used option
    D.addExample(FV, I < 10 ? 0 : 1);
  }
  ClassificationTree Tree = ClassificationTree::build(D);
  auto Used = Tree.usedFeatures();
  EXPECT_TRUE(Used.count(0));
  EXPECT_FALSE(Used.count(1));
}

TEST(TreeTest, CategoricalSplits) {
  Dataset D;
  const char *Fmts[] = {"pdf", "txt", "pdf", "txt", "pdf", "txt"};
  for (int I = 0; I != 6; ++I) {
    FeatureVector FV;
    FV.append(Feature::categorical("fmt", Fmts[I]));
    FV.append(Feature::numeric("noise", I * 7 % 5));
    D.addExample(FV, Fmts[I][0] == 'p' ? 1 : 2);
  }
  ClassificationTree Tree = ClassificationTree::build(D);
  FeatureVector Pdf;
  Pdf.append(Feature::categorical("fmt", "pdf"));
  FeatureVector Txt;
  Txt.append(Feature::categorical("fmt", "txt"));
  EXPECT_EQ(Tree.predict(D.encode(Pdf)), 1);
  EXPECT_EQ(Tree.predict(D.encode(Txt)), 2);
}

TEST(TreeTest, MaxDepthRespected) {
  // A hard dataset (labels = parity-ish) cannot exceed the depth cap.
  Dataset D;
  Rng R(5);
  for (int I = 0; I != 200; ++I) {
    double X = R.nextDouble(0, 100);
    D.addExample(fv2(X, R.nextDouble(0, 100)),
                 (static_cast<int>(X) % 2));
  }
  TreeParams P;
  P.MaxDepth = 3;
  ClassificationTree Tree = ClassificationTree::build(D, P);
  // depth() counts nodes along the longest path: MaxDepth split levels
  // plus the leaf.
  EXPECT_LE(Tree.depth(), P.MaxDepth + 1);
}

TEST(TreeTest, MinSamplesSplitStopsGrowth) {
  Dataset D = fig6Dataset();
  TreeParams P;
  P.MinSamplesSplit = 1000;
  ClassificationTree Tree = ClassificationTree::build(D, P);
  EXPECT_EQ(Tree.numNodes(), 1u);
}

TEST(TreeTest, PrintShowsQuestions) {
  Dataset D = fig6Dataset();
  ClassificationTree Tree = ClassificationTree::build(D);
  std::string Text = Tree.print(D);
  EXPECT_NE(Text.find("x1 <"), std::string::npos);
  EXPECT_NE(Text.find("->"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parameterized sweep: trees fit threshold concepts at many thresholds
//===----------------------------------------------------------------------===//

class TreeThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(TreeThresholdSweep, RecoversThresholdConcept) {
  double Threshold = GetParam();
  Dataset D;
  Rng R(static_cast<uint64_t>(Threshold * 977) + 1);
  for (int I = 0; I != 300; ++I) {
    double X = R.nextDouble(0, 100);
    D.addExample(fv2(X, R.nextDouble(0, 100)), X < Threshold ? 0 : 1);
  }
  ClassificationTree Tree = ClassificationTree::build(D);
  // Probe away from the boundary.
  int Correct = 0, Total = 0;
  for (double X = 2; X < 100; X += 4.7) {
    if (std::abs(X - Threshold) < 3)
      continue;
    ++Total;
    if (Tree.predict(D.encode(fv2(X, 50))) == (X < Threshold ? 0 : 1))
      ++Correct;
  }
  EXPECT_GE(Correct, Total - 1);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, TreeThresholdSweep,
                         ::testing::Values(10.0, 25.0, 50.0, 75.0, 90.0));

//===----------------------------------------------------------------------===//
// Cross-validation
//===----------------------------------------------------------------------===//

TEST(CrossValidationTest, HighOnSeparableData) {
  Dataset D;
  Rng R(3);
  for (int I = 0; I != 100; ++I) {
    double X = R.nextDouble(0, 100);
    D.addExample(fv2(X, 0), X < 50 ? 0 : 1);
  }
  Rng Folds(7);
  EXPECT_GT(kFoldAccuracy(D, 5, Folds), 0.9);
}

TEST(CrossValidationTest, LowOnRandomLabels) {
  Dataset D;
  Rng R(3);
  for (int I = 0; I != 100; ++I)
    D.addExample(fv2(R.nextDouble(0, 100), R.nextDouble(0, 100)),
                 static_cast<int>(R.nextInt(0, 3)));
  Rng Folds(7);
  EXPECT_LT(kFoldAccuracy(D, 5, Folds), 0.6);
}

TEST(CrossValidationTest, TinyDatasetsHandled) {
  Rng R0(1);
  Dataset D;
  EXPECT_DOUBLE_EQ(kFoldAccuracy(D, 5, R0), 0.0);
  Dataset D2;
  D2.addExample(fv2(1, 1), 0);
  Rng R(1);
  EXPECT_DOUBLE_EQ(kFoldAccuracy(D2, 5, R), 0.0);
  D2.addExample(fv2(2, 2), 1);
  EXPECT_GE(kFoldAccuracy(D2, 5, R), 0.0);
}

//===----------------------------------------------------------------------===//
// Presorted sweep == the row-copying reference builder
//===----------------------------------------------------------------------===//

namespace {

/// A numeric value from one of the pools the sweep's exactness rules are
/// about: duplicates (gain ties), adjacent doubles, signed zeros and
/// subnormals, magnitudes whose midpoints overflow, and plain values.
double edgeValue(Rng &R, int64_t Pool) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double Max = std::numeric_limits<double>::max();
  const double Tiny = std::numeric_limits<double>::denorm_min();
  const double Min = std::numeric_limits<double>::min();
  switch (Pool) {
  case 0:
    return static_cast<double>(R.nextInt(0, 3));
  case 1: {
    double X = static_cast<double>(R.nextInt(1, 2));
    for (int64_t Steps = R.nextInt(-2, 2); Steps != 0;
         Steps += Steps > 0 ? -1 : 1)
      X = std::nextafter(X, Steps > 0 ? Inf : -Inf);
    return X;
  }
  case 2: {
    const double Small[] = {0.0, -0.0, Tiny, -Tiny, 2 * Tiny, 3 * Tiny,
                            Min, -Min};
    return Small[R.nextInt(0, 7)];
  }
  case 3: {
    const double Big[] = {Max,    -Max,     std::nextafter(Max, 0.0),
                          1e308,  1.5e308,  -1.7e308,
                          Inf,    -Inf,     0.0};
    return Big[R.nextInt(0, 8)];
  }
  default:
    return std::round(R.nextDouble(-20, 20) * 4) / 4;
  }
}

struct RandomCase {
  Dataset D;
  TreeParams Params;
};

/// A seeded random dataset: 0-40 rows, 0-5 features (a third categorical,
/// each numeric one drawing from one or two value pools), features that
/// appear late or go missing (rows read 0), and 1-4 labels from [-3, 9],
/// half the time tied to a feature so trees grow deep.
RandomCase randomCase(uint64_t Seed) {
  Rng R(Seed);
  RandomCase C;
  C.Params.MaxDepth = static_cast<int>(R.nextInt(0, 12));
  C.Params.MinSamplesSplit = static_cast<size_t>(R.nextInt(0, 6));
  size_t NumRows = static_cast<size_t>(R.nextInt(0, 40));
  size_t NumFeatures = static_cast<size_t>(R.nextInt(0, 5));
  std::vector<bool> Categorical(NumFeatures);
  std::vector<int64_t> PoolA(NumFeatures), PoolB(NumFeatures);
  for (size_t F = 0; F != NumFeatures; ++F) {
    Categorical[F] = R.nextBool(0.33);
    PoolA[F] = R.nextInt(0, 4);
    PoolB[F] = R.nextBool(0.5) ? PoolA[F] : R.nextInt(0, 4);
  }
  std::vector<int> LabelSet(static_cast<size_t>(R.nextInt(1, 4)));
  for (int &L : LabelSet)
    L = static_cast<int>(R.nextInt(-3, 9));
  bool Learnable = R.nextBool(0.5);
  for (size_t Row = 0; Row != NumRows; ++Row) {
    FeatureVector FV;
    double First = 0;
    for (size_t F = 0; F != NumFeatures; ++F) {
      std::string Name = "f" + std::to_string(F);
      bool Present = !R.nextBool(0.05);
      if (Categorical[F]) {
        int64_t Cat = R.nextInt(0, 3);
        if (Present)
          FV.append(Feature::categorical(Name, "c" + std::to_string(Cat)));
        if (F == 0)
          First = static_cast<double>(Cat);
      } else {
        double V = edgeValue(R, R.nextBool(0.5) ? PoolA[F] : PoolB[F]);
        if (Present)
          FV.append(Feature::numeric(Name, V));
        if (F == 0)
          First = V;
      }
    }
    size_t Pick = static_cast<size_t>(R.nextInt(
        0, static_cast<int64_t>(LabelSet.size()) - 1));
    if (Learnable && !R.nextBool(0.1))
      Pick = First < 1 ? 0 : LabelSet.size() - 1;
    C.D.addExample(FV, LabelSet[Pick]);
  }
  return C;
}

/// Checks the production builder and k-fold score against the reference
/// on \p D, including the Rng state each leaves behind.
void expectMatchesReference(const Dataset &D, const TreeParams &Params,
                            int Folds, uint64_t CvSeed) {
  std::vector<int> Labels = D.labelColumn();
  EXPECT_EQ(ClassificationTree::build(D, Params).serialize(),
            reftree::buildText(D, Labels, Params));
  Rng Got(CvSeed), Want(CvSeed);
  EXPECT_EQ(kFoldAccuracy(D, Folds, Got, Params),
            reftree::kFoldAccuracy(D, Labels, Folds, Want, Params));
  EXPECT_EQ(Got.next(), Want.next()) << "Rng state diverged";
}

} // namespace

TEST(SortedSweepTest, RandomDatasetsMatchReference) {
  for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    RandomCase C = randomCase(Seed);
    expectMatchesReference(C.D, C.Params, static_cast<int>(Seed % 9) + 2,
                           Seed * 7919);
    if (::testing::Test::HasFailure())
      break; // one seed's report is enough
  }
}

TEST(SortedSweepTest, EmptyDatasetIsLabelZeroLeaf) {
  Dataset D;
  for (size_t MinSplit : {0, 2}) {
    TreeParams P;
    P.MinSamplesSplit = MinSplit;
    EXPECT_EQ(ClassificationTree::build(D, P).serialize(), "L0");
    expectMatchesReference(D, P, 5, 1);
  }
}

TEST(SortedSweepTest, OneRowIsItsLabel) {
  Dataset D;
  D.addExample(fv2(3, 4), -2);
  TreeParams P;
  P.MinSamplesSplit = 0;
  EXPECT_EQ(ClassificationTree::build(D, P).serialize(), "L-2");
  expectMatchesReference(D, P, 5, 1);
}

TEST(SortedSweepTest, MaxDepthZeroIsMajorityLeaf) {
  Dataset D = fig6Dataset();
  TreeParams P;
  P.MaxDepth = 0;
  EXPECT_EQ(ClassificationTree::build(D, P).serialize(), "L1");
  expectMatchesReference(D, P, 5, 1);
}

TEST(SortedSweepTest, MinSamplesSplitZeroGrowsFullTree) {
  Dataset D = fig6Dataset();
  TreeParams P;
  P.MinSamplesSplit = 0;
  EXPECT_GT(ClassificationTree::build(D, P).numNodes(), 1u);
  expectMatchesReference(D, P, 5, 1);
}

TEST(SortedSweepTest, AllConstantFeaturesGiveMajorityLeaf) {
  // Mixed labels but nothing to split on: the tie goes to the smaller
  // label.
  Dataset D;
  for (int I = 0; I != 6; ++I) {
    FeatureVector FV = fv2(7, -0.0);
    FV.append(Feature::categorical("fmt", "pdf"));
    D.addExample(FV, I % 2 ? 4 : 9);
  }
  EXPECT_EQ(ClassificationTree::build(D).serialize(), "L4");
  expectMatchesReference(D, TreeParams(), 3, 1);
}

TEST(SortedSweepTest, OneTableServesEveryMaskAndLabelColumn) {
  // Trees over row masks and alternative label columns of one table equal
  // trees over the corresponding standalone datasets.
  Dataset D = fig6Dataset();
  SortedColumns Table(D);
  std::vector<int> Flipped = D.labelColumn();
  for (int &L : Flipped)
    L = 3 - L;
  EXPECT_EQ(ClassificationTree::build(Table, Flipped).serialize(),
            reftree::buildText(D, Flipped));

  std::vector<char> Mask(D.numExamples());
  std::vector<size_t> Rows;
  for (size_t R = 0; R != Mask.size(); ++R)
    if (R % 3 != 1) {
      Mask[R] = 1;
      Rows.push_back(R);
    }
  EXPECT_EQ(
      ClassificationTree::build(Table, Flipped, TreeParams(), &Mask)
          .serialize(),
      reftree::serialize(
          reftree::build(D, Flipped, Rows, TreeParams()).get()));
}

//===----------------------------------------------------------------------===//
// Confidence tracker (paper Fig. 7 arithmetic)
//===----------------------------------------------------------------------===//

TEST(ConfidenceTest, StartsAtZeroBelowThreshold) {
  ConfidenceTracker C(0.7, 0.7);
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
  EXPECT_FALSE(C.confident());
}

TEST(ConfidenceTest, DecayedUpdateFormula) {
  ConfidenceTracker C(0.7, 0.7);
  C.update(1.0);
  EXPECT_DOUBLE_EQ(C.value(), 0.7); // (1-0.7)*0 + 0.7*1
  C.update(1.0);
  EXPECT_NEAR(C.value(), 0.91, 1e-12);
  EXPECT_TRUE(C.confident());
}

TEST(ConfidenceTest, PoorAccuracyDropsConfidence) {
  ConfidenceTracker C(0.7, 0.7);
  C.update(1.0);
  C.update(1.0);
  ASSERT_TRUE(C.confident());
  C.update(0.0);
  EXPECT_NEAR(C.value(), 0.273, 1e-3);
  EXPECT_FALSE(C.confident());
}

TEST(ConfidenceTest, GammaWeightsRecency) {
  ConfidenceTracker Fast(0.9, 0.7), Slow(0.1, 0.7);
  for (int I = 0; I != 3; ++I) {
    Fast.update(1.0);
    Slow.update(1.0);
  }
  EXPECT_GT(Fast.value(), Slow.value());
}

TEST(ConfidenceTest, ConvergesToSteadyAccuracy) {
  ConfidenceTracker C(0.7, 0.7);
  for (int I = 0; I != 50; ++I)
    C.update(0.85);
  EXPECT_NEAR(C.value(), 0.85, 1e-6);
}

TEST(ConfidenceTest, ColdStateClosedEvenAtZeroThreshold) {
  // Before any run has been scored (RunsSeen = 0) the guard must stay
  // closed even with the threshold floored: the gate is strict (>), so a
  // fresh tracker never opens on equality with a zero threshold.
  ConfidenceTracker C(0.7, 0.0);
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
  EXPECT_FALSE(C.confident());
  C.update(1e-12); // any positive accuracy signal opens it
  EXPECT_TRUE(C.confident());
}

TEST(ConfidenceTest, GammaZeroNeverMoves) {
  ConfidenceTracker C(0.0, 0.7);
  EXPECT_DOUBLE_EQ(C.gamma(), 0.0);
  for (int I = 0; I != 10; ++I)
    C.update(1.0);
  EXPECT_DOUBLE_EQ(C.value(), 0.0); // (1-0)*conf + 0*acc = conf
  EXPECT_FALSE(C.confident());
}

TEST(ConfidenceTest, GammaOneTracksLastAccuracyExactly) {
  ConfidenceTracker C(1.0, 0.7);
  EXPECT_DOUBLE_EQ(C.gamma(), 1.0);
  C.update(0.25);
  EXPECT_DOUBLE_EQ(C.value(), 0.25); // no memory at gamma = 1
  C.update(0.9);
  EXPECT_DOUBLE_EQ(C.value(), 0.9);
  C.update(0.0);
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
}

TEST(ConfidenceTest, LongAllWrongStreakDecaysTowardZero) {
  ConfidenceTracker C(0.7, 0.7);
  C.update(1.0);
  C.update(1.0); // 0.91, confident
  ASSERT_TRUE(C.confident());
  // Every all-wrong run multiplies confidence by (1 - gamma) = 0.3, so
  // 14 wrong runs shrink 0.91 below 1e-7 without ever going negative.
  for (int I = 0; I != 14; ++I) {
    C.update(0.0);
    EXPECT_GE(C.value(), 0.0);
  }
  EXPECT_LT(C.value(), 1e-7);
  EXPECT_FALSE(C.confident());
}

TEST(ConfidenceTest, RestoreClampsDamagedStoreBytes) {
  ConfidenceTracker C(0.7, 0.7);
  C.restore(2.0); // out of range high
  EXPECT_DOUBLE_EQ(C.value(), 1.0);
  C.restore(-1.0); // out of range low
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
  C.restore(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(C.value(), 0.0);
  C.restore(0.85); // in range passes through
  EXPECT_DOUBLE_EQ(C.value(), 0.85);
  EXPECT_TRUE(C.confident());
}

TEST(ConfidenceTest, CrossValidationAndDecayedGuardsCanDisagree) {
  // The two guard modes answer different questions and can split: k-fold
  // accuracy scores the *model* on its training set, the decayed tracker
  // scores the model's *production* record.  A separable dataset with a
  // cold (or recently-wrong) tracker opens the crossval guard while the
  // decayed guard stays shut — and random labels with a lucky production
  // streak split the other way.
  const double Threshold = 0.7;

  Dataset Separable;
  for (int I = 0; I != 12; ++I)
    Separable.addExample(fv2(I, I), I < 6 ? 0 : 1);
  Rng R1(20090301);
  double CvSeparable = kFoldAccuracy(Separable, 5, R1);
  ConfidenceTracker Cold(0.7, Threshold);
  EXPECT_GT(CvSeparable, Threshold); // crossval guard: open
  EXPECT_FALSE(Cold.confident());    // decayed guard: closed

  Dataset Random;
  for (int I = 0; I != 12; ++I)
    Random.addExample(fv2(I, (I * 7) % 5), I % 2);
  Rng R2(20090301);
  double CvRandom = kFoldAccuracy(Random, 5, R2);
  ConfidenceTracker Streak(0.7, Threshold);
  for (int I = 0; I != 5; ++I)
    Streak.update(1.0);
  EXPECT_LT(CvRandom, Threshold); // crossval guard: closed
  EXPECT_TRUE(Streak.confident()); // decayed guard: open
}
