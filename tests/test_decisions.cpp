//===- tests/test_decisions.cpp - Decision-ledger invariants --------------==//
//
// Pins the ledger's core contracts:
//   * observation only — attaching an enabled ledger leaves every
//     RunMetrics field (cycles included) byte-identical to the unledgered
//     run, and a disabled ledger records nothing;
//   * the JSONL wire format round-trips byte-identically through
//     LedgerReader on real scenario records;
//   * the ring keeps the newest MaxRecords and counts what it sheds;
//   * a captured tree path terminates in the leaf predict() returned;
//   * run records agree field-for-field with the harness's own RunMetrics
//     and carry the backfilled baseline cycles;
//   * the fleet's folded ledger is byte-identical across thread counts.
//
//===----------------------------------------------------------------------===//

#include "harness/Fleet.h"
#include "harness/Scenario.h"
#include "ml/ClassificationTree.h"
#include "support/DecisionLedger.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace evm;
using namespace evm::harness;

namespace {

constexpr uint64_t Seed = 20090301;

ExperimentConfig config() {
  ExperimentConfig C;
  C.Seed = Seed;
  return C;
}

/// Runs the Evolve scenario over \p NumRuns inputs, recording into
/// \p Ledger when given.
ScenarioResult runEvolveWith(DecisionLedger *Ledger, size_t NumRuns) {
  wl::Workload W = wl::buildRouteExample(Seed, 20);
  ScenarioRunner Runner(W, config());
  if (Ledger)
    Runner.setLedger(Ledger);
  return Runner.runEvolve(Runner.makeInputOrder(1, NumRuns));
}

void expectSameMetrics(const ScenarioResult &A, const ScenarioResult &B) {
  ASSERT_EQ(A.Runs.size(), B.Runs.size());
  for (size_t I = 0; I != A.Runs.size(); ++I) {
    EXPECT_EQ(A.Runs[I].InputIndex, B.Runs[I].InputIndex) << "run " << I;
    EXPECT_EQ(A.Runs[I].Cycles, B.Runs[I].Cycles) << "run " << I;
    EXPECT_EQ(A.Runs[I].OverheadCycles, B.Runs[I].OverheadCycles)
        << "run " << I;
    EXPECT_EQ(A.Runs[I].Compiles, B.Runs[I].Compiles) << "run " << I;
    EXPECT_EQ(A.Runs[I].UsedPrediction, B.Runs[I].UsedPrediction)
        << "run " << I;
    EXPECT_EQ(A.Runs[I].HadPrediction, B.Runs[I].HadPrediction)
        << "run " << I;
    // Bitwise double equality: observation must not perturb arithmetic.
    EXPECT_EQ(A.Runs[I].SpeedupVsDefault, B.Runs[I].SpeedupVsDefault)
        << "run " << I;
    EXPECT_EQ(A.Runs[I].Confidence, B.Runs[I].Confidence) << "run " << I;
    EXPECT_EQ(A.Runs[I].Accuracy, B.Runs[I].Accuracy) << "run " << I;
  }
  EXPECT_EQ(A.FinalConfidence, B.FinalConfidence);
  EXPECT_EQ(A.MeanConfidence, B.MeanConfidence);
}

} // namespace

TEST(DecisionLedgerTest, EnabledLedgerIsObservationOnly) {
  // The identity pin for the whole feature: ledger on vs ledger off must
  // be cycle- and RunMetrics-identical — recording never charges the
  // virtual clock and never changes a decision.
  ScenarioResult Bare = runEvolveWith(nullptr, 30);
  DecisionLedger Ledger;
  Ledger.setEnabled(true);
  ScenarioResult Observed = runEvolveWith(&Ledger, 30);
  expectSameMetrics(Bare, Observed);
  EXPECT_EQ(Ledger.size(), Bare.Runs.size());
}

TEST(DecisionLedgerTest, DisabledLedgerRecordsNothing) {
  DecisionLedger Ledger; // attached but never setEnabled(true)
  ScenarioResult Bare = runEvolveWith(nullptr, 12);
  ScenarioResult Observed = runEvolveWith(&Ledger, 12);
  expectSameMetrics(Bare, Observed);
  EXPECT_EQ(Ledger.size(), 0u);
  EXPECT_EQ(Ledger.droppedRecords(), 0u);
}

TEST(DecisionLedgerTest, JsonlRoundTripsByteIdentical) {
  DecisionLedger Ledger;
  Ledger.setEnabled(true);
  runEvolveWith(&Ledger, 30);
  LedgerProvenance Prov;
  Prov.GitSha = "0123abcd";
  Prov.Compiler = "GNU";
  Prov.CompilerVersion = "12.2.0";
  Prov.BuildType = "Release";
  std::string Text = renderJsonlDecisions(Ledger.exportOrder(), &Prov);
  LedgerReader Reader;
  Reader.addText(Text);
  EXPECT_EQ(Reader.badLines(), 0u);
  ASSERT_TRUE(Reader.hasProvenance());
  EXPECT_EQ(Reader.provenance().GitSha, "0123abcd");
  EXPECT_EQ(renderJsonlDecisions(Reader.records(), &Prov), Text);
}

TEST(DecisionLedgerTest, RingKeepsNewestAndCountsShed) {
  DecisionLedger Ring(4);
  Ring.setEnabled(true);
  for (uint64_t I = 1; I <= 10; ++I) {
    DecisionRecord R;
    R.App = "ring";
    R.Run = I;
    Ring.record(std::move(R));
  }
  EXPECT_EQ(Ring.size(), 4u);
  EXPECT_EQ(Ring.droppedRecords(), 6u);
  std::vector<DecisionRecord> Kept = Ring.exportOrder();
  ASSERT_EQ(Kept.size(), 4u);
  for (size_t I = 0; I != 4; ++I)
    EXPECT_EQ(Kept[I].Run, 7 + I); // oldest-first export of runs 7..10
  Ring.clear();
  EXPECT_EQ(Ring.size(), 0u);
  EXPECT_EQ(Ring.droppedRecords(), 0u);
}

TEST(DecisionLedgerTest, TreePathEndsInPredictedLeaf) {
  // Fig. 6-shaped data: label 1 iff X0 > 5 and X1 > 5.
  ml::Dataset D;
  auto FV2 = [](double X, double Y) {
    xicl::FeatureVector FV;
    FV.append(xicl::Feature::numeric("x", X));
    FV.append(xicl::Feature::numeric("y", Y));
    return FV;
  };
  for (int X = 0; X != 10; ++X)
    for (int Y = 0; Y != 10; ++Y)
      D.addExample(FV2(X, Y), X > 5 && Y > 5 ? 1 : 0);
  ml::ClassificationTree Tree = ml::ClassificationTree::build(D);
  for (int X : {0, 3, 7, 9})
    for (int Y : {0, 3, 7, 9}) {
      ml::TreePath Path;
      int Label = Tree.predict(D.encode(FV2(X, Y)), &Path);
      EXPECT_EQ(Path.Leaf, Label) << X << "," << Y;
      // The rendered walk terminates in its leaf label.
      std::string Text = Path.str();
      std::string Tail = "L" + std::to_string(Label);
      ASSERT_GE(Text.size(), Tail.size());
      EXPECT_EQ(Text.substr(Text.size() - Tail.size()), Tail);
      // Deep points take at least two splits to reach the corner leaf.
      if (X > 5 && Y > 5) {
        EXPECT_GE(Path.Steps.size(), 2u);
      }
    }
}

TEST(DecisionLedgerTest, RecordsAgreeWithRunMetrics) {
  DecisionLedger Ledger;
  Ledger.setEnabled(true);
  ScenarioResult R = runEvolveWith(&Ledger, 30);
  std::vector<DecisionRecord> Records = Ledger.exportOrder();
  ASSERT_EQ(Records.size(), R.Runs.size());
  bool SawPrediction = false;
  for (size_t I = 0; I != Records.size(); ++I) {
    const DecisionRecord &D = Records[I];
    const RunMetrics &M = R.Runs[I];
    EXPECT_EQ(D.Run, I + 1) << "1-based run ordinal";
    EXPECT_EQ(D.Tenant, -1) << "no tenant outside fleet mode";
    EXPECT_EQ(D.Had, M.HadPrediction) << "run " << I;
    EXPECT_EQ(D.Used, M.UsedPrediction) << "run " << I;
    EXPECT_EQ(D.Cycles, M.Cycles) << "run " << I;
    EXPECT_EQ(D.Accuracy, M.Accuracy) << "run " << I;
    EXPECT_EQ(D.ConfAfter, M.Confidence) << "run " << I;
    EXPECT_EQ(D.Guard, "decayed");
    // The harness backfills the paired default-optimizer cycle count.
    EXPECT_GT(D.BaselineCycles, 0u) << "run " << I;
    EXPECT_EQ(D.Methods.empty(), !D.Had) << "run " << I;
    if (D.Had) {
      SawPrediction = true;
      for (const MethodDecision &MD : D.Methods) {
        EXPECT_EQ(MD.Agree, MD.Pred == MD.Ideal);
        EXPECT_GE(MD.Pred, 0);
        EXPECT_LT(MD.Pred, 4);
        EXPECT_EQ(MD.Path.empty(), MD.Constant);
      }
    }
  }
  EXPECT_TRUE(SawPrediction) << "30 runs should reach prediction";
}

TEST(DecisionLedgerTest, FleetFoldIsThreadInvariant) {
  // Per-tenant ledgers folded in tenant-ID order: the JSONL stream is
  // byte-identical for any --threads, exactly like the aggregate JSON.
  std::string Baseline;
  std::string BaselineJson;
  for (size_t T : {1, 2, 4}) {
    FleetConfig FC;
    FC.NumTenants = 4;
    FC.NumThreads = T;
    FC.RunsPerTenant = 6;
    FC.Seed = Seed;
    FC.CapturePhases = false;
    FC.CaptureDecisions = true;
    FleetRunner Runner(FC);
    FleetResult R = Runner.run();
    std::string Jsonl = renderJsonlDecisions(R.Decisions);
    std::string Json = R.renderJson();
    EXPECT_FALSE(R.Decisions.empty());
    // Tenant ids stamped and nondecreasing across the fold.
    int64_t LastTenant = -1;
    for (const DecisionRecord &D : R.Decisions) {
      EXPECT_GE(D.Tenant, 0);
      EXPECT_GE(D.Tenant, LastTenant);
      LastTenant = D.Tenant;
    }
    if (Baseline.empty()) {
      Baseline = Jsonl;
      BaselineJson = Json;
      continue;
    }
    EXPECT_EQ(Jsonl, Baseline) << "threads=" << T;
    EXPECT_EQ(Json, BaselineJson) << "threads=" << T;
  }
}
