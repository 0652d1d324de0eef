//===- tests/test_profiler.cpp - Phase-profiler acceptance battery --------==//
//
// The profiling acceptance battery:
//
//   * installing the profiler never changes virtual cycle counts — the
//     unprofiled and profiled runs are cycle-identical;
//   * two identical profiled replays produce byte-identical JSON,
//     collapsed-stack, and speedscope exports;
//   * the "run" subtree total equals the sum of RunResult::Cycles over the
//     profiled runs — every charged cycle is attributed exactly once;
//   * a full Evolve scenario populates the expected tree regions: JIT
//     compile phases with per-pass children, the offline model-rebuild
//     lane, and the xicl/ml overhead split;
//   * tree mechanics: attributeChild clamps to what the parent holds,
//     splitToChild refines the current scope, self-recursion collapses,
//     depth is bounded, root charges export as "(unattributed)";
//   * renderJson and parsePhaseTreeJson are exact inverses, including for
//     embedding documents, and malformed input is rejected.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenario.h"
#include "support/Profiler.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

using namespace evm;

namespace {

constexpr uint64_t Seed = 20090301;

/// One engine run of a mid-sized Compress input; returns its cycle count.
uint64_t runOnce(bool Profiled) {
  wl::Workload W = wl::buildWorkload("Compress", Seed);
  const wl::InputCase &Input = W.Inputs[W.Inputs.size() / 2];
  vm::TimingModel TM;
  vm::AdaptivePolicy Policy(TM, nullptr);
  vm::ExecutionEngine Engine(W.Module, TM, &Policy);
  PhaseProfiler Profiler;
  std::optional<ProfilerInstallGuard> Guard;
  if (Profiled)
    Guard.emplace(&Profiler);
  auto R = Engine.run(Input.VmArgs);
  EXPECT_TRUE(static_cast<bool>(R));
  return R ? R->Cycles : 0;
}

/// One full profiled Evolve scenario; returns the snapshot.
PhaseTreeSnapshot runProfiledScenario() {
  wl::Workload W = wl::buildWorkload("Mtrt", Seed);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  PhaseProfiler Profiler;
  ProfilerInstallGuard Guard(&Profiler);
  std::vector<size_t> Order = Runner.makeInputOrder(1, 8);
  harness::ScenarioResult Evolve = Runner.runEvolve(Order);
  EXPECT_EQ(Evolve.Runs.size(), Order.size());
  return Profiler.snapshot();
}

bool anyStackContains(const PhaseTreeSnapshot &S, std::string_view Needle) {
  return std::any_of(S.entries().begin(), S.entries().end(),
                     [&](const PhaseTreeSnapshot::Entry &E) {
                       return E.Stack.find(Needle) != std::string::npos;
                     });
}

} // namespace

TEST(Profiler, ProfilingNeverChangesVirtualTime) {
  uint64_t Plain = runOnce(false);
  EXPECT_EQ(Plain, runOnce(true));
  EXPECT_GT(Plain, 0u);
}

TEST(Profiler, IdenticalRunsProduceByteIdenticalProfiles) {
  PhaseTreeSnapshot A = runProfiledScenario();
  PhaseTreeSnapshot B = runProfiledScenario();
  EXPECT_EQ(A.renderJson(), B.renderJson());
  EXPECT_EQ(A.renderCollapsed(), B.renderCollapsed());
  EXPECT_EQ(A.renderSpeedscope("x"), B.renderSpeedscope("x"));
  EXPECT_FALSE(A.empty());
}

TEST(Profiler, RunSubtreeEqualsSumOfRunCycles) {
  wl::Workload W = wl::buildWorkload("Compress", Seed);
  vm::TimingModel TM;
  vm::AdaptivePolicy Policy(TM, nullptr);
  vm::ExecutionEngine Engine(W.Module, TM, &Policy);
  PhaseProfiler Profiler;
  ProfilerInstallGuard Guard(&Profiler);
  uint64_t Sum = 0;
  for (size_t I = 0; I != 3 && I != W.Inputs.size(); ++I) {
    auto R = Engine.run(W.Inputs[I].VmArgs);
    ASSERT_TRUE(static_cast<bool>(R));
    Sum += R->Cycles;
  }
  PhaseTreeSnapshot S = Profiler.snapshot();
  EXPECT_EQ(S.totalUnder("run"), Sum);
  EXPECT_GT(Sum, 0u);
  // Baseline compiles and the AOS sampler show up under the run tree.
  EXPECT_TRUE(anyStackContains(S, "jit/compile/baseline"));
  EXPECT_TRUE(anyStackContains(S, "interp"));
  EXPECT_TRUE(anyStackContains(S, "aos/sample"));
}

TEST(Profiler, ScenarioPopulatesBothRoots) {
  PhaseTreeSnapshot S = runProfiledScenario();
  // Execution clock.
  EXPECT_GT(S.totalUnder("run"), 0u);
  // Optimizing compiles happened, with per-pass refinement underneath.
  EXPECT_TRUE(anyStackContains(S, "jit/compile/"));
  EXPECT_TRUE(anyStackContains(S, ";lower"));
  // The evolvable VM rebuilt models and updated the repository offline.
  EXPECT_GT(S.totalUnder("offline"), 0u);
  EXPECT_TRUE(anyStackContains(S, "ml/rebuild"));
  // Its pre-run overhead was split into the xicl/ml components.
  EXPECT_GT(S.totalUnder("run;overhead;xicl/characterize"), 0u);
  EXPECT_GT(S.totalUnder("run;overhead;ml/predict"), 0u);
}

TEST(Profiler, AttributeChildClampsAndMoves) {
  PhaseProfiler P;
  P.enter("run");
  P.charge(100);
  P.exit();
  EXPECT_EQ(P.attributeChild({"run"}, "xicl", 60), 60u);
  // Only 40 cycles remain on the parent; the request is clamped.
  EXPECT_EQ(P.attributeChild({"run"}, "ml", 100), 40u);
  PhaseTreeSnapshot S = P.snapshot();
  EXPECT_EQ(S.cyclesAt("run"), 0u);
  EXPECT_EQ(S.cyclesAt("run;xicl"), 60u);
  EXPECT_EQ(S.cyclesAt("run;ml"), 40u);
  EXPECT_EQ(S.totalUnder("run"), 100u);
}

TEST(Profiler, SplitToChildRefinesCurrentScope) {
  PhaseProfiler P;
  P.enter("compile");
  P.charge(10);
  EXPECT_EQ(P.splitToChild("lower", 4), 4u);
  EXPECT_EQ(P.splitToChild("dce", 100), 6u);
  P.exit();
  PhaseTreeSnapshot S = P.snapshot();
  EXPECT_EQ(S.cyclesAt("compile"), 0u);
  EXPECT_EQ(S.cyclesAt("compile;lower"), 4u);
  EXPECT_EQ(S.cyclesAt("compile;dce"), 6u);
  EXPECT_EQ(S.totalUnder("compile"), 10u);
}

TEST(Profiler, SelfRecursionCollapsesAndDepthIsBounded) {
  PhaseProfiler P;
  P.enter("f");
  P.enter("f");
  P.enter("f");
  P.charge(5);
  P.exit();
  P.exit();
  P.exit();
  PhaseTreeSnapshot S = P.snapshot();
  ASSERT_EQ(S.entries().size(), 1u);
  EXPECT_EQ(S.entries()[0].Stack, "f");
  EXPECT_EQ(S.entries()[0].Cycles, 5u);
  EXPECT_EQ(S.entries()[0].Count, 3u);

  // Past kMaxDepth distinct frames, enter() reuses the current node, and
  // the matching exits still unwind cleanly.
  PhaseProfiler Q;
  for (int I = 0; I != 2 * PhaseProfiler::kMaxDepth; ++I)
    Q.enter("d" + std::to_string(I));
  Q.charge(1);
  for (int I = 0; I != 2 * PhaseProfiler::kMaxDepth; ++I)
    Q.exit();
  Q.enter("after");
  Q.charge(2);
  Q.exit();
  PhaseTreeSnapshot T = Q.snapshot();
  for (const PhaseTreeSnapshot::Entry &E : T.entries()) {
    long Depth = std::count(E.Stack.begin(), E.Stack.end(), ';') + 1;
    EXPECT_LE(Depth, PhaseProfiler::kMaxDepth);
  }
  EXPECT_EQ(T.cyclesAt("after"), 2u);
}

TEST(Profiler, RootChargesExportAsUnattributed) {
  PhaseProfiler P;
  P.charge(7);
  PhaseTreeSnapshot S = P.snapshot();
  EXPECT_EQ(S.cyclesAt("(unattributed)"), 7u);
}

TEST(Profiler, JsonRoundTripsExactly) {
  PhaseProfiler P;
  P.enter("run");
  P.charge(3);
  P.enter("interp");
  P.charge(2);
  P.exit();
  P.exit();
  P.chargeAt({"offline", "ml/rebuild"}, 11, 1);
  PhaseTreeSnapshot S = P.snapshot();
  std::string Json = S.renderJson();
  auto Back = parsePhaseTreeJson(Json);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.getError().message();
  EXPECT_EQ(Back->renderJson(), Json);
  EXPECT_EQ(Back->totalUnder("run"), 5u);
  EXPECT_EQ(Back->cyclesAt("offline;ml/rebuild"), 11u);

  // The parser also accepts documents that embed the phases array (bench
  // --json, evm_cli --profile-out).
  std::string Embedded = "{\"bench\":\"t\",\"seed\":1," + Json.substr(1);
  auto FromEmbedded = parsePhaseTreeJson(Embedded);
  ASSERT_TRUE(static_cast<bool>(FromEmbedded));
  EXPECT_EQ(FromEmbedded->renderJson(), Json);
}

TEST(Profiler, ParseRejectsMalformedDocuments) {
  EXPECT_FALSE(static_cast<bool>(parsePhaseTreeJson("")));
  EXPECT_FALSE(static_cast<bool>(parsePhaseTreeJson("{\"metrics\":[]}")));
  EXPECT_FALSE(static_cast<bool>(
      parsePhaseTreeJson("{\"phases\":[{\"stack\":\"x\"}]}")));
  EXPECT_FALSE(static_cast<bool>(
      parsePhaseTreeJson("{\"phases\":[{\"stack\":\"x\",\"cycles\":1,")));
  EXPECT_FALSE(static_cast<bool>(parsePhaseTreeJson(
      "{\"phases\":[{\"stack\":\"x\",\"cycles\":\"no\",\"count\":1}]}")));
  // An empty array is a valid (empty) profile.
  auto Empty = parsePhaseTreeJson("{\"phases\":[]}");
  ASSERT_TRUE(static_cast<bool>(Empty));
  EXPECT_TRUE(Empty->empty());
}
