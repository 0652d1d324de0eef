//===- tests/test_perf_smoke.cpp - CI perf-smoke gates --------------------==//
//
// Small, fast perf gates meant to run on every build:
//
//   * one small scenario per engine mode (baseline-only, adaptive), each
//     asserting that virtual cycle counts are bit-for-bit identical across
//     {plain, profiler installed, tracer enabled, both} — the
//     observability stack must be free on the modeled machine;
//   * the paper's Sec. V.B.2 claim on the profiler's own evidence: the
//     evolvable VM's runtime overhead (XICL characterization + tree
//     prediction) stays under 1% of total run cycles on a Table-1-style
//     scenario.
//
// The bench-compare regression gate rides next to these as separate ctest
// entries (see tests/CMakeLists.txt): the script's --self-test plus an
// identity diff of the committed BENCH_results.json baseline.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenario.h"
#include "support/Profiler.h"
#include "support/Trace.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <optional>

using namespace evm;

namespace {

constexpr uint64_t Seed = 20090301;

enum class Mode { BaselineOnly, Adaptive };

const char *modeName(Mode M) {
  return M == Mode::BaselineOnly ? "baseline-only" : "adaptive";
}

/// One small Compress run in the given engine mode with the requested
/// observers attached; returns the virtual cycle count.
uint64_t runSmallScenario(Mode M, bool Profiled, bool Traced) {
  wl::Workload W = wl::buildWorkload("Compress", Seed);
  const wl::InputCase &Input = W.Inputs.front();
  vm::TimingModel TM;
  TraceRecorder Tracer;
  Tracer.setEnabled(Traced);
  TraceRecorder *T = Traced ? &Tracer : nullptr;
  std::optional<vm::AdaptivePolicy> Policy;
  if (M != Mode::BaselineOnly)
    Policy.emplace(TM, T);
  vm::ExecutionEngine Engine(W.Module, TM, Policy ? &*Policy : nullptr);
  Engine.setTracer(T);
  PhaseProfiler Profiler;
  std::optional<ProfilerInstallGuard> Guard;
  if (Profiled)
    Guard.emplace(&Profiler);
  auto R = Engine.run(Input.VmArgs);
  EXPECT_TRUE(static_cast<bool>(R));
  return R ? R->Cycles : 0;
}

} // namespace

TEST(PerfSmoke, ObserversAreCycleFreeInEveryEngineMode) {
  for (Mode M : {Mode::BaselineOnly, Mode::Adaptive}) {
    uint64_t Plain = runSmallScenario(M, false, false);
    EXPECT_GT(Plain, 0u) << modeName(M);
    EXPECT_EQ(Plain, runSmallScenario(M, true, false)) << modeName(M);
    EXPECT_EQ(Plain, runSmallScenario(M, false, true)) << modeName(M);
    EXPECT_EQ(Plain, runSmallScenario(M, true, true)) << modeName(M);
  }
}

TEST(PerfSmoke, EvolveRuntimeOverheadStaysUnderOnePercent) {
  wl::Workload W = wl::buildWorkload("Mtrt", Seed);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  PhaseProfiler Profiler;
  ProfilerInstallGuard Guard(&Profiler);
  harness::ScenarioResult Evolve =
      Runner.runEvolve(Runner.makeInputOrder(1, 8));
  ASSERT_EQ(Evolve.Runs.size(), 8u);
  PhaseTreeSnapshot S = Profiler.snapshot();
  uint64_t Total = S.totalUnder("run");
  uint64_t Overhead = S.totalUnder("run;overhead;xicl/characterize") +
                      S.totalUnder("run;overhead;ml/predict");
  ASSERT_GT(Total, 0u);
  ASSERT_GT(Overhead, 0u);
  EXPECT_LT(static_cast<double>(Overhead), 0.01 * static_cast<double>(Total))
      << "overhead " << Overhead << " of " << Total << " cycles";
}
