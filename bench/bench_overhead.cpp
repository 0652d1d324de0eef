//===- bench/bench_overhead.cpp - Sec. V.B.2 overhead analysis ------------==//
//
// The evolvable VM's runtime overhead (XICL feature extraction plus
// prediction) as a percentage of each run's time.  The paper reports
// < 0.4% typical, 1.38% worst (small-input Bloat).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiments.h"
#include "harness/Scenario.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace evm;

namespace {

/// Per-run virtual cycles of the Evolve VM re-running one input: early
/// runs are reactive (sampling + compile stalls), later runs ride the
/// learned prediction — the canonical warmup series the steady-state
/// gates watch.  (The execution engine itself resets per run, faithful to
/// the paper: cross-run improvement comes only from the learning layer.)
benchjson::BenchSeries evolveWarmupSeries(const std::string &WorkloadName,
                                          const std::string &SeriesName,
                                          size_t Runs) {
  benchjson::BenchSeries S;
  S.Name = SeriesName;
  wl::Workload W = wl::buildWorkload(WorkloadName, 20090301);
  harness::ExperimentConfig C;
  C.Seed = 20090301;
  C.NumRuns = Runs;
  harness::ScenarioRunner Runner(W, C);
  std::vector<size_t> Order(Runs, W.Inputs.size() / 2);
  harness::ScenarioResult R = Runner.runEvolve(Order);
  for (const harness::RunMetrics &M : R.Runs)
    S.Samples.push_back(static_cast<double>(M.Cycles));
  return S;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  PhaseProfiler Profiler;
  ProfilerInstallGuard ProfilerGuard(&Profiler);
  std::printf("%s\n",
              harness::runOverheadAnalysis(20090301, &Metrics).c_str());
  std::vector<benchjson::BenchSeries> Series = {evolveWarmupSeries(
      "Compress", "overhead.compress.evolve_run_cycles", 40)};
  PhaseTreeSnapshot Phases = Profiler.snapshot();
  if (!benchjson::writeBenchJson(JsonPath, "overhead", 20090301,
                                 Metrics.snapshot(), &Phases, &Series))
    return 2;
  return 0;
}
