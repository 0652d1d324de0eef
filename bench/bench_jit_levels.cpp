//===- bench/bench_jit_levels.cpp - Level-pipeline ablation ----------------==//
//
// The calibration behind TimingModel::expectedSpeedup (the "compiler DNA"):
// for each workload's hottest kernels, measure steady-state virtual-cycle
// speedup of O0/O1/O2 over baseline and static IR shrinkage.  --json also
// records Mtrt's Evolve warmup series.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Scenario.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "vm/Engine.h"
#include "vm/jit/Compiler.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace evm;

namespace {

/// Forces every method to L at first invocation.
class ForceLevel : public vm::CompilationPolicy {
public:
  explicit ForceLevel(vm::OptLevel L) : L(L) {}
  std::optional<vm::OptLevel>
  onFirstInvocation(const vm::MethodRuntimeInfo &) override {
    if (L == vm::OptLevel::Baseline)
      return std::nullopt;
    return L;
  }

private:
  vm::OptLevel L;
};

/// Steady-state cycles (compile cost excluded) of one input at level L.
uint64_t steadyCycles(const wl::Workload &W, const wl::InputCase &Input,
                      vm::OptLevel L) {
  vm::TimingModel TM;
  ForceLevel Policy(L);
  vm::ExecutionEngine Engine(W.Module, TM, &Policy);
  auto R = Engine.run(Input.VmArgs, 60ULL << 30);
  if (!R)
    return 1;
  return R->Cycles - R->compileCycles();
}

void printCalibrationTable(MetricsRegistry &Metrics) {
  std::printf("JIT level calibration (ablation): steady-state speedup over "
              "baseline per level,\nper workload; geometric means feed "
              "TimingModel::expectedSpeedup.\n\n");
  TextTable Table({"Program", "O0", "O1", "O2", "IRshrinkO2%"});
  std::vector<double> G0, G1, G2;
  for (const std::string &Name : wl::workloadNames()) {
    wl::Workload W = wl::buildWorkload(Name, 20090301);
    const wl::InputCase &Input = W.Inputs[W.Inputs.size() / 2];
    uint64_t Base = steadyCycles(W, Input, vm::OptLevel::Baseline);
    double S0 = static_cast<double>(Base) /
                steadyCycles(W, Input, vm::OptLevel::O0);
    double S1 = static_cast<double>(Base) /
                steadyCycles(W, Input, vm::OptLevel::O1);
    double S2 = static_cast<double>(Base) /
                steadyCycles(W, Input, vm::OptLevel::O2);
    // Static IR shrink at O2 vs O0, summed over methods.
    size_t O0Size = 0, O2Size = 0;
    for (bc::MethodId Id = 0; Id != W.Module.numFunctions(); ++Id) {
      O0Size += vm::jit::compileAtLevel(W.Module, Id, vm::OptLevel::O0)
                    .IR.numInstrs();
      O2Size += vm::jit::compileAtLevel(W.Module, Id, vm::OptLevel::O2)
                    .IR.numInstrs();
    }
    Table.beginRow();
    Table.addCell(Name);
    Table.addCell(S0, 2);
    Table.addCell(S1, 2);
    Table.addCell(S2, 2);
    Table.addCell(100.0 * (1.0 - static_cast<double>(O2Size) /
                                     static_cast<double>(O0Size)),
                  1);
    Metrics.setGauge("jit." + Name + ".speedup.o2", S2);
    G0.push_back(S0);
    G1.push_back(S1);
    G2.push_back(S2);
  }
  Metrics.setGauge("jit.geomean_speedup.o0", geomean(G0));
  Metrics.setGauge("jit.geomean_speedup.o1", geomean(G1));
  Metrics.setGauge("jit.geomean_speedup.o2", geomean(G2));
  Table.beginRow();
  Table.addCell("geomean");
  Table.addCell(geomean(G0), 2);
  Table.addCell(geomean(G1), 2);
  Table.addCell(geomean(G2), 2);
  Table.addCell("");
  std::printf("%s\n", Table.render().c_str());
}

/// Per-run virtual cycles of the Evolve VM re-running Mtrt's middle
/// input: sampling and compile stalls front-load the series until the
/// learned prediction takes over — the steady-state analysis should
/// segment it into a warmup followed by a steady tail.
benchjson::BenchSeries evolveWarmupSeries(size_t Runs) {
  benchjson::BenchSeries S;
  S.Name = "jit.mtrt.evolve.run_cycles";
  wl::Workload W = wl::buildWorkload("Mtrt", 20090301);
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
  printCalibrationTable(Metrics);
  std::vector<benchjson::BenchSeries> Series = {evolveWarmupSeries(40)};
  if (!benchjson::writeBenchJson(JsonPath, "jit_levels", 20090301,
                                 Metrics.snapshot(), nullptr, &Series))
    return 2;
  return 0;
}
