//===- harness/Experiments.cpp --------------------------------------------==//

#include "harness/Experiments.h"

#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <algorithm>

using namespace evm;
using namespace evm::harness;

namespace {

ExperimentConfig makeConfig(uint64_t Seed) {
  ExperimentConfig C;
  C.Seed = Seed;
  return C;
}

/// Collects the speedup column of a scenario result.
std::vector<double> speedups(const ScenarioResult &R) {
  std::vector<double> Out;
  Out.reserve(R.Runs.size());
  for (const RunMetrics &M : R.Runs)
    Out.push_back(M.SpeedupVsDefault);
  return Out;
}

/// Rolls a scenario's totals into the bench-wide counters.
void addRunTotals(MetricsRegistry *Metrics, const ScenarioResult &R) {
  if (!Metrics)
    return;
  for (const RunMetrics &M : R.Runs) {
    Metrics->add("bench.cycles.total", M.Cycles);
    Metrics->add("bench.compiles.total", M.Compiles);
    Metrics->add("bench.runs.total");
  }
}

} // namespace

std::string harness::runTable1(uint64_t Seed, MetricsRegistry *Metrics) {
  TextTable Table({"Program", "Suite", "#Inputs", "Min(s)", "Max(s)",
                   "FeatTotal", "FeatUsed", "conf", "acc"});
  std::vector<wl::Workload> All = wl::buildAllWorkloads(Seed);
  for (const wl::Workload &W : All) {
    ScenarioRunner Runner(W, makeConfig(Seed));
    size_t Runs = Runner.recommendedRuns();
    std::vector<size_t> Order = Runner.makeInputOrder(/*OrderSeed=*/1, Runs);

    // Default running-time range over the whole input set (the paper's
    // Min/Max columns describe the benchmark's inputs).
    double MinSec = 1e30, MaxSec = 0;
    for (size_t I = 0; I != W.Inputs.size(); ++I) {
      double Sec = Runner.config().Timing.toSeconds(Runner.defaultCycles(I));
      MinSec = std::min(MinSec, Sec);
      MaxSec = std::max(MaxSec, Sec);
    }

    ScenarioResult Evolve = Runner.runEvolve(Order);
    addRunTotals(Metrics, Evolve);
    if (Metrics) {
      Metrics->setGauge("table1." + W.Name + ".confidence",
                        Evolve.FinalConfidence);
      Metrics->setGauge("table1." + W.Name + ".accuracy",
                        Evolve.MeanAccuracy);
    }

    Table.beginRow();
    Table.addCell(W.Name);
    Table.addCell(W.Suite);
    Table.addCell(static_cast<int64_t>(W.Inputs.size()));
    Table.addCell(MinSec, 1);
    Table.addCell(MaxSec, 1);
    Table.addCell(static_cast<int64_t>(Evolve.RawFeatures));
    Table.addCell(static_cast<int64_t>(Evolve.UsedFeatures));
    Table.addCell(Evolve.FinalConfidence, 2);
    Table.addCell(Evolve.MeanAccuracy, 2);
  }
  return "Table I: benchmarks (input sets, default run-time range, feature\n"
         "selection, and prediction confidence/accuracy)\n\n" +
         Table.render();
}

std::string harness::runFig8(const std::string &WorkloadName, uint64_t Seed,
                             MetricsRegistry *Metrics) {
  wl::Workload W = wl::buildWorkload(WorkloadName, Seed);
  ScenarioRunner Runner(W, makeConfig(Seed));
  size_t Runs = Runner.recommendedRuns();
  std::vector<size_t> Order = Runner.makeInputOrder(1, Runs);

  ScenarioResult Evolve = Runner.runEvolve(Order);
  ScenarioResult Rep = Runner.runRep(Order);
  addRunTotals(Metrics, Evolve);
  addRunTotals(Metrics, Rep);
  if (Metrics) {
    Metrics->setGauge("fig8." + WorkloadName + ".final_confidence",
                      Evolve.FinalConfidence);
    Metrics->setGauge("fig8." + WorkloadName + ".median_evolve_speedup",
                      median(speedups(Evolve)));
    Metrics->setGauge("fig8." + WorkloadName + ".median_rep_speedup",
                      median(speedups(Rep)));
  }

  TextTable Table({"run", "conf", "acc", "evolveSpeedup", "repSpeedup",
                   "predicted"});
  for (size_t I = 0; I != Evolve.Runs.size(); ++I) {
    Table.beginRow();
    Table.addCell(static_cast<int64_t>(I + 1));
    Table.addCell(Evolve.Runs[I].Confidence, 3);
    Table.addCell(Evolve.Runs[I].Accuracy, 3);
    Table.addCell(Evolve.Runs[I].SpeedupVsDefault, 3);
    Table.addCell(I < Rep.Runs.size() ? Rep.Runs[I].SpeedupVsDefault : 1.0,
                  3);
    Table.addCell(Evolve.Runs[I].UsedPrediction ? "yes" : "no");
  }
  return formatString("Figure 8 (%s): temporal curves of confidence, "
                      "prediction accuracy,\nand speedup (Evolve vs Rep) "
                      "across %zu runs\n\n",
                      WorkloadName.c_str(), Runs) +
         Table.render();
}

std::string harness::runFig9(const std::string &WorkloadName, uint64_t Seed,
                             MetricsRegistry *Metrics) {
  wl::Workload W = wl::buildWorkload(WorkloadName, Seed);
  ScenarioRunner Runner(W, makeConfig(Seed));
  size_t Runs = Runner.recommendedRuns();
  std::vector<size_t> Order = Runner.makeInputOrder(1, Runs);

  ScenarioResult Evolve = Runner.runEvolve(Order);
  ScenarioResult Rep = Runner.runRep(Order);
  addRunTotals(Metrics, Evolve);
  addRunTotals(Metrics, Rep);
  if (Metrics)
    Metrics->setGauge("fig9." + WorkloadName + ".median_evolve_speedup",
                      median(speedups(Evolve)));

  // Drop the warmup runs where Evolve made no guarded prediction (the
  // paper excludes the runs before prediction starts), then sort ascending
  // by default running time.
  struct Row {
    double DefaultSec;
    double EvolveSpeedup;
    double RepSpeedup;
  };
  std::vector<Row> Rows;
  for (size_t I = 0; I != Evolve.Runs.size(); ++I) {
    if (!Evolve.Runs[I].UsedPrediction)
      continue;
    Row R;
    R.DefaultSec = Runner.config().Timing.toSeconds(
        Runner.defaultCycles(Evolve.Runs[I].InputIndex));
    R.EvolveSpeedup = Evolve.Runs[I].SpeedupVsDefault;
    R.RepSpeedup =
        I < Rep.Runs.size() ? Rep.Runs[I].SpeedupVsDefault : 1.0;
    Rows.push_back(R);
  }
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.DefaultSec < B.DefaultSec;
  });

  TextTable Table({"defaultTime(s)", "evolveSpeedup", "repSpeedup"});
  for (const Row &R : Rows) {
    Table.beginRow();
    Table.addCell(R.DefaultSec, 2);
    Table.addCell(R.EvolveSpeedup, 3);
    Table.addCell(R.RepSpeedup, 3);
  }
  return formatString("Figure 9 (%s): speedup vs default running time "
                      "(runs sorted by\ndefault time; prediction-guarded "
                      "warmup runs excluded)\n\n",
                      WorkloadName.c_str()) +
         Table.render();
}

std::string harness::runFig10(uint64_t Seed, MetricsRegistry *Metrics) {
  std::string Out = "Figure 10: speedup boxplots (Evolve vs Rep), "
                    "normalized to the default VM\n\n";
  TextTable Table({"Program", "Scen", "min", "q25", "median", "q75", "max"});
  std::string Boxes;
  const double AxisMin = 0.9, AxisMax = 2.0;

  for (const std::string &Name : wl::workloadNames()) {
    wl::Workload W = wl::buildWorkload(Name, Seed);
    ScenarioRunner Runner(W, makeConfig(Seed));
    size_t Runs = Runner.recommendedRuns();
    std::vector<size_t> Order = Runner.makeInputOrder(1, Runs);
    ScenarioResult Evolve = Runner.runEvolve(Order);
    ScenarioResult Rep = Runner.runRep(Order);
    addRunTotals(Metrics, Evolve);
    addRunTotals(Metrics, Rep);

    for (const ScenarioResult *R : {&Evolve, &Rep}) {
      BoxStats S = computeBoxStats(speedups(*R));
      if (Metrics)
        Metrics->setGauge("fig10." + Name + "." + R->ScenarioName +
                              ".median_speedup",
                          S.Median);
      Table.beginRow();
      Table.addCell(Name);
      Table.addCell(R->ScenarioName);
      Table.addCell(S.Min, 3);
      Table.addCell(S.Q25, 3);
      Table.addCell(S.Median, 3);
      Table.addCell(S.Q75, 3);
      Table.addCell(S.Max, 3);
      Boxes += formatString("%-11s %-7s |%s|\n", Name.c_str(),
                            R->ScenarioName.c_str(),
                            renderBoxLine(S.Min, S.Q25, S.Median, S.Q75,
                                          S.Max, AxisMin, AxisMax, 56)
                                .c_str());
    }
  }
  Out += Table.render();
  Out += formatString("\nASCII boxplots (axis %.1fx .. %.1fx):\n", AxisMin,
                      AxisMax);
  Out += Boxes;
  return Out;
}

std::string harness::runOverheadAnalysis(uint64_t Seed,
                                         MetricsRegistry *Metrics) {
  TextTable Table({"Program", "meanOverhead%", "maxOverhead%"});
  for (const std::string &Name : wl::workloadNames()) {
    wl::Workload W = wl::buildWorkload(Name, Seed);
    ScenarioRunner Runner(W, makeConfig(Seed));
    size_t Runs = Runner.recommendedRuns();
    std::vector<size_t> Order = Runner.makeInputOrder(1, Runs);
    ScenarioResult Evolve = Runner.runEvolve(Order);
    addRunTotals(Metrics, Evolve);

    std::vector<double> Fractions;
    for (const RunMetrics &M : Evolve.Runs)
      Fractions.push_back(100.0 * static_cast<double>(M.OverheadCycles) /
                          static_cast<double>(M.Cycles));
    if (Metrics)
      Metrics->setGauge("overhead." + Name + ".mean_pct", mean(Fractions));
    Table.beginRow();
    Table.addCell(Name);
    Table.addCell(mean(Fractions), 3);
    Table.addCell(quantile(Fractions, 1.0), 3);
  }
  return "Overhead analysis (Sec. V.B.2): XICL feature extraction +\n"
         "prediction time as a percentage of run time\n\n" +
         Table.render();
}

std::string harness::runSensitivity(uint64_t Seed,
                                    MetricsRegistry *Metrics) {
  std::string Out =
      "Sensitivity analysis (Sec. V.B.3)\n\n"
      "(a) Confidence threshold sweep on Mtrt: higher thresholds are more\n"
      "conservative (smaller speedup range, better worst case)\n\n";
  {
    TextTable Table({"THc", "minSpeedup", "maxSpeedup", "medianSpeedup",
                     "predictedRuns"});
    for (double Threshold : {0.5, 0.7, 0.9}) {
      wl::Workload W = wl::buildWorkload("Mtrt", Seed);
      ExperimentConfig C = makeConfig(Seed);
      C.ConfidenceThreshold = Threshold;
      ScenarioRunner Runner(W, C);
      std::vector<size_t> Order = Runner.makeInputOrder(1, 70);
      ScenarioResult Evolve = Runner.runEvolve(Order);
      addRunTotals(Metrics, Evolve);
      if (Metrics)
        Metrics->setGauge(formatString("sensitivity.thc_%.1f.median_speedup",
                                       Threshold),
                          median(speedups(Evolve)));
      std::vector<double> S = speedups(Evolve);
      int64_t Predicted = 0;
      for (const RunMetrics &M : Evolve.Runs)
        Predicted += M.UsedPrediction ? 1 : 0;
      Table.beginRow();
      Table.addCell(Threshold, 1);
      Table.addCell(quantile(S, 0.0), 3);
      Table.addCell(quantile(S, 1.0), 3);
      Table.addCell(median(S), 3);
      Table.addCell(Predicted);
    }
    Out += Table.render();
  }

  Out += "\n(b) Input-order sensitivity on RayTracer: worst-case speedup\n"
         "across 5 arrival orders (Rep reacts to order; Evolve's guard\n"
         "suppresses immature predictions)\n\n";
  {
    TextTable Table({"order", "repMinSpeedup", "evolveMinSpeedup",
                     "repMedian", "evolveMedian"});
    wl::Workload W = wl::buildWorkload("RayTracer", Seed);
    for (uint64_t OrderSeed = 1; OrderSeed <= 5; ++OrderSeed) {
      ScenarioRunner Runner(W, makeConfig(Seed));
      std::vector<size_t> Order = Runner.makeInputOrder(OrderSeed, 30);
      ScenarioResult Rep = Runner.runRep(Order);
      ScenarioResult Evolve = Runner.runEvolve(Order);
      addRunTotals(Metrics, Rep);
      addRunTotals(Metrics, Evolve);
      std::vector<double> RepS = speedups(Rep), EvS = speedups(Evolve);
      Table.beginRow();
      Table.addCell(static_cast<int64_t>(OrderSeed));
      Table.addCell(quantile(RepS, 0.0), 3);
      Table.addCell(quantile(EvS, 0.0), 3);
      Table.addCell(median(RepS), 3);
      Table.addCell(median(EvS), 3);
    }
    Out += Table.render();
  }
  return Out;
}
