//===- bench/bench_openworld.cpp - Open-world generated-app stress sweep ---==//
//
// Stresses the learning pipeline on a population of generated applications
// the 11 hand-built paper analogues never cover: 140 stationary apps with
// varied call-graph shapes, hot-set sizes, loop nests, and input-feature
// coupling, plus 60 flip-drift apps whose input distribution changes
// mid-stream and flips the feature->best-level mapping.
//
// Per app, the same generated run order is replayed through Default (AOS),
// Rep, and Evolve.  Three families of gates:
//
//   open-world   Evolve's steady-state speedup never falls below AOS in
//                aggregate (AOS speedup == 1.0 by construction), and the
//                per-app failure fraction stays bounded.
//   drift        the confidence guard degrades gracefully: prediction-driven
//                runs that lose to AOS stay rare right after the drift
//                point (the guard falls back to reactive adaptation rather
//                than keep mispredicting), the guard demonstrably closes,
//                and post-drift steady state recovers to >= AOS.
//   identity     the same spec generated twice, and concurrently from 4
//                threads, yields byte-identical workload fingerprints.
//
// All numbers are virtual-clock deterministic; the committed baseline diffs
// byte-for-byte.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Scenario.h"
#include "support/BuildInfo.h"
#include "support/DecisionLedger.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "workloads/Generator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace evm;

namespace {

constexpr size_t NumStationary = 140;
constexpr size_t NumDrift = 60;

/// The stationary population: structure knobs cycle deterministically with
/// the app index so the sweep covers the spec space, not one corner of it.
wl::GenSpec stationarySpec(size_t App) {
  wl::GenSpec S;
  S.Seed = 1000 + App;
  S.HotMethods = 2 + static_cast<int>(App % 4);       // 2..5
  S.ColdMethods = 1 + static_cast<int>(App % 3);      // 1..3
  S.CallDepth = 2 + static_cast<int>(App % 3);        // 2..4
  S.FanOut = 2 + static_cast<int>(App % 2);           // 2..3
  S.LoopDepth = 1 + static_cast<int>(App % 3);        // 1..3
  S.NumInputs = 10;
  S.NumRuns = 20;
  S.MinWork = 32;
  S.MaxWork = 2048;
  S.Coupling = 1.0 - 0.05 * static_cast<double>(App % 3); // 1.0, .95, .9
  // Keep the leaf pool reachable: fanout 2 + depth 2 gives 3 slots.
  while ((S.CallDepth - 1) * (S.FanOut - 1) + S.FanOut <
         S.HotMethods + S.ColdMethods)
    ++S.CallDepth;
  return S;
}

/// The drift population: a phase change at 40% of a longer stream, with a
/// work-scale flip large enough to move hot methods across level
/// boundaries.
wl::GenSpec driftSpec(size_t App) {
  wl::GenSpec S = stationarySpec(App);
  S.Seed = 9000 + App;
  S.Drift = wl::DriftKind::Flip;
  S.DriftAt = 0.4;
  S.NumRuns = 40;
  S.ScaleA = 1;
  S.ScaleB = 24 + 8 * static_cast<int64_t>(App % 3); // 24, 32, 40
  return S;
}

/// Mean speedup-vs-Default over the last \p Window runs.
double steadySpeedup(const harness::ScenarioResult &R, size_t Window) {
  std::vector<double> V;
  size_t Begin = R.Runs.size() > Window ? R.Runs.size() - Window : 0;
  for (size_t I = Begin; I != R.Runs.size(); ++I)
    V.push_back(R.Runs[I].SpeedupVsDefault);
  return mean(V);
}

struct DriftStats {
  size_t PostRuns = 0;        ///< runs after the drift point
  size_t HarmfulPredicted = 0; ///< predicted runs that lost to AOS
  bool GuardClosed = false;   ///< a post-drift run had a prediction the
                              ///< guard refused to act on
  double RecoverySpeedup = 0; ///< steady state of the post-drift window
};

DriftStats analyzeDrift(const harness::ScenarioResult &Evolve,
                        size_t DriftRun) {
  DriftStats D;
  for (size_t I = DriftRun; I < Evolve.Runs.size(); ++I) {
    const harness::RunMetrics &R = Evolve.Runs[I];
    ++D.PostRuns;
    if (R.UsedPrediction && R.SpeedupVsDefault < 1.0 - 1e-9)
      ++D.HarmfulPredicted;
    if (R.HadPrediction && !R.UsedPrediction)
      D.GuardClosed = true;
  }
  D.RecoverySpeedup = steadySpeedup(Evolve, 8);
  return D;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  PhaseProfiler Profiler;
  ProfilerInstallGuard ProfilerGuard(&Profiler);
  int Failures = 0;

  std::printf("Open-world sweep: %zu stationary + %zu flip-drift generated "
              "apps\n(Default == AOS == speedup 1.0 by construction)\n\n",
              NumStationary, NumDrift);

  // --- Stationary population -------------------------------------------
  std::vector<double> EvolveSteady, RepSteady, EvolveAcc;
  std::vector<double> StationarySum, DriftSum; // per-run-index speedup sums
  size_t StationaryApps = 0, DriftApps = 0;
  size_t BelowAos = 0;
  for (size_t App = 0; App != NumStationary; ++App) {
    wl::GenSpec Spec = stationarySpec(App);
    auto G = wl::generateWorkload(Spec);
    if (!G) {
      std::fprintf(stderr, "GATE: app %zu failed to generate: %s\n", App,
                   G.getError().message().c_str());
      ++Failures;
      continue;
    }
    harness::ExperimentConfig C;
    C.Seed = Spec.Seed;
    C.NumRuns = Spec.NumRuns;
    harness::ScenarioRunner Runner(G->W, C);
    std::vector<size_t> Order = wl::makeGenRunOrder(Spec);

    harness::ScenarioResult Rep = Runner.runRep(Order);
    harness::ScenarioResult Evolve = Runner.runEvolve(Order);

    double EvoSteady = steadySpeedup(Evolve, 8);
    EvolveSteady.push_back(EvoSteady);
    RepSteady.push_back(steadySpeedup(Rep, 8));
    EvolveAcc.push_back(Evolve.MeanAccuracy);
    if (EvoSteady < 1.0 - 1e-9)
      ++BelowAos;
    StationarySum.resize(std::max(StationarySum.size(), Evolve.Runs.size()));
    for (size_t I = 0; I != Evolve.Runs.size(); ++I)
      StationarySum[I] += Evolve.Runs[I].SpeedupVsDefault;
    ++StationaryApps;
  }

  double MeanEvolveSteady = mean(EvolveSteady);
  double MeanRepSteady = mean(RepSteady);
  double BelowAosFrac =
      static_cast<double>(BelowAos) / static_cast<double>(NumStationary);
  Metrics.setGauge("openworld.apps",
                   static_cast<double>(NumStationary + NumDrift));
  Metrics.setGauge("openworld.stationary.evolve.steady_speedup",
                   MeanEvolveSteady);
  Metrics.setGauge("openworld.stationary.rep.steady_speedup", MeanRepSteady);
  Metrics.setGauge("openworld.stationary.evolve.mean_accuracy",
                   mean(EvolveAcc));
  Metrics.setGauge("openworld.stationary.below_aos_fraction", BelowAosFrac);

  if (MeanEvolveSteady < 1.0) {
    std::fprintf(stderr,
                 "GATE: stationary Evolve steady-state speedup %.4f fell "
                 "below AOS (1.0)\n",
                 MeanEvolveSteady);
    ++Failures;
  }
  if (BelowAosFrac > 0.15) {
    std::fprintf(stderr,
                 "GATE: %.1f%% of stationary apps ended below AOS steady "
                 "state (budget 15%%)\n",
                 100.0 * BelowAosFrac);
    ++Failures;
  }

  // --- Drift population -------------------------------------------------
  // One decision ledger spans the whole population: generated app names are
  // distinct, so per-app grouping falls out of the records themselves.
  DecisionLedger DriftLedger(NumDrift * 64);
  DriftLedger.setEnabled(true);
  std::vector<double> Recovery, Exposure;
  size_t GuardClosedApps = 0, RecoveredApps = 0;
  for (size_t App = 0; App != NumDrift; ++App) {
    wl::GenSpec Spec = driftSpec(App);
    auto G = wl::generateWorkload(Spec);
    if (!G) {
      std::fprintf(stderr, "GATE: drift app %zu failed to generate: %s\n",
                   App, G.getError().message().c_str());
      ++Failures;
      continue;
    }
    harness::ExperimentConfig C;
    C.Seed = Spec.Seed;
    C.NumRuns = Spec.NumRuns;
    harness::ScenarioRunner Runner(G->W, C);
    Runner.setLedger(&DriftLedger);
    std::vector<size_t> Order = wl::makeGenRunOrder(Spec);
    harness::ScenarioResult Evolve = Runner.runEvolve(Order);

    DriftSum.resize(std::max(DriftSum.size(), Evolve.Runs.size()));
    for (size_t I = 0; I != Evolve.Runs.size(); ++I)
      DriftSum[I] += Evolve.Runs[I].SpeedupVsDefault;
    ++DriftApps;

    size_t DriftRun = static_cast<size_t>(
        static_cast<double>(Spec.NumRuns) * Spec.DriftAt + 0.5);
    DriftStats D = analyzeDrift(Evolve, DriftRun);
    Exposure.push_back(D.PostRuns
                           ? static_cast<double>(D.HarmfulPredicted) /
                                 static_cast<double>(D.PostRuns)
                           : 0.0);
    Recovery.push_back(D.RecoverySpeedup);
    if (D.GuardClosed)
      ++GuardClosedApps;
    if (D.RecoverySpeedup >= 1.0 - 1e-9)
      ++RecoveredApps;
  }

  double MeanExposure = mean(Exposure);
  double MeanRecovery = mean(Recovery);
  double GuardClosedFrac =
      static_cast<double>(GuardClosedApps) / static_cast<double>(NumDrift);
  double RecoveredFrac =
      static_cast<double>(RecoveredApps) / static_cast<double>(NumDrift);
  Metrics.setGauge("openworld.drift.mispredict_exposure", MeanExposure);
  Metrics.setGauge("openworld.drift.recovery_speedup", MeanRecovery);
  Metrics.setGauge("openworld.drift.guard_closed_fraction", GuardClosedFrac);
  Metrics.setGauge("openworld.drift.recovered_fraction", RecoveredFrac);

  if (MeanExposure > 0.10) {
    std::fprintf(stderr,
                 "GATE: drift mispredict exposure %.4f > 0.10 (the guard "
                 "must fall back rather than keep mispredicting)\n",
                 MeanExposure);
    ++Failures;
  }
  if (GuardClosedFrac < 0.5) {
    std::fprintf(stderr,
                 "GATE: guard closed on only %.1f%% of drift apps "
                 "(expected >= 50%%)\n",
                 100.0 * GuardClosedFrac);
    ++Failures;
  }
  if (MeanRecovery < 1.0) {
    std::fprintf(stderr,
                 "GATE: post-drift steady-state speedup %.4f fell below "
                 "AOS (1.0)\n",
                 MeanRecovery);
    ++Failures;
  }

  // --- Ledger reproduction gate -----------------------------------------
  // Re-derive the drift gates' inputs from the decision records alone —
  // speedup as baseline/cycles, post-drift as run ordinal > DriftRun, apps
  // grouped by record app name in first-seen (= suite) order.  The same
  // double arithmetic over the same values must reproduce the suite's
  // numbers bit-for-bit, pinning the ledger as a faithful audit stream.
  std::vector<DecisionRecord> DriftRecords = DriftLedger.exportOrder();
  if (DriftLedger.enabled() && !DriftRecords.empty()) {
    size_t LedgerDriftRun = static_cast<size_t>(
        static_cast<double>(driftSpec(0).NumRuns) * driftSpec(0).DriftAt +
        0.5);
    struct AppAgg {
      size_t Post = 0;
      size_t Harmful = 0;
      bool Closed = false;
    };
    std::vector<std::string> AppOrder;
    std::map<std::string, AppAgg> Agg;
    for (const DecisionRecord &R : DriftRecords) {
      if (!Agg.count(R.App))
        AppOrder.push_back(R.App);
      AppAgg &A = Agg[R.App];
      if (R.Run <= LedgerDriftRun) // Run is 1-based; post-drift is beyond it
        continue;
      ++A.Post;
      if (R.Used && R.BaselineCycles &&
          static_cast<double>(R.BaselineCycles) /
                  static_cast<double>(R.Cycles) <
              1.0 - 1e-9)
        ++A.Harmful;
      if (R.Had && !R.Used)
        A.Closed = true;
    }
    std::vector<double> LedgerExposure;
    size_t LedgerClosedApps = 0;
    for (const std::string &App : AppOrder) {
      const AppAgg &A = Agg[App];
      LedgerExposure.push_back(A.Post ? static_cast<double>(A.Harmful) /
                                            static_cast<double>(A.Post)
                                      : 0.0);
      if (A.Closed)
        ++LedgerClosedApps;
    }
    double LedgerMeanExposure = mean(LedgerExposure);
    double LedgerClosedFrac = static_cast<double>(LedgerClosedApps) /
                              static_cast<double>(NumDrift);
    Metrics.setGauge("openworld.drift.ledger.records",
                     static_cast<double>(DriftRecords.size()));
    Metrics.setGauge("openworld.drift.ledger.mispredict_exposure",
                     LedgerMeanExposure);
    Metrics.setGauge("openworld.drift.ledger.guard_closed_fraction",
                     LedgerClosedFrac);
    if (LedgerMeanExposure != MeanExposure ||
        LedgerClosedFrac != GuardClosedFrac) {
      std::fprintf(stderr,
                   "GATE: ledger replay disagrees with the suite "
                   "(exposure %.17g vs %.17g, guard-closed %.17g vs "
                   "%.17g)\n",
                   LedgerMeanExposure, MeanExposure, LedgerClosedFrac,
                   GuardClosedFrac);
      ++Failures;
    }
  }

  // --- Identity gate ----------------------------------------------------
  // Same spec, serial rerun and 4 concurrent generations: every workload
  // fingerprint must be byte-identical.
  wl::GenSpec IdSpec = driftSpec(7);
  auto Reference = wl::generateWorkload(IdSpec);
  std::string RefFp;
  if (Reference)
    RefFp = wl::workloadFingerprint(*Reference, wl::makeGenRunOrder(IdSpec));
  bool Identical = Reference && !RefFp.empty();
  {
    auto Again = wl::generateWorkload(IdSpec);
    Identical = Identical && Again &&
                wl::workloadFingerprint(
                    *Again, wl::makeGenRunOrder(IdSpec)) == RefFp;
  }
  std::vector<std::string> ThreadFps(4);
  {
    std::vector<std::thread> Threads;
    for (size_t T = 0; T != ThreadFps.size(); ++T)
      Threads.emplace_back([&, T] {
        auto G = wl::generateWorkload(IdSpec);
        if (G)
          ThreadFps[T] =
              wl::workloadFingerprint(*G, wl::makeGenRunOrder(IdSpec));
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  for (const std::string &Fp : ThreadFps)
    Identical = Identical && Fp == RefFp;
  Metrics.setGauge("openworld.gen.identity", Identical ? 1.0 : 0.0);
  if (!Identical) {
    std::fprintf(stderr, "GATE: generation is not byte-identical across "
                         "reruns/threads\n");
    ++Failures;
  }

  TextTable Table({"Population", "evolveSteady", "repSteady", "belowAos%",
                   "exposure", "recovered%"});
  Table.beginRow();
  Table.addCell("stationary");
  Table.addCell(MeanEvolveSteady, 3);
  Table.addCell(MeanRepSteady, 3);
  Table.addCell(100.0 * BelowAosFrac, 1);
  Table.addCell("-");
  Table.addCell("-");
  Table.beginRow();
  Table.addCell("flip-drift");
  Table.addCell(MeanRecovery, 3);
  Table.addCell("-");
  Table.addCell("-");
  Table.addCell(MeanExposure, 3);
  Table.addCell(100.0 * RecoveredFrac, 1);
  std::printf("%s\n", Table.render().c_str());
  std::printf("Expected shape: evolveSteady >= 1.0 (never below AOS), "
              "bounded drift exposure\nwith the guard closing and "
              "post-drift recovery back above AOS, identity == 1.\n");

  // Run-indexed mean-speedup series across the populations: stationary
  // should classify warmup/flat; the drift population carries a planted
  // changepoint at the flip (40% of the stream) before recovering.
  std::vector<benchjson::BenchSeries> Series;
  auto pushSpeedupSeries = [&](const char *Name,
                               const std::vector<double> &Sums, size_t Apps) {
    if (!Apps)
      return;
    benchjson::BenchSeries S;
    S.Name = Name;
    S.Unit = "speedup";
    S.LowerIsBetter = false;
    for (double Sum : Sums)
      S.Samples.push_back(Sum / static_cast<double>(Apps));
    Series.push_back(std::move(S));
  };
  pushSpeedupSeries("openworld.stationary.mean_speedup_by_run",
                    StationarySum, StationaryApps);
  pushSpeedupSeries("openworld.drift.mean_speedup_by_run", DriftSum,
                    DriftApps);

  PhaseTreeSnapshot Phases = Profiler.snapshot();
  if (!benchjson::writeBenchJson(JsonPath, "openworld", 20090301,
                                 Metrics.snapshot(), &Phases, &Series))
    return 2;

  // Decision-ledger sibling: the drift population's audit stream, for
  // tools/evm-explain (bench/run_all.sh --check replays its analytics
  // against the gates above).
  std::string DecPath = benchjson::decisionsJsonlPath(JsonPath);
  if (!DecPath.empty() && DriftLedger.enabled()) {
    const BuildInfo &B = buildInfo();
    LedgerProvenance Prov;
    Prov.GitSha = B.GitSha;
    Prov.Compiler = B.Compiler;
    Prov.CompilerVersion = B.CompilerVersion;
    Prov.BuildType = B.BuildType;
    std::ofstream Stream(DecPath, std::ios::binary);
    if (!(Stream << renderJsonlDecisions(DriftRecords, &Prov))) {
      std::fprintf(stderr, "error: cannot write %s\n", DecPath.c_str());
      return 2;
    }
  }
  return Failures ? 1 : 0;
}
