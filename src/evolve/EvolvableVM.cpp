//===- evolve/EvolvableVM.cpp ---------------------------------------------==//

#include "evolve/EvolvableVM.h"

#include "evolve/EvolvePolicy.h"
#include "support/Profiler.h"
#include "support/Rng.h"
#include "vm/AOS.h"
#include "xicl/Spec.h"

#include <algorithm>

using namespace evm;
using namespace evm::evolve;

EvolvableVM::EvolvableVM(const bc::Module &M, const std::string &SpecSource,
                         const xicl::XFMethodRegistry *Registry,
                         const xicl::FileStore *Files, EvolveConfig Config)
    : M(M), Config(Config), Engine(M, Config.Timing, nullptr),
      Sizes(methodSizes(M)), Model(M.numFunctions(), Config.TreeParams),
      Confidence(Config.Gamma, Config.ConfidenceThreshold) {
  auto Spec = xicl::parseSpec(SpecSource);
  if (!Spec) {
    SpecError = Spec.getError().message();
    return;
  }
  Translator = std::make_unique<xicl::XICLTranslator>(Spec.takeValue(),
                                                      Registry, Files);
}

void EvolvableVM::setTracer(TraceRecorder *T) {
  Tracer = T;
  Engine.setTracer(T);
}

namespace {

/// Highest level a strategy assigns to any method (the trace event's
/// one-slot summary of a per-method strategy).
vm::OptLevel maxLevel(const MethodLevelStrategy &S) {
  vm::OptLevel Max = vm::OptLevel::Baseline;
  for (vm::OptLevel L : S.Levels)
    if (vm::levelIndex(L) > vm::levelIndex(Max))
      Max = L;
  return Max;
}

} // namespace

ErrorOr<EvolveRunRecord> EvolvableVM::runOnce(
    const std::string &CommandLine, const std::vector<bc::Value> &VmArgs) {
  EvolveRunRecord Record;
  Record.ConfidenceBefore = Confidence.value();

  // 1. Feature extraction (charged to the clock).  Without a usable XICL
  //    spec the VM behaves exactly like the default one.
  bool HaveFeatures = false;
  if (Translator) {
    auto FV = Translator->buildFVector(CommandLine);
    if (!FV)
      return makeError("feature extraction failed: %s",
                       FV.getError().message().c_str());
    Record.Features = FV.takeValue();
    Record.ExtractionCycles = Translator->lastStats().toCycles();
    HaveFeatures = true;
    if (Record.ExtractionCycles > Config.ExtractionCycleBound) {
      // Throttle: keep the cost actually paid bounded and fall back to the
      // default optimizer for this run.
      Record.ExtractionCycles = Config.ExtractionCycleBound;
      HaveFeatures = false;
    }
  }

  // 2. Discriminative prediction: only drive the run from the model when
  //    the guard's self-evaluation clears the threshold (paper Fig. 7).
  // Ledger capture rides along for free: per-method details are only
  // requested when a ledger is attached and enabled, and capturing them
  // never changes the strategy or the charged prediction cycles.
  std::vector<MethodPredictionDetail> Details;
  std::vector<MethodPredictionDetail> *DetailsPtr =
      Ledger && Ledger->enabled() ? &Details : nullptr;
  std::optional<MethodLevelStrategy> Predicted;
  const bool GuardWasOpen = guardOpen();
  bool Predict = HaveFeatures && GuardWasOpen;
  if (Predict) {
    PredictionStats PStats;
    Predicted = Model.predict(Record.Features, &PStats, DetailsPtr);
    if (Predicted)
      Record.PredictionCycles = PStats.toCycles();
    else
      Predict = false; // no model yet
  }

  // Recorded before the engine starts: the exporter slots this pre-run
  // event into the run segment it predicts for.
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::EvolvePredict;
    E.Cycle = 0;
    E.A = RunsSeen + 1; // matches the engine's run ordinal
    E.B = HaveFeatures ? Record.Features.hash() : 0;
    E.C = Predict && Predicted ? 1 : 0;
    E.X = Record.ConfidenceBefore;
    E.Level = Predicted ? static_cast<int8_t>(maxLevel(*Predicted))
                        : kTraceNoLevel;
    Tracer->record(E);
  }

  // 3. Execute with the predicted strategy, or fall back to the default
  //    reactive adaptive system.
  uint64_t PreRunOverhead = Record.ExtractionCycles + Record.PredictionCycles;
  // Per-run sampling phase: real profilers never land on the same cycle
  // twice; varying the phase reproduces that noise deterministically.
  uint64_t SamplePhase = Rng(RunsSeen ^ 0x5a17b1e5).next();
  vm::RunResult Result;
  if (Predict && Predicted) {
    Record.UsedPrediction = true;
    // The predicted levels are installed proactively; the default adaptive
    // system keeps running underneath (as in the Jikes implementation), so
    // a mispredicted-too-low method still gets rescued reactively.
    EvolvePolicy Proactive(*Predicted);
    vm::AdaptivePolicy Reactive(Config.Timing, Tracer);
    vm::CombinedPolicy Combined(&Proactive, &Reactive);
    Engine.setPolicy(Config.ReactiveSafetyNet
                         ? static_cast<vm::CompilationPolicy *>(&Combined)
                         : static_cast<vm::CompilationPolicy *>(&Proactive));
    auto R = Engine.run(VmArgs, Config.MaxCyclesPerRun, PreRunOverhead,
                        SamplePhase);
    Engine.setPolicy(nullptr); // the per-run policies go out of scope
    if (!R)
      return R.getError();
    Result = R.takeValue();
  } else {
    vm::AdaptivePolicy Policy(Config.Timing, Tracer);
    Engine.setPolicy(&Policy);
    auto R = Engine.run(VmArgs, Config.MaxCyclesPerRun, PreRunOverhead,
                        SamplePhase);
    Engine.setPolicy(nullptr);
    if (!R)
      return R.getError();
    Result = R.takeValue();
    // The paper's else-branch: predict after the fact (not charged — the
    // run is over) purely to measure accuracy and update confidence.
    if (HaveFeatures)
      Predicted = Model.predict(Record.Features, nullptr, DetailsPtr);
  }

  // 4. Posterior evaluation and model update.
  Record.Ideal =
      idealStrategyFromProfile(Config.Timing, Result.PerMethod, Sizes);
  if (Predicted) {
    Record.HadPrediction = true;
    Record.Predicted = *Predicted;
    Record.Accuracy =
        predictionAccuracy(*Predicted, Record.Ideal, Result.PerMethod);
    Confidence.update(Record.Accuracy);
    Feedback.recordAccuracy(Record.Accuracy);
  }
  if (HaveFeatures) {
    Model.addRun(Record.Features, Record.Ideal);
    Model.rebuild(); // offline stage; not charged to the application clock
    if (Config.Guard == GuardMode::CrossValidation) {
      Rng CvRng(RunsSeen ^ 0xCF01DED5);
      CvConfidence = Model.crossValidatedAccuracy(Config.CvFolds, CvRng);
    }
  }

  Record.CvConfidence = CvConfidence;
  Record.ConfidenceAfter = Confidence.value();

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Cycle = Result.Cycles;
    if (Record.HadPrediction) {
      // "Agreed" = the posterior ideal (what the reactive system converges
      // to, given the full profile) matched the prediction well enough to
      // clear the confidence threshold.
      size_t Correct = 0;
      for (size_t I = 0; I != Record.Ideal.Levels.size(); ++I)
        if (Record.Predicted.levelFor(static_cast<bc::MethodId>(I)) ==
            Record.Ideal.Levels[I])
          ++Correct;
      E.Kind = TraceEventKind::EvolveOutcome;
      E.A = Record.Accuracy >= Config.ConfidenceThreshold ? 1 : 0;
      E.B = Correct;
      E.C = Record.Ideal.Levels.size();
      E.X = Record.Accuracy;
      E.Level = static_cast<int8_t>(maxLevel(Record.Ideal));
      Tracer->record(E);
    }
    if (HaveFeatures) {
      E = TraceEvent();
      E.Kind = TraceEventKind::ModelRebuild;
      E.Cycle = Result.Cycles;
      E.A = RunsSeen + 1;
      E.X = Config.Guard == GuardMode::CrossValidation ? CvConfidence
                                                       : Confidence.value();
      Tracer->record(E);
    }
  }

  // Augment the engine's metrics snapshot with the evolvable-VM layer's
  // accounting, so one snapshot describes the whole run.
  Result.Metrics.setCounter("evolve.cycles.extraction",
                            Record.ExtractionCycles);
  Result.Metrics.setCounter("evolve.cycles.prediction",
                            Record.PredictionCycles);
  Result.Metrics.setCounter("evolve.used_prediction",
                            Record.UsedPrediction ? 1 : 0);
  Result.Metrics.setCounter("evolve.had_prediction",
                            Record.HadPrediction ? 1 : 0);
  Result.Metrics.setGauge("evolve.confidence", Record.ConfidenceAfter);
  Result.Metrics.setGauge("evolve.accuracy", Record.Accuracy);

  // Cross-run store accounting, only once a store is actually in play —
  // storeless runs keep their metric set unchanged.
  if (StoreStats.Loads || StoreStats.Saves) {
    Result.Metrics.setCounter("store.loads", StoreStats.Loads);
    Result.Metrics.setCounter("store.saves", StoreStats.Saves);
    Result.Metrics.setCounter("store.save_failures", StoreStats.SaveFailures);
    Result.Metrics.setCounter("store.sections.loaded",
                              StoreStats.SectionsLoaded);
    Result.Metrics.setCounter("store.sections.dropped",
                              StoreStats.SectionsDropped);
    Result.Metrics.setCounter("store.records.dropped",
                              StoreStats.RecordsDropped);
    Result.Metrics.setCounter("store.corrupt", StoreStats.Corrupt);
  }

  // Refine the engine's pre-run overhead lump into its xicl/ml components
  // (the engine only sees the sum).
  if (PhaseProfiler *P = PhaseProfiler::current()) {
    if (Record.ExtractionCycles)
      P->attributeChild({"run", "overhead"}, "xicl/characterize",
                        Record.ExtractionCycles);
    if (Record.PredictionCycles)
      P->attributeChild({"run", "overhead"}, "ml/predict",
                        Record.PredictionCycles);
  }

  // Decision-ledger emission: one record per run, observation only — built
  // after every clock charge and model update above, so attaching a ledger
  // is cycle- and state-identical to running without one.
  if (Ledger && Ledger->enabled()) {
    DecisionRecord D;
    D.App = LedgerApp;
    D.Run = RunsSeen + 1; // matches the trace events' run ordinal
    if (Record.Features.size()) {
      D.Features = Record.Features.str();
      D.FvHash = Record.Features.hash();
    }
    D.Guard = guardModeName(Config.Guard);
    D.GuardOpen = GuardWasOpen;
    D.Used = Record.UsedPrediction;
    D.Had = Record.HadPrediction;
    D.ConfBefore = Record.ConfidenceBefore;
    D.ConfAfter = Record.ConfidenceAfter;
    D.CvConf = Record.CvConfidence;
    D.Threshold = Config.ConfidenceThreshold;
    D.Accuracy = Record.Accuracy;
    D.Cycles = Result.Cycles;
    if (Record.HadPrediction) {
      D.Methods.reserve(Details.size());
      for (size_t I = 0; I != Details.size(); ++I) {
        MethodDecision MD;
        MD.Method = static_cast<uint32_t>(I);
        // The clamped level that actually drove (or would have driven) the
        // run — mirrors the evolve.outcome agreement accounting.
        MD.Pred = vm::levelIndex(
            Record.Predicted.levelFor(static_cast<bc::MethodId>(I)));
        MD.Ideal = I < Record.Ideal.Levels.size()
                       ? vm::levelIndex(Record.Ideal.Levels[I])
                       : vm::levelIndex(vm::OptLevel::Baseline);
        MD.Agree = MD.Pred == MD.Ideal;
        MD.Constant = Details[I].Constant;
        if (!Details[I].Constant)
          MD.Path = Details[I].Path.str();
        D.Methods.push_back(std::move(MD));
      }
      // Reactive rescues: compiles the safety net issued above the level
      // the prediction installed for that method.
      if (Record.UsedPrediction)
        for (const vm::CompileEvent &Ev : Result.Compiles) {
          size_t M = static_cast<size_t>(Ev.Method);
          if (M < D.Methods.size() &&
              vm::levelIndex(Ev.Level) > D.Methods[M].Pred)
            ++D.Methods[M].Rescues;
        }
    }
    Ledger->record(std::move(D));
  }

  Record.Result = std::move(Result);
  ++RunsSeen;
  return Record;
}

WarmStartResult EvolvableVM::warmStart(const store::KnowledgeStore &KS,
                                       const store::StoreReadStats *Stats) {
  ++StoreStats.Loads;
  if (Stats) {
    StoreStats.SectionsLoaded += Stats->SectionsLoaded;
    StoreStats.SectionsDropped += Stats->SectionsDropped;
    StoreStats.RecordsDropped += Stats->RecordsDropped;
    if (!Stats->clean())
      ++StoreStats.Corrupt;
  }

  WarmStartResult Result;
  if (!KS.empty()) {
    Result.Applied = true;

    // Replay the persisted training runs.  Rows whose label count does not
    // match this module (damage, or a store written for another program)
    // are skipped — everything else must stay usable.
    for (const store::StoredRun &Run : KS.Runs) {
      if (Run.Labels.size() != Model.numMethods()) {
        ++Result.RunsSkipped;
        continue;
      }
      MethodLevelStrategy Ideal;
      Ideal.Levels.reserve(Run.Labels.size());
      for (int Label : Run.Labels)
        Ideal.Levels.push_back(vm::levelFromIndex(
            std::max(0, std::min(vm::NumOptLevels - 1, Label))));
      Model.addRun(Run.Features, Ideal);
      ++Result.RunsRestored;
    }

    // Install the serialized trees; damaged tree text falls back to
    // retraining, which reproduces them deterministically from the runs.
    bool Imported = false;
    if (!KS.Models.empty()) {
      std::vector<ExportedMethodModel> Exported;
      Exported.reserve(KS.Models.size());
      for (const store::StoredMethodModel &M : KS.Models) {
        ExportedMethodModel E;
        E.Constant = M.Constant;
        E.ConstantLabel = M.ConstantLabel;
        E.Tree = M.Tree;
        Exported.push_back(std::move(E));
      }
      Imported = Model.importModels(Exported);
      if (Imported)
        Result.ModelsImported = KS.Models.size();
    }
    if (!Imported && Result.RunsRestored) {
      Model.rebuild();
      Result.Retrained = true;
    }

    if (KS.HasConfidence) {
      Confidence.restore(KS.Confidence);
      double Cv = KS.CvConfidence;
      if (!(Cv >= 0)) // store bytes: clamp, also catches NaN
        Cv = 0;
      CvConfidence = Cv > 1 ? 1 : Cv;
      RunsSeen = static_cast<size_t>(KS.RunsSeen);
    }
  }

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::StoreLoad;
    E.Cycle = 0; // between-run event; slots before the next run segment
    E.A = Result.RunsRestored;
    E.B = Result.ModelsImported;
    E.C = Stats ? Stats->SectionsDropped + Stats->RecordsDropped : 0;
    E.X = Confidence.value();
    Tracer->record(E);
  }
  return Result;
}

store::KnowledgeStore EvolvableVM::checkpoint(uint64_t Generation) const {
  store::KnowledgeStore KS;
  KS.Header.Generation = Generation;

  KS.HasConfidence = true;
  KS.Confidence = Confidence.value();
  KS.CvConfidence = CvConfidence;
  KS.RunsSeen = RunsSeen;

  const std::vector<xicl::FeatureVector> &Raw = Model.rawRuns();
  const std::vector<std::vector<int>> &Labels = Model.labelRows();
  KS.Runs.reserve(Raw.size());
  for (size_t I = 0; I != Raw.size() && I != Labels.size(); ++I) {
    store::StoredRun Run;
    Run.Features = Raw[I];
    Run.Labels = Labels[I];
    KS.Runs.push_back(std::move(Run));
  }

  for (const ExportedMethodModel &E : Model.exportModels()) {
    store::StoredMethodModel M;
    M.Constant = E.Constant;
    M.ConstantLabel = E.ConstantLabel;
    M.Tree = E.Tree;
    M.Gen = Generation;
    KS.Models.push_back(std::move(M));
  }

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::StoreSave;
    E.Cycle = 0;
    E.A = KS.Runs.size();
    E.B = KS.Models.size();
    E.C = Generation;
    Tracer->record(E);
  }
  return KS;
}

bool EvolvableVM::guardOpen() const {
  switch (Config.Guard) {
  case GuardMode::DecayedAccuracy:
    return Confidence.confident();
  case GuardMode::CrossValidation:
    return CvConfidence > Config.ConfidenceThreshold;
  case GuardMode::Always:
    return true;
  }
  return false;
}

SpecFeedback EvolvableVM::specFeedback() const {
  return Feedback.analyze(Model);
}
