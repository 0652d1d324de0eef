//===- evolve/EvolvableVM.h - The evolvable virtual machine ---------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution, wired together (Fig. 1 and Fig. 7):
/// feature extractor (XICL translator) + strategy predictor (per-method
/// classification trees behind a confidence guard) + model builder
/// (posterior ideal strategies folded back in after every run).  One
/// EvolvableVM instance persists across production runs of one application
/// and evolves: early runs execute under the default reactive optimizer
/// while the model matures; once confidence clears the threshold, runs are
/// optimized proactively from the input's predicted strategy.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_EVOLVE_EVOLVABLEVM_H
#define EVM_EVOLVE_EVOLVABLEVM_H

#include "evolve/ModelBuilder.h"
#include "evolve/SpecFeedback.h"
#include "evolve/Strategy.h"
#include "ml/Confidence.h"
#include "store/KnowledgeStore.h"
#include "support/DecisionLedger.h"
#include "support/Error.h"
#include "vm/Engine.h"
#include "xicl/Translator.h"

#include <memory>
#include <string>

namespace evm {
namespace evolve {

/// How the discriminative guard self-evaluates the models.
enum class GuardMode {
  /// The paper's Fig. 7 scheme: decayed average of online prediction
  /// accuracies.
  DecayedAccuracy,
  /// Offline k-fold cross-validation over the recorded runs (the paper's
  /// Sec. I framing of self-evaluation); recomputed after each rebuild.
  CrossValidation,
  /// No guard: predict from the very first model (ablation only).
  Always,
};

/// Stable text name of a guard mode — the decision ledger's "guard" field.
inline const char *guardModeName(GuardMode G) {
  switch (G) {
  case GuardMode::DecayedAccuracy:
    return "decayed";
  case GuardMode::CrossValidation:
    return "crossval";
  case GuardMode::Always:
    return "always";
  }
  return "decayed";
}

/// Tunables of the evolvable VM (paper defaults: gamma = THc = 0.7).
struct EvolveConfig {
  vm::TimingModel Timing;
  double Gamma = 0.7;
  double ConfidenceThreshold = 0.7;
  GuardMode Guard = GuardMode::DecayedAccuracy;
  int CvFolds = 5;
  ml::TreeParams TreeParams;
  uint64_t MaxCyclesPerRun = UINT64_MAX;
  /// Upper bound on charged extraction cycles; beyond it the VM throttles
  /// the extraction and falls back to default optimization (Sec. V.B.2's
  /// suggested guard against expensive programmer-defined extractors).
  uint64_t ExtractionCycleBound = UINT64_MAX;
  /// Keep the reactive adaptive system running under predicted strategies
  /// (as the Jikes implementation does).  Disable only for ablation.
  bool ReactiveSafetyNet = true;
};

/// Everything one production run under the evolvable VM produces.
struct EvolveRunRecord {
  bool UsedPrediction = false;  ///< guard was open, so ô drove the run
  double ConfidenceBefore = 0;
  double ConfidenceAfter = 0;
  double CvConfidence = 0;      ///< only when Guard == CrossValidation
  double Accuracy = 0;          ///< acc(ô, o) — 0 when no ô was available
  bool HadPrediction = false;   ///< a model existed to produce ô at all
  MethodLevelStrategy Predicted;
  MethodLevelStrategy Ideal;
  uint64_t ExtractionCycles = 0;
  uint64_t PredictionCycles = 0;
  vm::RunResult Result;
  xicl::FeatureVector Features;
};

/// What warmStart managed to reinstate (feeds store.* metrics and logs).
struct WarmStartResult {
  bool Applied = false;      ///< the document was non-empty and consumed
  size_t RunsRestored = 0;   ///< training runs replayed into the model
  size_t RunsSkipped = 0;    ///< rows whose label count mismatched the module
  size_t ModelsImported = 0; ///< trees installed straight from the store
  bool Retrained = false;    ///< tree import failed; models rebuilt from runs
};

/// Cross-run store I/O accounting, surfaced as store.* metrics on every
/// run's snapshot.
struct StoreIoStats {
  uint64_t Loads = 0;
  uint64_t Saves = 0;
  uint64_t SaveFailures = 0;
  uint64_t SectionsLoaded = 0;
  uint64_t SectionsDropped = 0;
  uint64_t RecordsDropped = 0;
  /// Loads whose file carried any recovered damage (the fuzz test's
  /// "store.corrupt" signal).
  uint64_t Corrupt = 0;
};

/// The evolvable VM for one application.
class EvolvableVM {
public:
  /// \p Registry and \p Files must outlive this object.  When \p SpecSource
  /// fails to parse, the constructor keeps the VM functional but the spec
  /// error is reported (and every run falls back to default optimization,
  /// matching the paper's no-XICL behaviour).
  EvolvableVM(const bc::Module &M, const std::string &SpecSource,
              const xicl::XFMethodRegistry *Registry,
              const xicl::FileStore *Files, EvolveConfig Config);

  /// One production run (the paper's Fig. 7 loop): extract features,
  /// predict discriminatively, execute, evaluate against the posterior
  /// ideal, update confidence and models.
  ErrorOr<EvolveRunRecord> runOnce(const std::string &CommandLine,
                                   const std::vector<bc::Value> &VmArgs);

  /// Attaches an event recorder (shared with the engine): each run gains
  /// evolve.predict / evolve.outcome / model.rebuild events, and the
  /// RunResult metrics snapshot is augmented with evolve.* entries.
  void setTracer(TraceRecorder *T);

  /// Attaches a decision ledger: every subsequent runOnce appends one
  /// DecisionRecord (tagged \p AppName) describing the prediction decision
  /// and its posterior outcome.  Pure observation off the virtual clock —
  /// like the tracer, attaching a ledger never changes run cycles, metrics,
  /// or the learned state.  Null detaches.
  void setLedger(DecisionLedger *L, std::string AppName) {
    Ledger = L;
    LedgerApp = std::move(AppName);
  }

  double confidence() const { return Confidence.value(); }
  /// The cross-validated model accuracy after the latest rebuild (0 until
  /// the CrossValidation guard has something to evaluate).
  double cvConfidence() const { return CvConfidence; }
  const ModelBuilder &model() const { return Model; }
  size_t numRuns() const { return RunsSeen; }
  /// Empty when the XICL spec parsed cleanly.
  const std::string &specError() const { return SpecError; }

  /// Specification-refinement advice (the paper's Sec. VI extension),
  /// derived from the accumulated models and per-run accuracies.
  SpecFeedback specFeedback() const;

  /// Applies a loaded knowledge document to this VM before its first run:
  /// replays the persisted training runs into the model builder
  /// (reconstructing the encoded dataset byte-identically), installs the
  /// serialized trees — retraining from the replayed runs when any tree
  /// text is damaged — and restores the confidence state including
  /// RunsSeen, which keeps per-run sample phases continuous across
  /// launches.  An empty document is a no-op, so warm-starting from an
  /// empty store is cycle-identical to a cold start.  When \p Stats is
  /// given (the read stats of the load), corruption counters fold into the
  /// store.* metrics.  Records a store.load trace event.
  WarmStartResult warmStart(const store::KnowledgeStore &KS,
                            const store::StoreReadStats *Stats = nullptr);

  /// Snapshot of the VM's accumulated knowledge as a store document whose
  /// header and per-model generations are \p Generation.  Callers merge it
  /// against the on-disk store (store::mergeStores) and pick the
  /// generation — typically disk generation + 1.  Records a store.save
  /// trace event.
  store::KnowledgeStore checkpoint(uint64_t Generation) const;

  /// Accounts one saveStoreFile outcome in the store.* metrics.
  void noteStoreSave(bool Ok) {
    ++StoreStats.Saves;
    if (!Ok)
      ++StoreStats.SaveFailures;
  }

  const StoreIoStats &storeStats() const { return StoreStats; }

private:
  /// Is the discriminative gate open under the configured guard mode?
  bool guardOpen() const;

  const bc::Module &M;
  EvolveConfig Config;
  /// One engine for every production run: per-run state resets inside
  /// run(), and the policy is swapped per run via setPolicy.
  vm::ExecutionEngine Engine;
  std::vector<size_t> Sizes;
  std::unique_ptr<xicl::XICLTranslator> Translator; ///< null on spec error
  std::string SpecError;
  ModelBuilder Model;
  ml::ConfidenceTracker Confidence;
  SpecFeedbackCollector Feedback;
  double CvConfidence = 0;
  size_t RunsSeen = 0;
  StoreIoStats StoreStats;
  TraceRecorder *Tracer = nullptr;
  DecisionLedger *Ledger = nullptr;
  std::string LedgerApp;
};

} // namespace evolve
} // namespace evm

#endif // EVM_EVOLVE_EVOLVABLEVM_H
