//===- support/DecisionLedger.h - Prediction decision flight recorder -----===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, deterministically ordered audit stream of every
/// discriminative-prediction decision the evolvable VM takes: one record
/// per production run carrying the input feature vector, the guard's mode
/// and verdict, the confidence state around the run, and — when a model
/// produced a strategy — one entry per method with the predicted level, the
/// classification-tree path that produced it, and the post-hoc outcome
/// (posterior-ideal level, agree/disagree, reactive rescue compiles)
/// backfilled at run end.  `tools/evm-explain` turns the stream into
/// confusion matrices, calibration tables, guard precision/recall, and
/// drift-detection latencies.
///
/// Cost model, same discipline as the phase profiler and the tracer:
///
///   * Not attached (or attached with the runtime flag off), every site
///     costs one pointer test plus one branch.
///   * Enabled, sites cost host time only; recording never charges the
///     virtual clock, so ledger-on and ledger-off runs are cycle-identical
///     and RunResult-byte-identical by construction (pinned by
///     tests/test_decisions.cpp).
///
/// The ledger is a ring-buffer flight recorder: it keeps the newest
/// MaxRecords records, counts what it sheds (droppedRecords()), and
/// exports oldest-first.  Like the phase profiler it is single-threaded by
/// design — one ledger per tenant; the fleet coordinator folds per-tenant
/// ledgers in tenant-ID order after the pool joins, so the folded stream
/// is byte-identical for any --threads.
///
/// The JSONL wire format (fixed key order, %.17g doubles, one object per
/// line — byte-deterministic; renderJsonlDecisions and LedgerReader are
/// exact inverses):
///
///   {"kind":"provenance","git_sha":...,"compiler":...,
///    "compiler_version":...,"build_type":...}           (optional header)
///   {"kind":"run","app":...,"tenant":N,"run":N,"fv":...,"fvhash":N,
///    "guard":"decayed|crossval|always","open":0|1,"used":0|1,"had":0|1,
///    "conf_before":X,"conf_after":X,"cv":X,"thr":X,"acc":X,
///    "cycles":N,"baseline":N[,"rejected":1]}             (one per run)
///   {"kind":"method","app":...,"tenant":N,"run":N,"method":N,"pred":N,
///    "ideal":N,"agree":0|1,"const":0|1,"rescues":N,"path":...}
///                               (one per method, after its run line)
///
/// "pred"/"ideal" are dense level indices (vm::levelIndex: 0 = Baseline).
/// "baseline" is the default-optimizer cycle count of the same input (0 =
/// unknown; the harness backfills it via annotateBaseline).  "path" is the
/// tree walk in ml::TreePath::str() form, empty for constant models.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_DECISIONLEDGER_H
#define EVM_SUPPORT_DECISIONLEDGER_H

#include <cstdint>
#include <string>
#include <vector>

namespace evm {

/// Post-hoc outcome of one method's prediction within one run.
struct MethodDecision {
  uint32_t Method = 0;
  int Pred = 0;          ///< predicted level (dense index, 0 = Baseline)
  int Ideal = 0;         ///< posterior-ideal level (dense index)
  bool Agree = false;    ///< Pred == Ideal
  bool Constant = false; ///< constant-label model (no tree consulted)
  uint32_t Rescues = 0;  ///< reactive compiles above the predicted level
  std::string Path;      ///< ml::TreePath::str(); empty for constant models
};

/// One production run's full decision record.
struct DecisionRecord {
  std::string App;       ///< workload/application name
  int64_t Tenant = -1;   ///< fleet tenant id; -1 outside fleet mode
  uint64_t Run = 0;      ///< 1-based run ordinal (the VM's RunsSeen + 1)
  std::string Features;  ///< FeatureVector::str() rendering
  uint64_t FvHash = 0;   ///< FeatureVector::hash(); 0 without features
  std::string Guard;     ///< "decayed", "crossval", or "always"
  bool GuardOpen = false; ///< the guard's verdict before the run
  bool Used = false;      ///< a prediction actually drove the run
  bool Had = false;       ///< a model existed to produce a prediction
  double ConfBefore = 0;
  double ConfAfter = 0;
  double CvConf = 0;     ///< cross-validated confidence (CrossValidation)
  double Threshold = 0;  ///< the guard's confidence threshold
  double Accuracy = 0;   ///< acc(predicted, ideal); 0 without a prediction
  uint64_t Cycles = 0;   ///< the run's virtual-clock cycles
  uint64_t BaselineCycles = 0; ///< default-optimizer cycles; 0 = unknown
  /// Admission control dropped the request before any run happened (the
  /// prediction server's overload path).  Rejected records carry the
  /// admission reason in Guard ("overload", "client_inflight", "draining",
  /// "lanes") and zero run state; `evm-explain` folds them into per-app
  /// drop rates.  Rendered as `"rejected":1` only when set, so ordinary
  /// run lines are byte-identical to the pre-serving format.
  bool Rejected = false;
  std::vector<MethodDecision> Methods; ///< empty when !Had
};

/// Build provenance attached to an exported ledger (see support/BuildInfo.h
/// and the identical fields bench/run_all.sh stamps).
struct LedgerProvenance {
  std::string GitSha = "unknown";
  std::string Compiler = "unknown";
  std::string CompilerVersion = "unknown";
  std::string BuildType = "unknown";
};

/// The bounded flight recorder.  Single-threaded by design (one per
/// tenant); never locked, never charges virtual cycles.
class DecisionLedger {
public:
  /// \p MaxRecords bounds the ring; the newest records are kept and
  /// everything shed is counted in droppedRecords().
  explicit DecisionLedger(size_t MaxRecords = size_t(1) << 16);

  /// Runtime flag.
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Appends one record (dropping the oldest when the ring is full).
  void record(DecisionRecord R);

  /// Backfills the newest record's BaselineCycles — the harness learns the
  /// default-optimizer time of the input right after the run it paired it
  /// with.  No-op on an empty ledger.
  void annotateBaseline(uint64_t BaselineCycles);

  /// Records currently held (<= MaxRecords).
  size_t size() const;

  /// Records shed because the ring was full.
  uint64_t droppedRecords() const;

  /// The held records, oldest first.
  std::vector<DecisionRecord> exportOrder() const;

  /// Drops all records and the dropped count.
  void clear();

private:
  size_t MaxRecords;
  bool Enabled = false;
  std::vector<DecisionRecord> Ring; ///< circular once full
  size_t Next = 0;                  ///< insertion slot when Ring is full
  uint64_t Dropped = 0;
};

/// Renders records (oldest-first order preserved) as the canonical JSONL
/// stream; \p Provenance, when given, becomes the leading provenance line.
/// Byte-deterministic: fixed key order, %.17g doubles.
std::string renderJsonlDecisions(const std::vector<DecisionRecord> &Records,
                                 const LedgerProvenance *Provenance = nullptr);

/// Streaming parser for the JSONL form — the exact inverse of
/// renderJsonlDecisions.  Lenient at the line level (a damaged line is
/// counted and skipped, never fatal), so partially written ledgers still
/// analyze.  Method lines attach to the last-seen run record; method lines
/// with no preceding run line count as bad.
class LedgerReader {
public:
  /// Consumes one line (with or without the trailing newline).
  void addLine(const std::string &Line);

  /// Consumes a whole document, splitting on '\n'.
  void addText(const std::string &Text);

  const std::vector<DecisionRecord> &records() const { return Records; }
  const LedgerProvenance &provenance() const { return Provenance; }
  bool hasProvenance() const { return HasProvenance; }

  /// Lines that were neither blank nor parseable.
  uint64_t badLines() const { return BadLines; }

private:
  std::vector<DecisionRecord> Records;
  LedgerProvenance Provenance;
  bool HasProvenance = false;
  uint64_t BadLines = 0;
};

} // namespace evm

#endif // EVM_SUPPORT_DECISIONLEDGER_H
