//===- tools/evm-explain/evm-explain.cpp - Decision-ledger analytics ------==//
//
// Explains what the discriminative predictor actually did, from the
// prediction decision ledger alone (support/DecisionLedger.h JSONL, written
// by `evm_cli --decisions-out=` and the bench_openworld/bench_crossrun
// `_decisions.jsonl` siblings):
//
//   evm-explain [options] DECISIONS.jsonl...
//
// reports:
//   * per-app decision summary (runs, predictions offered/used, guard-open
//     fraction, mean accuracy);
//   * the aggregate pred-level x ideal-level confusion matrix over every
//     per-method decision (dense level indices: base O0 O1 O2);
//   * a confidence-calibration (reliability) table: runs bucketed by the
//     guard confidence they were predicted under, each bucket's mean
//     confidence vs mean realized accuracy, and the expected calibration
//     error (ECE);
//   * guard precision/recall against posterior agreement: a run is "good"
//     when its realized accuracy clears the guard threshold; precision =
//     good-and-open / open, recall = good-and-open / good;
//   * with --drift-run=N: drift analytics matching bench_openworld's gates
//     — per-app mispredict exposure (prediction-driven post-drift runs
//     whose baseline/cycles speedup lost to the default optimizer), the
//     guard-fallback fraction (apps with a post-drift run where a
//     prediction existed but the guard refused it), and the fallback
//     latency in runs from the drift point.
//
// options:
//   --per-app            also print one confusion matrix per app
//   --bins=N             calibration buckets (default 10)
//   --drift-run=N        post-drift = run ordinal > N (1-based)
//   --strict             exit 1 on bad ledger lines, or (with --drift-run)
//                        when exposure/fallback miss the bench gates
//   --max-exposure=X     --strict exposure ceiling (default 0.10)
//   --min-fallback=X     --strict fallback-fraction floor (default 0.5)
//   --diff OLD NEW       compare two ledgers' aggregate analytics
//   --self-test          render/parse round-trip + known-answer analytics
//
// exit codes: 0 ok; 1 gate failure under --strict (or self-test failure);
//             2 usage error; 3 cannot read an input
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"
#include "support/DecisionLedger.h"
#include "support/Format.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace evm;

namespace {

bool readFileInto(const std::string &Path, std::string &Out) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return false;
  std::stringstream Buffer;
  Buffer << Stream.rdbuf();
  Out = Buffer.str();
  return true;
}

/// Dense level indices the ledger carries (vm::levelIndex encoding).
constexpr int NumLevels = 4;
const char *const LevelNames[NumLevels] = {"base", "O0", "O1", "O2"};

// --- Aggregate analytics -------------------------------------------------

/// Per-app run-level rollup, in first-seen (ledger) order.  Rejected
/// records (admission drops from a serving daemon, see evm-served
/// --decisions-out) count toward the drop rate only — they never ran.
struct AppSummary {
  std::string App;
  size_t Runs = 0;
  size_t Had = 0;
  size_t Used = 0;
  size_t Open = 0;
  size_t Rejected = 0; ///< admission-control drops (no run state)
  double AccSum = 0;   ///< over Had runs

  /// Fraction of this app's requests the daemon shed.
  double dropRate() const {
    return Runs + Rejected
               ? static_cast<double>(Rejected) /
                     static_cast<double>(Runs + Rejected)
               : 0.0;
  }
};

std::vector<AppSummary> summarizeApps(const std::vector<DecisionRecord> &Rs) {
  std::vector<AppSummary> Out;
  std::map<std::string, size_t> Index;
  for (const DecisionRecord &R : Rs) {
    auto It = Index.find(R.App);
    if (It == Index.end()) {
      It = Index.emplace(R.App, Out.size()).first;
      Out.push_back(AppSummary());
      Out.back().App = R.App;
    }
    AppSummary &A = Out[It->second];
    if (R.Rejected) {
      ++A.Rejected;
      continue;
    }
    ++A.Runs;
    if (R.Had) {
      ++A.Had;
      A.AccSum += R.Accuracy;
    }
    if (R.Used)
      ++A.Used;
    if (R.GuardOpen)
      ++A.Open;
  }
  return Out;
}

/// Pred-level x ideal-level counts over every per-method decision.
struct Confusion {
  size_t Cell[NumLevels][NumLevels] = {};
  size_t Total = 0;
  size_t Agree = 0;

  void add(const DecisionRecord &R) {
    for (const MethodDecision &M : R.Methods) {
      if (M.Pred < 0 || M.Pred >= NumLevels || M.Ideal < 0 ||
          M.Ideal >= NumLevels)
        continue;
      ++Cell[M.Pred][M.Ideal];
      ++Total;
      if (M.Pred == M.Ideal)
        ++Agree;
    }
  }
};

/// Reliability buckets over the confidence a prediction was made under.
struct CalibrationBin {
  size_t N = 0;
  double ConfSum = 0;
  double AccSum = 0;
};

struct Calibration {
  std::vector<CalibrationBin> Bins;
  size_t Total = 0;

  explicit Calibration(size_t NumBins) : Bins(NumBins) {}

  void add(const DecisionRecord &R) {
    if (!R.Had || Bins.empty())
      return;
    double C = R.ConfBefore;
    if (C < 0)
      C = 0;
    if (C > 1)
      C = 1;
    size_t B = static_cast<size_t>(C * static_cast<double>(Bins.size()));
    if (B >= Bins.size())
      B = Bins.size() - 1;
    ++Bins[B].N;
    Bins[B].ConfSum += C;
    Bins[B].AccSum += R.Accuracy;
    ++Total;
  }

  /// Expected calibration error: bucket-weighted |mean conf - mean acc|.
  double ece() const {
    if (!Total)
      return 0;
    double E = 0;
    for (const CalibrationBin &B : Bins)
      if (B.N)
        E += (static_cast<double>(B.N) / static_cast<double>(Total)) *
             std::fabs(B.ConfSum / static_cast<double>(B.N) -
                       B.AccSum / static_cast<double>(B.N));
    return E;
  }
};

/// Guard quality against posterior agreement: "good" = the run's realized
/// accuracy cleared the guard threshold, i.e. predicting was the right
/// call.  Precision: of the runs the guard opened for, how many were good.
/// Recall: of the good runs, how many the guard opened for.
struct GuardQuality {
  size_t Had = 0;
  size_t Open = 0;
  size_t Good = 0;
  size_t OpenGood = 0;

  void add(const DecisionRecord &R) {
    if (!R.Had)
      return;
    ++Had;
    bool IsGood = R.Accuracy >= R.Threshold;
    if (IsGood)
      ++Good;
    if (R.GuardOpen) {
      ++Open;
      if (IsGood)
        ++OpenGood;
    }
  }

  double precision() const {
    return Open ? static_cast<double>(OpenGood) / static_cast<double>(Open)
                : 0.0;
  }
  double recall() const {
    return Good ? static_cast<double>(OpenGood) / static_cast<double>(Good)
                : 0.0;
  }
};

// --- Drift analytics -----------------------------------------------------

/// Post-drift behaviour of one app (bench_openworld's DriftStats, re-derived
/// from records alone).
struct DriftApp {
  std::string App;
  size_t Post = 0;
  size_t Harmful = 0;   ///< used a prediction and lost to the baseline
  bool Fallback = false; ///< a post-drift run had a prediction refused
  uint64_t FallbackRun = 0; ///< first such run ordinal
};

struct DriftReport {
  std::vector<DriftApp> Apps;
  double MeanExposure = 0;
  double FallbackFrac = 0;
  double MeanLatency = 0; ///< runs from the drift point to first fallback
  uint64_t MaxLatency = 0;
};

DriftReport analyzeDriftRecords(const std::vector<DecisionRecord> &Rs,
                                uint64_t DriftRun) {
  DriftReport Rep;
  std::map<std::string, size_t> Index;
  for (const DecisionRecord &R : Rs) {
    if (R.Rejected) // admission drops never ran; no drift signal
      continue;
    auto It = Index.find(R.App);
    if (It == Index.end()) {
      It = Index.emplace(R.App, Rep.Apps.size()).first;
      Rep.Apps.push_back(DriftApp());
      Rep.Apps.back().App = R.App;
    }
    DriftApp &A = Rep.Apps[It->second];
    if (R.Run <= DriftRun) // Run is 1-based; post-drift is beyond DriftRun
      continue;
    ++A.Post;
    // Same arithmetic as the harness: speedup = baseline / cycles, harmful
    // when a prediction-driven run lost to the default optimizer.
    if (R.Used && R.BaselineCycles && R.Cycles &&
        static_cast<double>(R.BaselineCycles) /
                static_cast<double>(R.Cycles) <
            1.0 - 1e-9)
      ++A.Harmful;
    if (R.Had && !R.Used && !A.Fallback) {
      A.Fallback = true;
      A.FallbackRun = R.Run;
    }
  }

  std::vector<double> Exposure;
  size_t FellBack = 0;
  double LatencySum = 0;
  for (const DriftApp &A : Rep.Apps) {
    Exposure.push_back(A.Post ? static_cast<double>(A.Harmful) /
                                    static_cast<double>(A.Post)
                              : 0.0);
    if (A.Fallback) {
      ++FellBack;
      uint64_t Latency = A.FallbackRun - DriftRun;
      LatencySum += static_cast<double>(Latency);
      if (Latency > Rep.MaxLatency)
        Rep.MaxLatency = Latency;
    }
  }
  if (!Exposure.empty()) {
    double Sum = 0;
    for (double E : Exposure)
      Sum += E;
    Rep.MeanExposure = Sum / static_cast<double>(Exposure.size());
  }
  if (!Rep.Apps.empty())
    Rep.FallbackFrac =
        static_cast<double>(FellBack) / static_cast<double>(Rep.Apps.size());
  if (FellBack)
    Rep.MeanLatency = LatencySum / static_cast<double>(FellBack);
  return Rep;
}

// --- Rendering -----------------------------------------------------------

void printConfusion(const Confusion &C, const char *Title) {
  std::printf("%s (pred rows x ideal columns, %zu method decisions, "
              "%.1f%% agree)\n",
              Title, C.Total,
              C.Total ? 100.0 * static_cast<double>(C.Agree) /
                            static_cast<double>(C.Total)
                      : 0.0);
  TextTable Table({"pred\\ideal", LevelNames[0], LevelNames[1], LevelNames[2],
                   LevelNames[3]});
  for (int P = 0; P != NumLevels; ++P) {
    Table.beginRow();
    Table.addCell(LevelNames[P]);
    for (int I = 0; I != NumLevels; ++I)
      Table.addCell(static_cast<int64_t>(C.Cell[P][I]));
  }
  std::printf("%s\n", Table.render().c_str());
}

void printCalibration(const Calibration &Cal) {
  std::printf("Confidence calibration (%zu predicted runs, ECE %.4f)\n",
              Cal.Total, Cal.ece());
  TextTable Table({"conf bucket", "runs", "mean conf", "mean acc", "gap"});
  for (size_t B = 0; B != Cal.Bins.size(); ++B) {
    const CalibrationBin &Bin = Cal.Bins[B];
    Table.beginRow();
    Table.addCell(formatString(
        "[%.2f,%.2f)", static_cast<double>(B) /
                           static_cast<double>(Cal.Bins.size()),
        static_cast<double>(B + 1) / static_cast<double>(Cal.Bins.size())));
    Table.addCell(static_cast<int64_t>(Bin.N));
    if (Bin.N) {
      double MeanConf = Bin.ConfSum / static_cast<double>(Bin.N);
      double MeanAcc = Bin.AccSum / static_cast<double>(Bin.N);
      Table.addCell(MeanConf, 3);
      Table.addCell(MeanAcc, 3);
      Table.addCell(MeanAcc - MeanConf, 3);
    } else {
      Table.addCell("-");
      Table.addCell("-");
      Table.addCell("-");
    }
  }
  std::printf("%s\n", Table.render().c_str());
}

/// One ledger's aggregate numbers, for --diff.
struct Aggregate {
  size_t Records = 0;
  size_t Apps = 0;
  double HadFrac = 0;
  double UsedFrac = 0;
  double OpenFrac = 0;
  double MeanAccuracy = 0; ///< over Had runs
  double AgreeFrac = 0;    ///< over method decisions
  double Ece = 0;
  double Precision = 0;
  double Recall = 0;
};

Aggregate aggregate(const std::vector<DecisionRecord> &Rs, size_t Bins) {
  Aggregate A;
  A.Records = Rs.size();
  Confusion C;
  Calibration Cal(Bins);
  GuardQuality G;
  size_t Had = 0, Used = 0, Open = 0;
  double AccSum = 0;
  std::map<std::string, bool> Apps;
  for (const DecisionRecord &R : Rs) {
    Apps[R.App] = true;
    if (R.Had) {
      ++Had;
      AccSum += R.Accuracy;
    }
    if (R.Used)
      ++Used;
    if (R.GuardOpen)
      ++Open;
    C.add(R);
    Cal.add(R);
    G.add(R);
  }
  A.Apps = Apps.size();
  if (!Rs.empty()) {
    double N = static_cast<double>(Rs.size());
    A.HadFrac = static_cast<double>(Had) / N;
    A.UsedFrac = static_cast<double>(Used) / N;
    A.OpenFrac = static_cast<double>(Open) / N;
  }
  if (Had)
    A.MeanAccuracy = AccSum / static_cast<double>(Had);
  if (C.Total)
    A.AgreeFrac =
        static_cast<double>(C.Agree) / static_cast<double>(C.Total);
  A.Ece = Cal.ece();
  A.Precision = G.precision();
  A.Recall = G.recall();
  return A;
}

// --- Self-test -----------------------------------------------------------

std::vector<DecisionRecord> makeSelfTestRecords() {
  std::vector<DecisionRecord> Rs;
  auto Run = [](const char *App, uint64_t RunNo, bool Had, bool Open,
                bool Used, double ConfBefore, double Acc, uint64_t Cycles,
                uint64_t Baseline) {
    DecisionRecord R;
    R.App = App;
    R.Run = RunNo;
    R.Features = "size=3, mode=\"fast\"";
    R.FvHash = 0x1234abcdULL + RunNo;
    R.Guard = "decayed";
    R.GuardOpen = Open;
    R.Used = Used;
    R.Had = Had;
    R.ConfBefore = ConfBefore;
    R.ConfAfter = ConfBefore;
    R.CvConf = 0;
    R.Threshold = 0.7;
    R.Accuracy = Acc;
    R.Cycles = Cycles;
    R.BaselineCycles = Baseline;
    return R;
  };
  auto Method = [](uint32_t M, int Pred, int Ideal, bool Constant,
                   const char *Path) {
    MethodDecision D;
    D.Method = M;
    D.Pred = Pred;
    D.Ideal = Ideal;
    D.Agree = Pred == Ideal;
    D.Constant = Constant;
    D.Path = Path;
    return D;
  };

  Rs.push_back(Run("A", 1, false, false, false, 0.0, 0.0, 100, 100));
  Rs.push_back(Run("A", 2, true, true, true, 0.75, 0.8, 90, 100));
  Rs.back().Methods.push_back(Method(0, 1, 1, false, "N0:1.5:L|L1"));
  Rs.back().Methods.push_back(Method(1, 2, 0, false, "C1:3:R|L2"));
  Rs.push_back(Run("A", 3, true, true, true, 0.8, 0.2, 120, 100));
  Rs.back().Methods.push_back(Method(0, 2, 0, false, "N0:1.5:R|L2"));
  Rs.push_back(Run("A", 4, true, false, false, 0.4, 0.5, 100, 100));
  Rs.back().Methods.push_back(Method(0, 0, 0, true, ""));
  Rs.push_back(Run("B", 3, true, true, true, 0.95, 0.9, 80, 100));
  Rs.back().Methods.push_back(Method(0, 1, 1, false, "L1"));
  // Two admission drops from a serving daemon (evm-served): reason in
  // Guard, `rejected` verdict, no run state.  They feed the drop-rate
  // column and must stay invisible to every run-level analytic.
  for (const char *Reason : {"overload", "client_inflight"}) {
    DecisionRecord Rej;
    Rej.App = "A";
    Rej.Guard = Reason;
    Rej.Rejected = true;
    Rs.push_back(Rej);
  }
  return Rs;
}

int selfTest() {
  int Failures = 0;
  auto Check = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", What);
      ++Failures;
    }
  };
  auto Near = [](double A, double B) { return std::fabs(A - B) < 1e-12; };

  std::vector<DecisionRecord> Rs = makeSelfTestRecords();

  // Render -> parse -> render must be byte-identical (escaping included).
  LedgerProvenance Prov;
  Prov.GitSha = "deadbeef";
  Prov.Compiler = "GNU";
  Prov.CompilerVersion = "12.0";
  Prov.BuildType = "Release";
  std::string Text = renderJsonlDecisions(Rs, &Prov);
  LedgerReader Reader;
  Reader.addText(Text);
  Check(Reader.badLines() == 0, "round-trip: no bad lines");
  Check(Reader.hasProvenance() && Reader.provenance().GitSha == "deadbeef",
        "round-trip: provenance survives");
  Check(Reader.records().size() == Rs.size(),
        "round-trip: record count survives");
  std::string Again = renderJsonlDecisions(Reader.records(), &Prov);
  Check(Again == Text, "round-trip: render(parse(render)) is byte-identical");

  // Known-answer analytics over the synthetic ledger.
  Confusion C;
  Calibration Cal(10);
  GuardQuality G;
  for (const DecisionRecord &R : Reader.records()) {
    C.add(R);
    Cal.add(R);
    G.add(R);
  }
  Check(C.Total == 5 && C.Agree == 3, "confusion totals");
  Check(C.Cell[1][1] == 2 && C.Cell[2][0] == 2 && C.Cell[0][0] == 1,
        "confusion cells");
  Check(Cal.Total == 4, "calibration population");
  Check(Near(Cal.ece(), (0.05 + 0.6 + 0.1 + 0.05) / 4.0), "ECE");
  Check(G.Had == 4 && G.Open == 3 && G.Good == 2 && G.OpenGood == 2,
        "guard counts");
  Check(Near(G.precision(), 2.0 / 3.0) && Near(G.recall(), 1.0),
        "guard precision/recall");

  // Rejected records: the flag round-trips, the drop rate counts them,
  // and (asserted by the unchanged totals above) run-level analytics
  // never see them.
  Check(Reader.records()[5].Rejected &&
            Reader.records()[5].Guard == "overload" &&
            Reader.records()[6].Guard == "client_inflight",
        "rejected round-trips");
  std::vector<AppSummary> Apps = summarizeApps(Reader.records());
  Check(Apps.size() == 2 && Apps[0].Runs == 4 && Apps[0].Rejected == 2 &&
            Apps[1].Rejected == 0,
        "rejected feeds per-app drop counts");
  Check(Near(Apps[0].dropRate(), 2.0 / 6.0) && Near(Apps[1].dropRate(), 0.0),
        "drop rate");

  DriftReport D = analyzeDriftRecords(Reader.records(), 2);
  Check(D.Apps.size() == 2, "drift app count");
  Check(D.Apps[0].Post == 2 && D.Apps[0].Harmful == 1 &&
            D.Apps[0].Fallback && D.Apps[0].FallbackRun == 4,
        "drift app A");
  Check(D.Apps[1].Post == 1 && D.Apps[1].Harmful == 0 &&
            !D.Apps[1].Fallback,
        "drift app B");
  Check(Near(D.MeanExposure, 0.25) && Near(D.FallbackFrac, 0.5) &&
            Near(D.MeanLatency, 2.0) && D.MaxLatency == 2,
        "drift aggregates");

  // Ring-buffer bound: newest kept, shed counted.
  DecisionLedger Ring(2);
  Ring.setEnabled(true);
  if (Ring.enabled()) {
    for (const DecisionRecord &R : Rs)
      Ring.record(R);
    std::vector<DecisionRecord> Kept = Ring.exportOrder();
    Check(Kept.size() == 2 && Ring.droppedRecords() == Rs.size() - 2,
          "ring keeps newest");
    Check(Kept[0].Run == Rs[Rs.size() - 2].Run &&
              Kept[1].Run == Rs[Rs.size() - 1].Run,
          "ring export order");
  }

  if (!Failures)
    std::printf("evm-explain self-test: all checks passed\n");
  return Failures;
}

void printUsage(const char *Argv0, std::FILE *To) {
  std::fprintf(
      To,
      "usage: %s [options] DECISIONS.jsonl...\n"
      "       %s --diff OLD.jsonl NEW.jsonl\n"
      "explain prediction decisions from a decision ledger (see\n"
      "evm_cli --decisions-out and the bench _decisions.jsonl siblings).\n"
      "options:\n"
      "  --per-app        also print one confusion matrix per app\n"
      "  --bins=N         calibration buckets (default 10)\n"
      "  --drift-run=N    drift analytics: post-drift = run ordinal > N\n"
      "  --strict         exit 1 on bad lines or missed drift gates\n"
      "  --max-exposure=X strict exposure ceiling (default 0.10)\n"
      "  --min-fallback=X strict fallback-fraction floor (default 0.5)\n"
      "  --diff OLD NEW   compare two ledgers' aggregate analytics\n"
      "  --self-test      run the built-in regression check\n"
      "  --version        print build provenance JSON and exit\n",
      Argv0, Argv0);
}

} // namespace

int main(int argc, char **argv) {
  bool PerApp = false;
  bool Strict = false;
  bool Diff = false;
  int64_t Bins = 10;
  int64_t DriftRun = -1;
  double MaxExposure = 0.10;
  double MinFallback = 0.5;
  std::vector<std::string> Paths;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-h" || Arg == "--help") {
      printUsage(argv[0], stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("%s\n", buildInfo().renderJson().c_str());
      return 0;
    }
    if (Arg == "--self-test")
      return selfTest();
    if (Arg == "--per-app") {
      PerApp = true;
    } else if (Arg == "--strict") {
      Strict = true;
    } else if (Arg == "--diff") {
      Diff = true;
    } else if (Arg.rfind("--bins=", 0) == 0) {
      auto N = parseInteger(Arg.substr(7));
      if (!N || *N < 1 || *N > 1000) {
        std::fprintf(stderr, "error: bad --bins value\n");
        return 2;
      }
      Bins = *N;
    } else if (Arg.rfind("--drift-run=", 0) == 0) {
      auto N = parseInteger(Arg.substr(12));
      if (!N || *N < 0) {
        std::fprintf(stderr, "error: bad --drift-run value\n");
        return 2;
      }
      DriftRun = *N;
    } else if (Arg.rfind("--max-exposure=", 0) == 0) {
      auto X = parseDouble(Arg.substr(15));
      if (!X || *X < 0) {
        std::fprintf(stderr, "error: bad --max-exposure value\n");
        return 2;
      }
      MaxExposure = *X;
    } else if (Arg.rfind("--min-fallback=", 0) == 0) {
      auto X = parseDouble(Arg.substr(15));
      if (!X || *X < 0 || *X > 1) {
        std::fprintf(stderr, "error: bad --min-fallback value\n");
        return 2;
      }
      MinFallback = *X;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0], stderr);
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }

  if (Diff) {
    if (Paths.size() != 2) {
      std::fprintf(stderr, "error: --diff needs exactly OLD and NEW\n");
      return 2;
    }
    Aggregate Old, New;
    for (size_t Side = 0; Side != 2; ++Side) {
      std::string Text;
      if (!readFileInto(Paths[Side], Text)) {
        std::fprintf(stderr, "error: cannot read %s\n", Paths[Side].c_str());
        return 3;
      }
      LedgerReader Reader;
      Reader.addText(Text);
      (Side ? New : Old) =
          aggregate(Reader.records(), static_cast<size_t>(Bins));
    }
    TextTable Table({"metric", "old", "new", "delta"});
    auto Row = [&](const char *Name, double O, double N, int Prec) {
      Table.beginRow();
      Table.addCell(Name);
      Table.addCell(O, Prec);
      Table.addCell(N, Prec);
      Table.addCell(N - O, Prec);
    };
    Row("records", static_cast<double>(Old.Records),
        static_cast<double>(New.Records), 0);
    Row("apps", static_cast<double>(Old.Apps),
        static_cast<double>(New.Apps), 0);
    Row("had_frac", Old.HadFrac, New.HadFrac, 4);
    Row("used_frac", Old.UsedFrac, New.UsedFrac, 4);
    Row("open_frac", Old.OpenFrac, New.OpenFrac, 4);
    Row("mean_accuracy", Old.MeanAccuracy, New.MeanAccuracy, 4);
    Row("method_agree", Old.AgreeFrac, New.AgreeFrac, 4);
    Row("ece", Old.Ece, New.Ece, 4);
    Row("guard_precision", Old.Precision, New.Precision, 4);
    Row("guard_recall", Old.Recall, New.Recall, 4);
    std::printf("%s vs %s\n%s\n", Paths[0].c_str(), Paths[1].c_str(),
                Table.render().c_str());
    return 0;
  }

  if (Paths.empty()) {
    printUsage(argv[0], stderr);
    return 2;
  }

  LedgerReader Reader;
  for (const std::string &Path : Paths) {
    std::string Text;
    if (!readFileInto(Path, Text)) {
      std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
      return 3;
    }
    Reader.addText(Text);
  }
  const std::vector<DecisionRecord> &Records = Reader.records();
  if (Reader.badLines())
    std::fprintf(stderr, "warning: %llu unparseable ledger lines skipped\n",
                 static_cast<unsigned long long>(Reader.badLines()));
  if (Records.empty()) {
    std::printf("no decision records (ledger empty)\n");
    return Strict && Reader.badLines() ? 1 : 0;
  }

  if (Reader.hasProvenance()) {
    const LedgerProvenance &P = Reader.provenance();
    std::printf("ledger provenance: git %s, %s %s, %s build\n\n",
                P.GitSha.c_str(), P.Compiler.c_str(),
                P.CompilerVersion.c_str(), P.BuildType.c_str());
  }

  // Per-app decision summary.  Rejected records feed the drop% column
  // only; every run-level analytic below sees completed runs.
  std::vector<AppSummary> Apps = summarizeApps(Records);
  size_t TotalRejected = 0;
  for (const AppSummary &A : Apps)
    TotalRejected += A.Rejected;
  if (TotalRejected)
    std::printf("Decision summary: %zu records across %zu apps "
                "(%zu rejected by admission control)\n",
                Records.size(), Apps.size(), TotalRejected);
  else
    std::printf("Decision summary: %zu records across %zu apps\n",
                Records.size(), Apps.size());
  {
    TextTable Table(
        {"app", "runs", "had", "used", "open%", "drop%", "mean acc"});
    size_t Shown = 0;
    for (const AppSummary &A : Apps) {
      if (++Shown > 20 && Apps.size() > 24) {
        Table.beginRow();
        Table.addCell(formatString("... %zu more apps", Apps.size() - 20));
        for (int K = 0; K != 6; ++K)
          Table.addCell("");
        break;
      }
      Table.beginRow();
      Table.addCell(A.App);
      Table.addCell(static_cast<int64_t>(A.Runs));
      Table.addCell(static_cast<int64_t>(A.Had));
      Table.addCell(static_cast<int64_t>(A.Used));
      Table.addCell(A.Runs ? 100.0 * static_cast<double>(A.Open) /
                                 static_cast<double>(A.Runs)
                           : 0.0,
                    1);
      Table.addCell(100.0 * A.dropRate(), 1);
      Table.addCell(A.Had ? A.AccSum / static_cast<double>(A.Had) : 0.0, 3);
    }
    std::printf("%s\n", Table.render().c_str());
  }

  // Confusion matrices.
  Confusion Total;
  std::map<std::string, Confusion> ByApp;
  for (const DecisionRecord &R : Records) {
    if (R.Rejected)
      continue;
    Total.add(R);
    if (PerApp)
      ByApp[R.App].add(R);
  }
  printConfusion(Total, "Aggregate confusion");
  if (PerApp)
    for (const AppSummary &A : Apps)
      printConfusion(ByApp[A.App],
                     formatString("Confusion: %s", A.App.c_str()).c_str());

  // Calibration + guard quality.
  Calibration Cal(static_cast<size_t>(Bins));
  GuardQuality Guard;
  for (const DecisionRecord &R : Records) {
    if (R.Rejected)
      continue;
    Cal.add(R);
    Guard.add(R);
  }
  printCalibration(Cal);
  std::printf("Guard quality vs posterior (good = accuracy >= threshold): "
              "precision %.3f (%zu/%zu open), recall %.3f (%zu/%zu good)\n\n",
              Guard.precision(), Guard.OpenGood, Guard.Open, Guard.recall(),
              Guard.OpenGood, Guard.Good);

  // Drift analytics + strict gates.
  int Failures = Strict && Reader.badLines() ? 1 : 0;
  if (DriftRun >= 0) {
    DriftReport D =
        analyzeDriftRecords(Records, static_cast<uint64_t>(DriftRun));
    std::printf("Drift analytics (post-drift = run > %lld): mean mispredict "
                "exposure %.4f,\nguard fallback on %.1f%% of %zu apps, "
                "fallback latency mean %.1f / max %llu runs\n",
                static_cast<long long>(DriftRun), D.MeanExposure,
                100.0 * D.FallbackFrac, D.Apps.size(), D.MeanLatency,
                static_cast<unsigned long long>(D.MaxLatency));
    if (Strict) {
      if (D.MeanExposure > MaxExposure) {
        std::fprintf(stderr,
                     "GATE: mispredict exposure %.4f > %.4f\n",
                     D.MeanExposure, MaxExposure);
        ++Failures;
      }
      if (D.FallbackFrac < MinFallback) {
        std::fprintf(stderr,
                     "GATE: guard fallback fraction %.4f < %.4f\n",
                     D.FallbackFrac, MinFallback);
        ++Failures;
      }
    }
  }

  return Failures ? 1 : 0;
}
