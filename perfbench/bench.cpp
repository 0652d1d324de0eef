//===- perfbench/bench.cpp - Host-clock benchmark program ------------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload against the EVM library and the evm-served
/// daemon, timing the public entry points from outside, and writes every
/// raw sample into one JSON document.  perfbench/run.py turns the samples
/// into metrics and checks them against the golden digests; this file does
/// no statistics.
///
///   evm-perfbench WORKLOAD --seed N --seconds S --trace 0|1 --out FILE
///                 [--served PATH] [--golden]
///
/// WORKLOAD is paper-mix, long-lane or serve-open.  The process works in
/// its current directory (store files, the daemon's socket and stores).
///
/// Untraced passes (--trace 0) run the production configuration: default
/// ExperimentConfig/makeEvolveConfig, default dispatch, no profiler, tracer
/// or ledger.  Traced passes (--trace 1) additionally replay each layer's
/// public entry point on the side — XICLTranslator::buildFVector, a shadow
/// ModelBuilder's predict and rebuild, jit::compileAtLevel per compile
/// event — and run an observability probe: a second EvolvableVM with a
/// PhaseProfiler installed and a DecisionLedger attached.
///
/// --golden runs one untimed pass and records only the virtual results
/// (per-run cycles, guard flag, final confidence) that the digests cover;
/// for serve-open it replays each lane's longest request sequence locally,
/// which the served lanes reproduce run for run.
///
//===----------------------------------------------------------------------===//

#include "evolve/EvolvableVM.h"
#include "evolve/ModelBuilder.h"
#include "harness/Fleet.h"
#include "harness/Scenario.h"
#include "server/Protocol.h"
#include "store/Json.h"
#include "store/KnowledgeStore.h"
#include "support/DecisionLedger.h"
#include "support/Format.h"
#include "support/Profiler.h"
#include "support/Rng.h"
#include "vm/jit/Compiler.h"
#include "workloads/Workload.h"
#include "xicl/Spec.h"
#include "xicl/Translator.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace evm;

namespace {

using Clock = std::chrono::steady_clock;

int64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Workload shapes
//===----------------------------------------------------------------------===//

/// Workloads are built with the production seed; the benchmark seed only
/// draws the input orders and the request stream.
constexpr uint64_t WorkloadBuildSeed = 1;

/// paper-mix: runs per app per unit (one unit = every app once, each on one
/// persistent VM).
constexpr size_t PaperMixRunsFew = 8;   ///< apps with < 60 inputs
constexpr size_t PaperMixRunsMany = 20; ///< apps with >= 60 inputs

/// long-lane: Fop for LongLaneRuns runs, a launch every LongLaneLaunch.
constexpr size_t LongLaneRuns = 1000;
constexpr size_t LongLaneLaunch = 20;

/// Successive units of one run take successive input orders; unit U of a
/// run with seed S uses order S * UnitOrders + U % UnitOrders.
constexpr unsigned UnitOrders = 4;

/// serve-open: the lanes, their share of the request stream, the daemon's
/// knobs, and the longest stream the golden digests cover.
const char *const ServeApps[] = {"Fop", "Bloat", "Search", "route"};
constexpr double ServeWeights[] = {0.55, 0.15, 0.15, 0.15};
constexpr size_t NumServeLanes = 4;
/// Half the daemon's capacity at the seed commit: 135 req/s, the highest
/// rate that kept p95 from due under 50 ms with no rejections in every
/// 20-second trial (perfbench/baseline.json, "serve_open_capacity").
constexpr double ServeRatePerSec = 67.5;
constexpr int ServeCheckpointEvery = 16;
constexpr double ServeMaxSeconds = 30;
/// The first request is due this long after the measured phase starts.
constexpr int64_t ServeLeadNs = 20'000'000;
/// Responses still missing this long after the last due time count as
/// failed.
constexpr int64_t ServeDrainNs = 30'000'000'000;

/// Set-ups per untraced run (the run reports their median).  paper-mix and
/// long-lane time a block of set-ups before the first unit and after every
/// unit, each block at least one set-up and until it adds up to
/// SetupBlockNs: the host's speed drifts over seconds, and spreading the
/// samples over the run lets the median see the same host as the units.
constexpr int64_t SetupBlockNs = 200'000'000;
constexpr int ServeSetupRepeats = 20;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  bool Golden = false;
  std::string Out;
  std::string Served;
};

//===----------------------------------------------------------------------===//
// Raw output
//===----------------------------------------------------------------------===//

/// Accumulates the output document; every sample array is a list of rows.
class RawOut {
public:
  void field(const std::string &Name, const std::string &RawJson) {
    Text += Text.empty() ? "{" : ",\n";
    Text += "\"" + Name + "\":" + RawJson;
  }
  void num(const std::string &Name, double V) {
    field(Name, formatString("%.17g", V));
  }
  void rows(const std::string &Name, const std::vector<std::string> &Rows) {
    std::string A = "[";
    for (size_t I = 0; I != Rows.size(); ++I) {
      if (I)
        A += ",\n";
      A += Rows[I];
    }
    field(Name, A + "]");
  }
  bool write(const std::string &Path) const {
    std::ofstream S(Path, std::ios::binary);
    S << Text << "}\n";
    return static_cast<bool>(S);
  }

private:
  std::string Text;
};

/// The virtual results a digest covers, rendered as the row tail
/// `cycles,used,"conf"` (confidence as its exact %.17g spelling).
std::string virtualTail(uint64_t Cycles, bool Used, double Conf) {
  return formatString("%llu,%d,\"%.17g\"",
                      static_cast<unsigned long long>(Cycles), Used ? 1 : 0,
                      Conf);
}

//===----------------------------------------------------------------------===//
// Lanes: one app, its input order, its launch size
//===----------------------------------------------------------------------===//

struct Lane {
  std::string App;
  wl::Workload W;
  xicl::XFMethodRegistry Registry;
  xicl::FileStore Files;
  /// The inputs this lane runs: one fixed draw (makeInputOrder under the
  /// default experiment configuration).  The last LateCount are the late
  /// set; orderLanes shuffles them and the rest separately.
  std::vector<size_t> Draw;
  size_t LateCount = 0;
  std::vector<size_t> Order;
  size_t LaunchRuns = 0; ///< runs per launch; Order.size() = one launch
};

using Lanes = std::vector<std::unique_ptr<Lane>>;

std::unique_ptr<Lane> makeLane(wl::Workload W) {
  auto L = std::make_unique<Lane>();
  L->App = W.Name;
  L->W = std::move(W);
  L->W.registerMethods(L->Registry);
  L->W.populateFileStore(L->Files);
  return L;
}

void drawInputs(Lane &L, size_t Count) {
  harness::ScenarioRunner Runner(L.W, harness::ExperimentConfig());
  L.Draw = Runner.makeInputOrder(1, Count);
  L.LateCount = std::max<size_t>(1, Count / 10);
}

/// Orders every lane's inputs for one unit.  Every seed runs the same
/// inputs, and the last tenth of each lane (late_p50_ms) is always the
/// same set, so run-to-run spread reflects the host and the learning
/// order, not which inputs happened to be drawn.
void orderLanes(Lanes &L, uint64_t OrderSeed) {
  Rng R(OrderSeed * 0x9e3779b97f4a7c15ULL + 0x1a9e);
  for (auto &Ln : L) {
    size_t Head = Ln->Draw.size() - Ln->LateCount;
    std::vector<size_t> Early(Ln->Draw.begin(), Ln->Draw.begin() + Head);
    std::vector<size_t> Late(Ln->Draw.begin() + Head, Ln->Draw.end());
    R.shuffle(Early);
    R.shuffle(Late);
    Ln->Order = std::move(Early);
    Ln->Order.insert(Ln->Order.end(), Late.begin(), Late.end());
  }
}

Lanes buildPaperMix() {
  Lanes Out;
  for (const std::string &Name : wl::workloadNames()) {
    auto L = makeLane(wl::buildWorkload(Name, WorkloadBuildSeed));
    size_t Runs =
        L->W.Inputs.size() >= 60 ? PaperMixRunsMany : PaperMixRunsFew;
    drawInputs(*L, Runs);
    L->LaunchRuns = Runs;
    Out.push_back(std::move(L));
  }
  return Out;
}

Lanes buildLongLane() {
  Lanes Out;
  auto L = makeLane(wl::buildWorkload("Fop", WorkloadBuildSeed));
  drawInputs(*L, LongLaneRuns);
  L->LaunchRuns = LongLaneLaunch;
  Out.push_back(std::move(L));
  return Out;
}

/// One open-loop request: its lane and the lane workload's input index.
struct ServeRequest {
  size_t Lane = 0;
  size_t Input = 0;
};

/// The serve-open stream: the lane-creation request of every lane, then
/// \p Count requests in blocks of ServeBlock.  Within a block the lanes
/// take fixed, evenly interleaved slots in proportion to ServeWeights
/// (smooth weighted round robin), and each lane's inputs are a fixed draw;
/// the benchmark seed orders each lane's inputs within every block.  So
/// every seed offers the same load with the same arrival pattern, and
/// prefixes of the stream are stable across counts: one golden sequence
/// covers every run length.
constexpr size_t ServeBlock = 60;

struct ServeStream {
  size_t Create[NumServeLanes] = {};
  std::vector<ServeRequest> Requests;
};

ServeStream makeServeStream(uint64_t Seed, const Lanes &L, size_t Count) {
  ServeStream S;
  Rng Fixed(0x5e4e0be);
  for (size_t I = 0; I != NumServeLanes; ++I)
    S.Create[I] = static_cast<size_t>(Fixed.nextInt(
        0, static_cast<int64_t>(L[I]->W.Inputs.size()) - 1));

  std::vector<size_t> Slots; // the lane of each slot of a block
  double Credit[NumServeLanes] = {};
  for (size_t J = 0; J != ServeBlock; ++J) {
    size_t Best = 0;
    for (size_t I = 0; I != NumServeLanes; ++I) {
      Credit[I] += ServeWeights[I];
      if (Credit[I] > Credit[Best])
        Best = I;
    }
    Credit[Best] -= 1.0;
    Slots.push_back(Best);
  }
  std::vector<size_t> Inputs[NumServeLanes];
  for (size_t Lane : Slots)
    Inputs[Lane].push_back(static_cast<size_t>(Fixed.nextInt(
        0, static_cast<int64_t>(L[Lane]->W.Inputs.size()) - 1)));

  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x5e4e0be);
  while (S.Requests.size() < Count) {
    size_t Next[NumServeLanes] = {};
    for (std::vector<size_t> &In : Inputs)
      R.shuffle(In);
    for (size_t Lane : Slots) {
      ServeRequest Req;
      Req.Lane = Lane;
      Req.Input = Inputs[Lane][Next[Lane]++];
      S.Requests.push_back(Req);
    }
  }
  S.Requests.resize(Count);
  return S;
}

Lanes buildServeLanes() {
  Lanes Out;
  for (const char *App : ServeApps)
    Out.push_back(makeLane(harness::buildFleetWorkload(App, WorkloadBuildSeed)));
  return Out;
}

/// Each lane's served sequence: its creation request, then its requests in
/// stream order (a lane's FIFO preserves send order on its connection).
void assignServeOrders(Lanes &L, const ServeStream &S, size_t Count) {
  for (size_t I = 0; I != NumServeLanes; ++I) {
    L[I]->Order.assign(1, S.Create[I]);
    L[I]->LaunchRuns = 0;
  }
  for (size_t J = 0; J != Count && J != S.Requests.size(); ++J)
    L[S.Requests[J].Lane]->Order.push_back(S.Requests[J].Input);
  for (auto &Ln : L)
    Ln->LaunchRuns = Ln->Order.size();
}

//===----------------------------------------------------------------------===//
// The runOnce pass (paper-mix, long-lane, and serve-open's local replay)
//===----------------------------------------------------------------------===//

bool sameModels(const std::vector<evolve::ExportedMethodModel> &A,
                const std::vector<evolve::ExportedMethodModel> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Constant != B[I].Constant ||
        A[I].ConstantLabel != B[I].ConstantLabel || A[I].Tree != B[I].Tree)
      return false;
  return true;
}

uint64_t fileBytes(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 ? static_cast<uint64_t>(St.st_size)
                                        : 0;
}

/// Collected rows of one pass.
struct PassRows {
  std::vector<std::string> Runs;     ///< unit,lane,k,ns,ok,cycles,used,"conf"
  std::vector<std::string> Launches; ///< unit,lane,load,warm,reload,ckpt,
                                     ///< merge,save,save_ok,bytes
  /// unit,lane,k,run_ns,xicl_ns,predict_ns (-1: no model yet),rebuild_ns,
  /// examples_scanned,jit_ns,jit_compiles,vcycles,compiled_vcycles,
  /// vcycles_by_level,used,probe_ns,probe_match,fv_match,ir_blocks,rebuilt
  std::vector<std::string> Traces;
  uint64_t TreeChecks = 0;
  uint64_t TreeMismatches = 0;
};

/// The traced pass's side state for one lane: an independent translator, a
/// shadow ModelBuilder fed each record's (Features, Ideal), and the
/// observability probe VM.
struct Shadow {
  std::unique_ptr<xicl::XICLTranslator> Translator;
  std::unique_ptr<evolve::ModelBuilder> Model;
  std::unique_ptr<evolve::EvolvableVM> Probe;
  PhaseProfiler Prof;
  DecisionLedger Ledger;
};

/// Runs \p L's whole order once as a chain of launches: load the store,
/// warmStart a fresh VM, run LaunchRuns inputs, reload, checkpoint, merge,
/// save.  The store starts empty, so every unit is identical.
void runLane(Lane &L, size_t LaneIdx, unsigned Unit, bool Traced,
             PassRows &Rows) {
  const evolve::EvolveConfig EC =
      harness::makeEvolveConfig(harness::ExperimentConfig());
  const std::string StorePath = "lane-" + std::to_string(LaneIdx) + ".store";
  std::remove(StorePath.c_str());

  Shadow Sh;
  if (Traced) {
    auto Spec = xicl::parseSpec(L.W.XiclSpec);
    if (Spec)
      Sh.Translator = std::make_unique<xicl::XICLTranslator>(
          Spec.takeValue(), &L.Registry, &L.Files);
    Sh.Model = std::make_unique<evolve::ModelBuilder>(
        L.W.Module.numFunctions(), EC.TreeParams);
    Sh.Probe = std::make_unique<evolve::EvolvableVM>(
        L.W.Module, L.W.XiclSpec, &L.Registry, &L.Files, EC);
    Sh.Ledger.setEnabled(true);
    Sh.Probe->setLedger(&Sh.Ledger, L.App);
  }

  const size_t N = L.Order.size();
  const size_t Step = L.LaunchRuns ? L.LaunchRuns : N;
  for (size_t Begin = 0; Begin < N; Begin += Step) {
    const size_t End = std::min(N, Begin + Step);
    auto T0 = Clock::now();
    store::KnowledgeStore Loaded;
    store::StoreReadStats ReadStats;
    store::LoadStatus St =
        store::loadStoreFile(StorePath, Loaded, ReadStats);
    auto T1 = Clock::now();
    auto VM = std::make_unique<evolve::EvolvableVM>(
        L.W.Module, L.W.XiclSpec, &L.Registry, &L.Files, EC);
    VM->warmStart(Loaded,
                  St == store::LoadStatus::Loaded ? &ReadStats : nullptr);
    auto T2 = Clock::now();

    for (size_t K = Begin; K != End; ++K) {
      const wl::InputCase &In = L.W.Inputs[L.Order[K]];
      const size_t ModelRuns = VM->model().numRuns();
      auto R0 = Clock::now();
      auto R = VM->runOnce(In.CommandLine, In.VmArgs);
      int64_t RunNs = nsBetween(R0, Clock::now());
      if (!R) {
        Rows.Runs.push_back(formatString("[%u,%zu,%zu,%lld,0,0,0,\"0\"]", Unit,
                                         LaneIdx, K,
                                         static_cast<long long>(RunNs)));
        continue;
      }
      Rows.Runs.push_back(
          formatString("[%u,%zu,%zu,%lld,1,", Unit, LaneIdx, K,
                       static_cast<long long>(RunNs)) +
          virtualTail(R->Result.Cycles, R->UsedPrediction,
                      R->ConfidenceAfter) +
          "]");
      if (!Traced)
        continue;

      // xicl: the translator's public entry point on the same command line.
      auto X0 = Clock::now();
      bool FvMatch = false;
      if (Sh.Translator) {
        auto FV = Sh.Translator->buildFVector(In.CommandLine);
        FvMatch = FV && FV->hash() == R->Features.hash();
      }
      int64_t XiclNs = nsBetween(X0, Clock::now());

      // ml: the VM predicts once per run from the pre-run model; when it
      // recorded the run (its model grew) it also rebuilt every tree.  The
      // shadow repeats exactly that, and the counts are the VM's own.
      int64_t PredictNs = -1;
      if (Sh.Model->built()) {
        auto P0 = Clock::now();
        evolve::PredictionStats PS;
        auto Pred = Sh.Model->predict(R->Features, &PS);
        PredictNs = nsBetween(P0, Clock::now());
        (void)Pred;
      }
      const bool Rebuilt = VM->model().numRuns() != ModelRuns;
      int64_t RebuildNs = 0;
      uint64_t Examples = 0;
      if (Rebuilt) {
        auto B0 = Clock::now();
        Sh.Model->addRun(R->Features, R->Ideal);
        Sh.Model->rebuild();
        RebuildNs = nsBetween(B0, Clock::now());
        Examples = VM->model().lastRebuildStats().ExamplesScanned;
      }

      // jit: every optimizing compile the run installed.
      int64_t JitNs = 0;
      uint64_t Compiles = 0, IrInstrs = 0;
      for (const vm::CompileEvent &Ev : R->Result.Compiles) {
        if (Ev.Level == vm::OptLevel::Baseline)
          continue;
        auto J0 = Clock::now();
        vm::jit::CompiledFunction CF =
            vm::jit::compileAtLevel(L.W.Module, Ev.Method, Ev.Level);
        JitNs += nsBetween(J0, Clock::now());
        IrInstrs += CF.IR.Blocks.size();
        ++Compiles;
      }

      // vm: virtual cycles and the share spent in compiled code.
      uint64_t Compiled = 0, ByLevel = 0;
      for (const vm::MethodStats &MS : R->Result.PerMethod)
        for (int Lv = 0; Lv != vm::NumOptLevels; ++Lv) {
          ByLevel += MS.CyclesByLevel[Lv];
          if (Lv != vm::levelIndex(vm::OptLevel::Baseline))
            Compiled += MS.CyclesByLevel[Lv];
        }

      // obs: the same input through the probe VM, profiler and ledger on.
      auto O0 = Clock::now();
      bool ProbeMatch = false;
      {
        ProfilerInstallGuard Guard(&Sh.Prof);
        auto P = Sh.Probe->runOnce(In.CommandLine, In.VmArgs);
        ProbeMatch = P && P->Result.Cycles == R->Result.Cycles &&
                     P->UsedPrediction == R->UsedPrediction &&
                     P->ConfidenceAfter == R->ConfidenceAfter;
      }
      int64_t ProbeNs = nsBetween(O0, Clock::now());

      Rows.Traces.push_back(formatString(
          "[%u,%zu,%zu,%lld,%lld,%lld,%lld,%llu,%lld,%llu,%llu,%llu,%llu,"
          "%d,%lld,%d,%d,%llu,%d]",
          Unit, LaneIdx, K, static_cast<long long>(RunNs),
          static_cast<long long>(XiclNs), static_cast<long long>(PredictNs),
          static_cast<long long>(RebuildNs),
          static_cast<unsigned long long>(Examples),
          static_cast<long long>(JitNs),
          static_cast<unsigned long long>(Compiles),
          static_cast<unsigned long long>(R->Result.Cycles),
          static_cast<unsigned long long>(Compiled),
          static_cast<unsigned long long>(ByLevel),
          R->UsedPrediction ? 1 : 0, static_cast<long long>(ProbeNs),
          ProbeMatch ? 1 : 0, FvMatch ? 1 : 0,
          static_cast<unsigned long long>(IrInstrs), Rebuilt ? 1 : 0));
    }

    if (Traced) {
      ++Rows.TreeChecks;
      if (!sameModels(VM->model().exportModels(), Sh.Model->exportModels()))
        ++Rows.TreeMismatches;
    }

    // Read-modify-write checkpoint, as ScenarioRunner::runEvolveLaunches.
    auto C0 = Clock::now();
    store::KnowledgeStore Disk;
    store::StoreReadStats DiskStats;
    store::loadStoreFile(StorePath, Disk, DiskStats);
    auto C1 = Clock::now();
    store::KnowledgeStore Mem = VM->checkpoint(Disk.Header.Generation + 1);
    Mem.Header.App = L.W.Name;
    auto C2 = Clock::now();
    store::KnowledgeStore Merged = store::mergeStores(Disk, Mem);
    auto C3 = Clock::now();
    bool SaveOk = store::saveStoreFile(StorePath, Merged);
    auto C4 = Clock::now();
    VM->noteStoreSave(SaveOk);
    Rows.Launches.push_back(formatString(
        "[%u,%zu,%lld,%lld,%lld,%lld,%lld,%lld,%d,%llu]", Unit, LaneIdx,
        static_cast<long long>(nsBetween(T0, T1)),
        static_cast<long long>(nsBetween(T1, T2)),
        static_cast<long long>(nsBetween(C0, C1)),
        static_cast<long long>(nsBetween(C1, C2)),
        static_cast<long long>(nsBetween(C2, C3)),
        static_cast<long long>(nsBetween(C3, C4)), SaveOk ? 1 : 0,
        static_cast<unsigned long long>(fileBytes(StorePath))));
  }
  std::remove(StorePath.c_str());
}

uint64_t selfPeakRssKb() {
  struct rusage U;
  return ::getrusage(RUSAGE_SELF, &U) == 0
             ? static_cast<uint64_t>(U.ru_maxrss)
             : 0;
}

std::string jsonNsList(const std::vector<int64_t> &V) {
  std::string S = "[";
  for (size_t I = 0; I != V.size(); ++I)
    S += (I ? "," : "") + std::to_string(V[I]);
  return S + "]";
}

/// The lanes' app names as a JSON array, in lane order.
std::string laneNames(const Lanes &L) {
  std::string S = "[";
  for (size_t I = 0; I != L.size(); ++I)
    S += (I ? ",\"" : "\"") + L[I]->App + "\"";
  return S + "]";
}

/// Set-up: build every lane's workload, then warm each app with one run of
/// its input 0 on a throwaway VM (what a host pays before its first
/// production run; it also fills the caches the measured pass would
/// otherwise pay for in its first unit).  Independent of the seed.
Lanes buildLanes(const Options &O) {
  Lanes L = O.Workload == "paper-mix" ? buildPaperMix() : buildLongLane();
  const evolve::EvolveConfig EC =
      harness::makeEvolveConfig(harness::ExperimentConfig());
  for (auto &Ln : L) {
    evolve::EvolvableVM VM(Ln->W.Module, Ln->W.XiclSpec, &Ln->Registry,
                           &Ln->Files, EC);
    const wl::InputCase &In = Ln->W.Inputs[0];
    (void)VM.runOnce(In.CommandLine, In.VmArgs);
  }
  return L;
}

/// Times one block of set-ups (one set-up unless \p Repeat) into \p SetupNs;
/// returns the last set-up's lanes.
Lanes timedSetups(const Options &O, bool Repeat,
                  std::vector<int64_t> &SetupNs) {
  Lanes L;
  int64_t BlockNs = 0;
  do {
    L.clear();
    auto S0 = Clock::now();
    L = buildLanes(O);
    SetupNs.push_back(nsBetween(S0, Clock::now()));
    BlockNs += SetupNs.back();
  } while (Repeat && BlockNs < SetupBlockNs);
  return L;
}

/// paper-mix and long-lane: set up, then run whole units until --seconds
/// of units have elapsed (at least one; --golden runs exactly UnitOrders,
/// one per order).  Untraced runs time more set-ups between units, outside
/// the measured time.
int runVmWorkload(const Options &O, RawOut &Out) {
  std::vector<int64_t> SetupNs;
  const bool Timed = !O.Traced && !O.Golden;
  Lanes L = timedSetups(O, Timed, SetupNs);

  PassRows Rows;
  unsigned Units = 0;
  int64_t ElapsedNs = 0;
  const int64_t BudgetNs = static_cast<int64_t>(O.Seconds * 1e9);
  do {
    auto U0 = Clock::now();
    orderLanes(L, O.Seed * UnitOrders + Units % UnitOrders);
    for (size_t I = 0; I != L.size(); ++I)
      runLane(*L[I], I, Units, O.Traced, Rows);
    ElapsedNs += nsBetween(U0, Clock::now());
    ++Units;
    if (Timed)
      timedSetups(O, true, SetupNs);
  } while (O.Golden ? Units != UnitOrders : ElapsedNs < BudgetNs);

  Out.field("lanes", laneNames(L));
  Out.field("setup_ns", jsonNsList(SetupNs));
  Out.num("units", Units);
  Out.num("unit_orders", UnitOrders);
  Out.num("elapsed_ns", static_cast<double>(ElapsedNs));
  Out.num("peak_rss_kb", static_cast<double>(selfPeakRssKb()));
  Out.rows("runs", Rows.Runs);
  Out.rows("launches", Rows.Launches);
  if (O.Traced) {
    Out.rows("traces", Rows.Traces);
    Out.num("tree_checks", static_cast<double>(Rows.TreeChecks));
    Out.num("tree_mismatches", static_cast<double>(Rows.TreeMismatches));
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-open: the daemon and the open-loop generator
//===----------------------------------------------------------------------===//

/// A connected protocol client socket.  The daemon binds its socket file
/// before it listens, so a refused connect is retried for up to
/// \p TimeoutMs.
int connectTo(const std::string &Path, int TimeoutMs) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  const auto Until = Clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (true) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    int Err = errno;
    ::close(Fd);
    if ((Err != ECONNREFUSED && Err != ENOENT && Err != EAGAIN) ||
        Clock::now() >= Until) {
      errno = Err;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// One evm-served child.  The destructor stops it (SIGTERM, then waits for
/// the drain), so no exit path leaves it running.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Served, const std::string &Socket,
             const std::string &StoreDir) {
    std::remove(Socket.c_str());
    std::vector<std::string> Args = {
        Served, "--socket=" + Socket, "--store-dir=" + StoreDir,
        "--checkpoint-every=" + std::to_string(ServeCheckpointEvery)};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 2, "daemon.log",
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    int Rc = posix_spawn(&Pid, Served.c_str(), &FA, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Rc != 0) {
      Pid = -1;
      return false;
    }
    // The socket file appearing is the readiness signal.
    const auto Until = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < Until) {
      struct stat St;
      if (::stat(Socket.c_str(), &St) == 0)
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
    return false;
  }

  /// The daemon's resident-set high-water mark, in kB.
  uint64_t peakRssKb() const {
    std::ifstream S("/proc/" + std::to_string(Pid) + "/status");
    std::string Line;
    while (std::getline(S, Line))
      if (Line.rfind("VmHWM:", 0) == 0)
        return std::strtoull(Line.c_str() + 6, nullptr, 10);
    return 0;
  }

  /// SIGTERM and wait for the drain; the exit status (-1 when it did not
  /// exit normally).
  int stop() {
    if (Pid <= 0)
      return ExitCode;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
    ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    return ExitCode;
  }

private:
  pid_t Pid = -1;
  int ExitCode = 0;
};

/// One parsed response.
struct Reply {
  int Status = 3; ///< 0 ok, 1 rejected, 2 error, 3 missing
  uint64_t Cycles = 0;
  bool Used = false;
  double Conf = 0;
};

Reply parseReply(const std::string &Payload, uint64_t &Id) {
  Reply Rp;
  Id = 0;
  std::optional<store::JsonValue> Doc = store::JsonValue::parse(Payload);
  if (!Doc)
    return Rp;
  if (const store::JsonValue *F = Doc->field("id"))
    Id = F->asU64();
  const store::JsonValue *St = Doc->field("status");
  std::string S = St ? St->str() : "";
  Rp.Status = S == "ok" ? 0 : S == "rejected" ? 1 : 2;
  if (const store::JsonValue *F = Doc->field("cycles"))
    Rp.Cycles = F->asU64();
  if (const store::JsonValue *F = Doc->field("used"))
    Rp.Used = F->asU64() != 0;
  if (const store::JsonValue *F = Doc->field("conf_after"))
    Rp.Conf = F->asDouble();
  return Rp;
}

/// Reads one frame from \p Fd within \p TimeoutMs; false on timeout/error.
bool readReply(int Fd, int TimeoutMs, std::string &Payload) {
  pollfd P{Fd, POLLIN, 0};
  if (::poll(&P, 1, TimeoutMs) <= 0)
    return false;
  std::string Err;
  return server::readFrame(Fd, Payload, Err) == server::FrameStatus::Ok;
}

constexpr uint64_t CreateIdBase = 1'000'000'000;

/// One set-up: spawn the daemon and create every lane with its first
/// request.  Appends one row per lane to \p Creations
/// (setup,lane,rtt_ns,status,cycles,used,"conf").
bool serveSetup(const Options &O, int SetupIdx, const ServeStream &S,
                Daemon &D, std::vector<int> &Fds,
                std::vector<std::string> &Creations) {
  std::string StoreDir = "stores-" + std::to_string(SetupIdx);
  if (!D.start(O.Served, "evm.sock", StoreDir)) {
    std::fprintf(stderr, "error: evm-served did not come up (set-up %d)\n",
                 SetupIdx);
    return false;
  }
  for (size_t I = 0; I != NumServeLanes; ++I) {
    int Fd = connectTo("evm.sock", 5000);
    if (Fd < 0) {
      std::fprintf(stderr, "error: cannot connect to evm-served: %s\n",
                   std::strerror(errno));
      return false;
    }
    Fds.push_back(Fd);
  }
  for (size_t I = 0; I != NumServeLanes; ++I) {
    auto T0 = Clock::now();
    uint64_t Id = CreateIdBase + I;
    if (!server::writeFrame(Fds[I], server::renderRunInputRequest(
                                        Id, ServeApps[I], S.Create[I]))) {
      std::fprintf(stderr, "error: cannot send to evm-served\n");
      return false;
    }
    std::string Payload;
    Reply Rp;
    uint64_t Got = 0;
    if (readReply(Fds[I], 60000, Payload))
      Rp = parseReply(Payload, Got);
    if (Got != Id)
      Rp.Status = 3;
    Creations.push_back(
        formatString("[%d,%zu,%lld,%d,", SetupIdx, I,
                     static_cast<long long>(nsBetween(T0, Clock::now())),
                     Rp.Status) +
        virtualTail(Rp.Cycles, Rp.Used, Rp.Conf) + "]");
  }
  return true;
}

void closeAll(std::vector<int> &Fds) {
  for (int Fd : Fds)
    ::close(Fd);
  Fds.clear();
}

int runServeOpen(const Options &O, RawOut &Out) {
  if (O.Seconds > ServeMaxSeconds) {
    std::fprintf(stderr, "error: serve-open covers at most %.0f s\n",
                 ServeMaxSeconds);
    return 2;
  }
  const size_t Count = static_cast<size_t>(ServeRatePerSec * O.Seconds);
  Lanes L = buildServeLanes();
  ServeStream S = makeServeStream(O.Seed, L, Count);

  std::vector<int64_t> SetupNs;
  std::vector<std::string> Creations;
  std::vector<int> DaemonExits;
  Daemon D;
  std::vector<int> Fds;
  auto SetUp = [&](int I) {
    auto S0 = Clock::now();
    if (!serveSetup(O, I, S, D, Fds, Creations))
      return false;
    SetupNs.push_back(nsBetween(S0, Clock::now()));
    return true;
  };
  // Half the set-ups run before the stream (the last one's daemon serves
  // it) and half after, so their median sees the host the stream saw.
  const int Repeats = O.Traced ? 1 : ServeSetupRepeats;
  const int Before = (Repeats + 1) / 2;
  for (int I = 0; I != Before; ++I) {
    if (I) {
      closeAll(Fds);
      DaemonExits.push_back(D.stop());
    }
    if (!SetUp(I)) {
      closeAll(Fds);
      return 2;
    }
  }

  // The open loop: request J is due at Start + Lead + J / rate, whatever
  // happened to earlier requests.  One sender, one receiver.
  std::vector<int64_t> DueNs(Count), SendNs(Count, -1), RecvNs(Count, -1);
  std::vector<Reply> Replies(Count);
  const double GapNs = 1e9 / ServeRatePerSec;
  for (size_t J = 0; J != Count; ++J)
    DueNs[J] = ServeLeadNs + static_cast<int64_t>(GapNs * static_cast<double>(J));
  const auto Start = Clock::now();

  std::thread Receiver([&] {
    std::vector<pollfd> P;
    for (int Fd : Fds)
      P.push_back(pollfd{Fd, POLLIN, 0});
    size_t Got = 0;
    const int64_t GiveUpNs = DueNs.empty() ? 0 : DueNs.back() + ServeDrainNs;
    while (Got != Count && nsBetween(Start, Clock::now()) < GiveUpNs) {
      if (::poll(P.data(), P.size(), 100) <= 0)
        continue;
      for (pollfd &Pf : P) {
        if (!(Pf.revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        std::string Payload, Err;
        if (server::readFrame(Pf.fd, Payload, Err) != server::FrameStatus::Ok) {
          Pf.fd = -1; // connection lost: its requests stay missing
          continue;
        }
        int64_t Now = nsBetween(Start, Clock::now());
        uint64_t Id = 0;
        Reply Rp = parseReply(Payload, Id);
        if (Id >= 1 && Id <= Count && RecvNs[Id - 1] < 0) {
          RecvNs[Id - 1] = Now;
          Replies[Id - 1] = Rp;
          ++Got;
        }
      }
    }
  });

  for (size_t J = 0; J != Count; ++J) {
    std::this_thread::sleep_until(Start + std::chrono::nanoseconds(DueNs[J]));
    const ServeRequest &Rq = S.Requests[J];
    SendNs[J] = nsBetween(Start, Clock::now());
    server::writeFrame(Fds[Rq.Lane], server::renderRunInputRequest(
                                         J + 1, ServeApps[Rq.Lane], Rq.Input));
  }
  Receiver.join();

  std::string Stats = "null";
  if (server::writeFrame(Fds[0], server::renderStatsRequest(CreateIdBase * 2))) {
    std::string Payload;
    if (readReply(Fds[0], 10000, Payload)) {
      std::optional<store::JsonValue> Doc = store::JsonValue::parse(Payload);
      size_t At = Payload.find("\"stats\":");
      if (Doc && At != std::string::npos)
        Stats = Payload.substr(At + 8, Payload.size() - At - 9);
    }
  }
  uint64_t HwmKb = D.peakRssKb();
  closeAll(Fds);
  DaemonExits.push_back(D.stop());
  for (int I = Before; I != Repeats; ++I) {
    bool Ok = SetUp(I);
    closeAll(Fds);
    DaemonExits.push_back(D.stop());
    if (!Ok)
      return 2;
  }

  std::vector<std::string> Requests;
  for (size_t J = 0; J != Count; ++J)
    Requests.push_back(
        formatString("[%zu,%lld,%lld,%lld,%d,", S.Requests[J].Lane,
                     static_cast<long long>(DueNs[J]),
                     static_cast<long long>(SendNs[J]),
                     static_cast<long long>(RecvNs[J]), Replies[J].Status) +
        virtualTail(Replies[J].Cycles, Replies[J].Used, Replies[J].Conf) +
        "]");

  Out.field("lanes", laneNames(L));
  Out.field("setup_ns", jsonNsList(SetupNs));
  Out.num("rate", ServeRatePerSec);
  Out.rows("creations", Creations);
  Out.rows("requests", Requests);
  std::string Exits = "[";
  for (size_t I = 0; I != DaemonExits.size(); ++I)
    Exits += (I ? "," : "") + std::to_string(DaemonExits[I]);
  Out.field("daemon_exits", Exits + "]");
  Out.num("peak_rss_kb", static_cast<double>(HwmKb));
  Out.field("stats", Stats);

  if (O.Traced) {
    // serve.exec: each lane's served sequence through a local runOnce, with
    // the same per-layer replays as the other workloads.
    assignServeOrders(L, S, Count);
    PassRows Rows;
    for (size_t I = 0; I != L.size(); ++I)
      runLane(*L[I], I, 0, true, Rows);
    Out.rows("runs", Rows.Runs);
    Out.rows("launches", Rows.Launches);
    Out.rows("traces", Rows.Traces);
    Out.num("tree_checks", static_cast<double>(Rows.TreeChecks));
    Out.num("tree_mismatches", static_cast<double>(Rows.TreeMismatches));
  }
  return 0;
}

/// --golden for serve-open: the longest stream, replayed locally per lane.
int goldenServeOpen(const Options &O, RawOut &Out) {
  const size_t Count = static_cast<size_t>(ServeRatePerSec * ServeMaxSeconds);
  Lanes L = buildServeLanes();
  ServeStream S = makeServeStream(O.Seed, L, Count);
  assignServeOrders(L, S, Count);
  PassRows Rows;
  for (size_t I = 0; I != L.size(); ++I)
    runLane(*L[I], I, 0, false, Rows);
  Out.field("lanes", laneNames(L));
  Out.rows("runs", Rows.Runs);
  return 0;
}

bool parseArgs(int argc, char **argv, Options &O) {
  if (argc < 2)
    return false;
  O.Workload = argv[1];
  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&](std::string &V) {
      if (I + 1 >= argc)
        return false;
      V = argv[++I];
      return true;
    };
    std::string V;
    if (A == "--golden") {
      O.Golden = true;
    } else if (A == "--seed" && Next(V)) {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds" && Next(V)) {
      O.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (A == "--trace" && Next(V)) {
      O.Traced = V == "1";
    } else if (A == "--out" && Next(V)) {
      O.Out = V;
    } else if (A == "--served" && Next(V)) {
      O.Served = V;
    } else {
      return false;
    }
  }
  return !O.Out.empty() && O.Seconds > 0 &&
         (O.Workload == "paper-mix" || O.Workload == "long-lane" ||
          O.Workload == "serve-open");
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  if (!parseArgs(argc, argv, O)) {
    std::fprintf(stderr,
                 "usage: %s paper-mix|long-lane|serve-open --seed N "
                 "--seconds S --trace 0|1 --out FILE [--served PATH] "
                 "[--golden]\n",
                 argv[0]);
    return 2;
  }
  if (O.Workload == "serve-open" && !O.Golden && O.Served.empty()) {
    std::fprintf(stderr, "error: serve-open needs --served PATH\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  RawOut Out;
  Out.field("workload", "\"" + O.Workload + "\"");
  Out.num("seed", static_cast<double>(O.Seed));
  Out.num("trace", O.Traced ? 1 : 0);
  int Rc = O.Workload != "serve-open" ? runVmWorkload(O, Out)
           : O.Golden                 ? goldenServeOpen(O, Out)
                                      : runServeOpen(O, Out);
  if (Rc != 0)
    return Rc;
  if (!Out.write(O.Out)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", O.Out.c_str());
    return 2;
  }
  return 0;
}
