//===- examples/evm_cli.cpp - File-driven evolvable-VM runner -------------==//
//
// A small command-line tool a downstream user can drive entirely from
// files, no C++ required:
//
//   evm_cli [options] PROGRAM.evm SPEC.xicl RUNS.txt
//
//   PROGRAM.evm  MiniVM textual assembly (see bytecode/Assembler.h)
//   SPEC.xicl    the program's XICL specification
//   RUNS.txt     one production run per line:
//                  <command line> | <main() args, whitespace-separated>
//                lines starting with '#' are comments.  Integer args are
//                passed as ints, anything with a '.' as floats.
//
// Options: see printUsage (observability outputs, knowledge store,
// generated-workload, fleet and client modes).
//
// Exit codes:
//
//   0  success
//   1  scenario failure (assembly error, unusable runs file, trapped run)
//   2  usage error (bad or unknown flag, wrong positional arguments)
//   3  file I/O error (unreadable input, unwritable output)
//
// The tool replays the runs through one EvolvableVM, prints the per-run
// evolution, and finishes with the paper's Sec. VI spec feedback.
//
// With no arguments it runs a built-in demo (the route example) so it can
// be tried immediately.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Assembler.h"
#include "evolve/EvolvableVM.h"
#include "harness/Fleet.h"
#include "server/Protocol.h"
#include "store/Json.h"
#include "store/KnowledgeStore.h"
#include "support/ArgParse.h"
#include "support/BuildInfo.h"
#include "support/Format.h"
#include "support/DecisionLedger.h"
#include "support/Profiler.h"
#include "support/StringUtils.h"
#include "support/Trace.h"
#include "workloads/Generator.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace evm;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream Stream(Path);
  if (!Stream)
    return false;
  std::stringstream Buffer;
  Buffer << Stream.rdbuf();
  Out = Buffer.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Stream(Path, std::ios::binary);
  if (!Stream)
    return false;
  Stream << Text;
  return static_cast<bool>(Stream);
}

struct RunLine {
  std::string CommandLine;
  std::vector<bc::Value> Args;
};

/// Output/engine options parsed off the command line before the three
/// positional file arguments.
struct CliOptions {
  std::string TraceOutPath;    ///< --trace-out= (Chrome trace JSON)
  std::string TraceJsonlPath;  ///< --trace-jsonl= (JSON Lines events)
  std::string MetricsOutPath;  ///< --metrics-out= (metrics snapshot JSON)
  std::string ProfileOutPath;  ///< --profile-out= (phases+metrics JSON)
  std::string ProfileFoldPath; ///< --profile-collapsed= (flamegraph.pl)
  std::string ProfileSpeedPath; ///< --profile-speedscope=
  std::string DecisionsOutPath; ///< --decisions-out= (decision-ledger JSONL)
  std::string StorePath;       ///< --store= (cross-run knowledge store)
  bool StoreReadonly = false;  ///< --store-readonly (warm start, no save)
  bool StoreReset = false;     ///< --store-reset (delete before loading)

  // Generated-workload mode (--gen-workload=SPEC selects it).
  std::string GenWorkloadSpec; ///< --gen-workload= (key=value,... GenSpec)
  int64_t GenRuns = 0;         ///< --gen-runs= (0 = the spec's runs value)

  // Fleet mode (--fleet=N selects it; see runFleet).
  int64_t FleetTenants = 0;    ///< --fleet= (0 = fleet mode off)
  int64_t Threads = 1;         ///< --threads=
  int64_t FleetRuns = 12;      ///< --fleet-runs= (per tenant)
  int64_t MergeEvery = 0;      ///< --merge-every= (0 = checkpoint at end)
  uint64_t Seed = 1;           ///< --seed= (fleet seed)
  std::string ShardDir;        ///< --shard-dir= (per-tenant shard stores)
  std::string FleetWorkloads;  ///< --fleet-workloads=a,b,c
  std::string FleetOutPath;    ///< --fleet-out= (aggregate JSON copy)

  // Client mode (--connect=SOCKET selects it; see runConnect).
  std::string ConnectPath; ///< --connect= (evm-served socket path)
  std::string ConnectApp = "route"; ///< --app= (lane id on the daemon)
  std::string InputOrder;  ///< --input-order=0,1,2 (built-in input indices)

  bool wantsTrace() const {
    return !TraceOutPath.empty() || !TraceJsonlPath.empty();
  }
  bool wantsProfile() const {
    return !ProfileOutPath.empty() || !ProfileFoldPath.empty() ||
           !ProfileSpeedPath.empty();
  }
};

/// The ledger provenance line mirrors the bench provenance stamp
/// (bench/run_all.sh), sourced from the configure-time BuildInfo.
LedgerProvenance ledgerProvenance() {
  const BuildInfo &B = buildInfo();
  LedgerProvenance P;
  P.GitSha = B.GitSha;
  P.Compiler = B.Compiler;
  P.CompilerVersion = B.CompilerVersion;
  P.BuildType = B.BuildType;
  return P;
}

/// Parses "cmdline | arg arg arg" lines.
std::vector<RunLine> parseRuns(const std::string &Text, bool &Ok) {
  std::vector<RunLine> Runs;
  Ok = true;
  int LineNo = 0;
  for (const std::string &Raw : splitString(Text, '\n')) {
    ++LineNo;
    std::string Line = trimString(Raw);
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Bar = Line.find('|');
    if (Bar == std::string::npos) {
      std::fprintf(stderr, "runs file line %d: missing '|'\n", LineNo);
      Ok = false;
      continue;
    }
    RunLine R;
    R.CommandLine = trimString(Line.substr(0, Bar));
    for (const std::string &Tok : splitWhitespace(Line.substr(Bar + 1))) {
      if (Tok.find('.') != std::string::npos) {
        auto F = parseDouble(Tok);
        if (!F) {
          std::fprintf(stderr, "runs file line %d: bad float '%s'\n",
                       LineNo, Tok.c_str());
          Ok = false;
          continue;
        }
        R.Args.push_back(bc::Value::makeFloat(*F));
      } else {
        auto I = parseInteger(Tok);
        if (!I) {
          std::fprintf(stderr, "runs file line %d: bad integer '%s'\n",
                       LineNo, Tok.c_str());
          Ok = false;
          continue;
        }
        R.Args.push_back(bc::Value::makeInt(*I));
      }
    }
    Runs.push_back(std::move(R));
  }
  return Runs;
}

int replay(const bc::Module &Program, const std::string &Spec,
           const std::vector<RunLine> &Runs,
           const xicl::XFMethodRegistry &Registry,
           const xicl::FileStore &Files, const CliOptions &Options,
           const std::string &AppName = "evm_cli") {
  evolve::EvolvableVM VM(Program, Spec, &Registry, &Files,
                         evolve::EvolveConfig());
  if (!VM.specError().empty())
    std::fprintf(stderr,
                 "warning: XICL spec rejected (%s); running without "
                 "prediction\n",
                 VM.specError().c_str());

  // Cross-run knowledge store: warm-start before the first run.  A missing
  // file is a normal cold start; damage degrades gracefully (the VM keeps
  // whatever sections survived); only genuine I/O failures are errors.
  if (!Options.StorePath.empty()) {
    if (Options.StoreReset &&
        std::remove(Options.StorePath.c_str()) != 0 && errno != ENOENT) {
      std::fprintf(stderr, "error: cannot reset store %s\n",
                   Options.StorePath.c_str());
      return 3;
    }
    store::KnowledgeStore KS;
    store::StoreReadStats Stats;
    store::LoadStatus St = store::loadStoreFile(Options.StorePath, KS, Stats);
    if (St == store::LoadStatus::IoError) {
      std::fprintf(stderr, "error: cannot read store %s\n",
                   Options.StorePath.c_str());
      return 3;
    }
    evolve::WarmStartResult Warm = VM.warmStart(
        KS, St == store::LoadStatus::Loaded ? &Stats : nullptr);
    if (St == store::LoadStatus::Loaded && !Stats.clean())
      std::fprintf(stderr,
                   "warning: store %s damaged (%u sections, %u records "
                   "dropped%s); continuing with what survived\n",
                   Options.StorePath.c_str(), Stats.SectionsDropped,
                   Stats.RecordsDropped,
                   Stats.Truncated ? ", truncated" : "");
    if (Warm.Applied)
      std::printf("store: warm start from %s (%zu runs restored, %zu models "
                  "%s, generation %llu)\n",
                  Options.StorePath.c_str(), Warm.RunsRestored,
                  Warm.Retrained ? VM.model().numMethods()
                                 : Warm.ModelsImported,
                  Warm.Retrained ? "retrained" : "imported",
                  static_cast<unsigned long long>(KS.Header.Generation));
    else
      std::printf("store: cold start (%s)\n",
                  St == store::LoadStatus::NotFound ? "no store file yet"
                                                    : "store was empty");
  }

  TraceRecorder Tracer;
  if (Options.wantsTrace()) {
    Tracer.setEnabled(true);
    VM.setTracer(&Tracer);
  }

  // Decision ledger: one record per run, exported as JSONL at the end.
  DecisionLedger Ledger;
  if (!Options.DecisionsOutPath.empty()) {
    Ledger.setEnabled(true);
    VM.setLedger(&Ledger, AppName);
  }

  // Phase profiling: installed for the whole replay so the tree spans
  // every run plus the between-run offline work (model rebuilds).
  // Attribution never charges the virtual clock, so cycle counts are
  // identical with or without it.
  PhaseProfiler Profiler;
  std::optional<ProfilerInstallGuard> ProfileGuard;
  if (Options.wantsProfile())
    ProfileGuard.emplace(&Profiler);

  MetricsSnapshot LastMetrics;
  std::printf("%-4s %-32s %-7s %-7s %-9s %s\n", "run", "command line",
              "conf", "acc", "cycles", "path");
  for (size_t R = 0; R != Runs.size(); ++R) {
    auto Record = VM.runOnce(Runs[R].CommandLine, Runs[R].Args);
    if (!Record) {
      std::fprintf(stderr, "run %zu failed: %s\n", R + 1,
                   Record.getError().message().c_str());
      return 1;
    }
    std::printf("%-4zu %-32s %-7.3f %-7.3f %-9llu %s\n", R + 1,
                Runs[R].CommandLine.c_str(), Record->ConfidenceAfter,
                Record->Accuracy,
                static_cast<unsigned long long>(Record->Result.Cycles),
                Record->UsedPrediction ? "predicted" : "default");
    LastMetrics = Record->Result.Metrics;
  }

  std::printf("\n%s", VM.specFeedback().render().c_str());

  // Checkpoint back into the store (read-modify-write: reload, merge under
  // newest-wins, bump the generation) unless the store is read-only.
  if (!Options.StorePath.empty() && !Options.StoreReadonly) {
    store::KnowledgeStore Disk;
    store::StoreReadStats DiskStats;
    if (store::loadStoreFile(Options.StorePath, Disk, DiskStats) ==
        store::LoadStatus::IoError) {
      std::fprintf(stderr, "error: cannot re-read store %s\n",
                   Options.StorePath.c_str());
      return 3;
    }
    store::KnowledgeStore Mem = VM.checkpoint(Disk.Header.Generation + 1);
    Mem.Header.App = "evm_cli";
    bool Saved =
        store::saveStoreFile(Options.StorePath, store::mergeStores(Disk, Mem));
    VM.noteStoreSave(Saved);
    if (!Saved) {
      std::fprintf(stderr, "error: cannot write store %s\n",
                   Options.StorePath.c_str());
      return 3;
    }
    std::printf("store: saved %s (%zu runs, generation %llu)\n",
                Options.StorePath.c_str(), Mem.Runs.size(),
                static_cast<unsigned long long>(Mem.Header.Generation));
  }

  TraceMeta Meta;
  Meta.MethodNames.resize(Program.numFunctions());
  for (size_t F = 0; F != Program.numFunctions(); ++F)
    Meta.MethodNames[F] = Program.function(static_cast<bc::MethodId>(F)).Name;
  if (!Options.TraceOutPath.empty() &&
      !writeFile(Options.TraceOutPath, renderChromeTrace(Tracer.exportOrder(), Meta))) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.TraceOutPath.c_str());
    return 3;
  }
  if (!Options.TraceJsonlPath.empty() &&
      !writeFile(Options.TraceJsonlPath, renderJsonlTrace(Tracer.exportOrder(), Meta))) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.TraceJsonlPath.c_str());
    return 3;
  }
  if (!Options.MetricsOutPath.empty() &&
      !writeFile(Options.MetricsOutPath, LastMetrics.renderJson())) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.MetricsOutPath.c_str());
    return 3;
  }
  if (!Options.DecisionsOutPath.empty()) {
    LedgerProvenance Prov = ledgerProvenance();
    if (!writeFile(Options.DecisionsOutPath,
                   renderJsonlDecisions(Ledger.exportOrder(), &Prov))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Options.DecisionsOutPath.c_str());
      return 3;
    }
    if (Ledger.droppedRecords())
      std::fprintf(stderr,
                   "warning: %llu decision records dropped (ring cap)\n",
                   static_cast<unsigned long long>(Ledger.droppedRecords()));
  }
  if (Options.wantsProfile()) {
    PhaseTreeSnapshot Phases = Profiler.snapshot();
    if (!Options.ProfileOutPath.empty()) {
      // Composed document: phases plus the final run's metrics, so
      // evm-prof's --latency report has histogram percentiles to read.
      std::string Doc = Phases.renderJson();
      Doc.pop_back(); // strip '}'
      Doc += ',';
      Doc += LastMetrics.renderJson().substr(1); // strip '{'
      Doc += '\n';
      if (!writeFile(Options.ProfileOutPath, Doc)) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     Options.ProfileOutPath.c_str());
        return 3;
      }
    }
    if (!Options.ProfileFoldPath.empty() &&
        !writeFile(Options.ProfileFoldPath, Phases.renderCollapsed())) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Options.ProfileFoldPath.c_str());
      return 3;
    }
    if (!Options.ProfileSpeedPath.empty() &&
        !writeFile(Options.ProfileSpeedPath,
                   Phases.renderSpeedscope("evm_cli replay") + "\n")) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Options.ProfileSpeedPath.c_str());
      return 3;
    }
  }
  if (Tracer.droppedEvents())
    std::fprintf(stderr,
                 "warning: %llu trace events dropped (MaxEvents cap)\n",
                 static_cast<unsigned long long>(Tracer.droppedEvents()));
  return 0;
}

/// Fleet mode (--fleet=N): run N independent tenants through
/// harness::FleetRunner and print the aggregate JSON — and only the JSON —
/// on stdout, so `evm_cli --fleet 8 --threads T` can be diffed byte-for-
/// byte across thread counts.  Human-readable summary goes to stderr.
int runFleet(const CliOptions &Options) {
  harness::FleetConfig FC;
  FC.NumTenants = static_cast<size_t>(Options.FleetTenants);
  FC.NumThreads = static_cast<size_t>(Options.Threads);
  FC.RunsPerTenant = static_cast<size_t>(Options.FleetRuns);
  FC.MergeEvery = static_cast<size_t>(Options.MergeEvery);
  FC.Seed = Options.Seed;
  FC.ShardDir = Options.ShardDir;
  FC.CaptureDecisions = !Options.DecisionsOutPath.empty();

  if (!Options.FleetWorkloads.empty()) {
    FC.Workloads.clear();
    const std::vector<std::string> &Known = wl::workloadNames();
    for (const std::string &Name :
         splitString(Options.FleetWorkloads, ',')) {
      std::string W = trimString(Name);
      if (W.empty())
        continue;
      if (W != "route" &&
          std::find(Known.begin(), Known.end(), W) == Known.end()) {
        std::fprintf(stderr, "error: unknown fleet workload '%s'\n",
                     W.c_str());
        std::fprintf(stderr, "known: route");
        for (const std::string &K : Known)
          std::fprintf(stderr, ", %s", K.c_str());
        std::fprintf(stderr, "\n");
        return 2;
      }
      FC.Workloads.push_back(W);
    }
    if (FC.Workloads.empty()) {
      std::fprintf(stderr, "error: --fleet-workloads has no names\n");
      return 2;
    }
  }

  if (!FC.ShardDir.empty() && mkdir(FC.ShardDir.c_str(), 0777) != 0 &&
      errno != EEXIST) {
    std::fprintf(stderr, "error: cannot create shard dir %s\n",
                 FC.ShardDir.c_str());
    return 3;
  }

  harness::FleetRunner Runner(std::move(FC));
  TraceRecorder Tracer;
  if (Options.wantsTrace()) {
    Tracer.setEnabled(true);
    Runner.setTracer(&Tracer);
  }

  harness::FleetResult R = Runner.run();
  std::string Json = R.renderJson();
  Json += '\n';
  std::fputs(Json.c_str(), stdout);

  std::fprintf(stderr,
               "fleet: %zu tenants, %zu runs, %llu cycles; %zu shards "
               "merged into %zu global store%s\n",
               R.Tenants.size(), R.TotalRuns,
               static_cast<unsigned long long>(R.TotalCycles), R.ShardsMerged,
               R.GlobalStores, R.GlobalStores == 1 ? "" : "s");

  if (!Options.FleetOutPath.empty() &&
      !writeFile(Options.FleetOutPath, Json)) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.FleetOutPath.c_str());
    return 3;
  }
  if (!Options.MetricsOutPath.empty() &&
      !writeFile(Options.MetricsOutPath, R.Metrics.renderJson())) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.MetricsOutPath.c_str());
    return 3;
  }
  if (!Options.DecisionsOutPath.empty()) {
    LedgerProvenance Prov = ledgerProvenance();
    if (!writeFile(Options.DecisionsOutPath,
                   renderJsonlDecisions(R.Decisions, &Prov))) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Options.DecisionsOutPath.c_str());
      return 3;
    }
  }
  TraceMeta Meta;
  if (!Options.TraceOutPath.empty() &&
      !writeFile(Options.TraceOutPath,
                 renderChromeTrace(Tracer.exportOrder(), Meta))) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.TraceOutPath.c_str());
    return 3;
  }
  if (!Options.TraceJsonlPath.empty() &&
      !writeFile(Options.TraceJsonlPath,
                 renderJsonlTrace(Tracer.exportOrder(), Meta))) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Options.TraceJsonlPath.c_str());
    return 3;
  }
  return 0;
}

/// Built-in demo when invoked without files: the route example.
int runDemo(const CliOptions &Options) {
  std::printf("(no file arguments: running the built-in route demo; "
              "see -h)\n\n");
  wl::Workload Route = wl::buildRouteExample(7, 24);
  xicl::XFMethodRegistry Registry;
  Route.registerMethods(Registry);
  xicl::FileStore Files;
  Route.populateFileStore(Files);
  std::vector<RunLine> Runs;
  for (size_t R = 0; R != 16; ++R) {
    const wl::InputCase &In = Route.Inputs[(R * 5) % Route.Inputs.size()];
    Runs.push_back(RunLine{In.CommandLine, In.VmArgs});
  }
  return replay(Route.Module, Route.XiclSpec, Runs, Registry, Files,
                Options, Route.Name);
}

/// Generated-workload mode: synthesize an application + input stream from
/// a GenSpec and replay its drift-aware run order through the evolvable VM.
int runGenerated(const CliOptions &Options) {
  auto Spec = wl::parseGenSpec(Options.GenWorkloadSpec);
  if (!Spec) {
    std::fprintf(stderr, "error: %s\n", Spec.getError().message().c_str());
    return 2;
  }
  auto Generated = wl::generateWorkload(*Spec);
  if (!Generated) {
    std::fprintf(stderr, "generator error: %s\n",
                 Generated.getError().message().c_str());
    return 1;
  }
  const wl::GeneratedWorkload &G = *Generated;
  std::printf("generated workload %s: %s\n", G.W.Name.c_str(),
              wl::renderGenSpec(G.Spec).c_str());

  std::vector<size_t> Order = wl::makeGenRunOrder(
      G.Spec, static_cast<size_t>(Options.GenRuns));
  std::vector<RunLine> Runs;
  for (size_t Input : Order) {
    const wl::InputCase &In = G.W.Inputs[Input];
    Runs.push_back(RunLine{In.CommandLine, In.VmArgs});
  }

  xicl::XFMethodRegistry Registry;
  G.W.registerMethods(Registry);
  xicl::FileStore Files;
  G.W.populateFileStore(Files);
  return replay(G.W.Module, G.W.XiclSpec, Runs, Registry, Files, Options,
                G.W.Name);
}

/// Connects to an evm-served Unix-domain socket; -1 with \p Err set on
/// failure.
int connectDaemon(const std::string &Path, std::string &Err) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = formatString("socket: %s", std::strerror(errno));
    return -1;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + Path;
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = formatString("connect %s: %s", Path.c_str(), std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Client mode: sends a serial request stream to a running evm-served
/// daemon and prints one table row per response.  Requests come either
/// from --input-order=I,J,... (the daemon workload's built-in inputs) or
/// from one positional RUNS.txt (raw cmdline/args, same grammar as replay
/// mode).  Serial send-then-receive keeps the stream inside the daemon's
/// determinism pin: responses arrive in request order, byte-identical to
/// the equivalent batch launch.
int runConnect(const CliOptions &Options,
               const std::vector<std::string> &Positional) {
  std::vector<std::string> Requests;
  uint64_t NextId = 1;
  if (!Options.InputOrder.empty()) {
    if (!Positional.empty()) {
      std::fprintf(stderr, "error: --input-order conflicts with positional "
                           "file arguments\n");
      return ExitUsage;
    }
    for (const std::string &Tok : splitString(Options.InputOrder, ',')) {
      auto N = parseInteger(Tok);
      if (!N || *N < 0) {
        std::fprintf(stderr, "error: bad --input-order entry '%s'\n",
                     Tok.c_str());
        return ExitUsage;
      }
      Requests.push_back(server::renderRunInputRequest(
          NextId++, Options.ConnectApp, static_cast<uint64_t>(*N)));
    }
  } else if (Positional.size() == 1) {
    std::string RunsText;
    if (!readFile(Positional[0], RunsText)) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   Positional[0].c_str());
      return ExitIo;
    }
    bool Ok = true;
    std::vector<RunLine> Runs = parseRuns(RunsText, Ok);
    if (!Ok || Runs.empty()) {
      std::fprintf(stderr, "error: no usable runs\n");
      return ExitFailure;
    }
    for (const RunLine &R : Runs)
      Requests.push_back(server::renderRunRawRequest(
          NextId++, Options.ConnectApp, R.CommandLine, R.Args));
  } else {
    std::fprintf(stderr, "error: --connect needs --input-order=I,J,... or "
                         "one RUNS.txt positional argument\n");
    return ExitUsage;
  }

  std::string Err;
  int Fd = connectDaemon(Options.ConnectPath, Err);
  if (Fd < 0) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return ExitIo;
  }

  std::printf("%-4s %-10s %-5s %-5s %-10s %-7s %-9s %s\n", "id", "status",
              "run", "used", "conf", "acc", "cycles", "ret");
  size_t NumOk = 0, NumRejected = 0, NumErrors = 0;
  for (const std::string &Req : Requests) {
    if (!server::writeFrame(Fd, Req)) {
      std::fprintf(stderr, "error: request write failed\n");
      ::close(Fd);
      return ExitIo;
    }
    std::string Payload;
    server::FrameStatus S = server::readFrame(Fd, Payload, Err);
    if (S != server::FrameStatus::Ok) {
      std::fprintf(stderr, "error: %s\n",
                   S == server::FrameStatus::Eof ? "daemon closed the stream"
                                                 : Err.c_str());
      ::close(Fd);
      return ExitIo;
    }
    auto Doc = store::JsonValue::parse(Payload);
    if (!Doc || !Doc->isObject()) {
      std::fprintf(stderr, "error: malformed response frame\n");
      ::close(Fd);
      return ExitIo;
    }
    auto U64 = [&](const char *Name) -> unsigned long long {
      const store::JsonValue *F = Doc->field(Name);
      return F ? F->asU64() : 0;
    };
    auto Dbl = [&](const char *Name) {
      const store::JsonValue *F = Doc->field(Name);
      return F ? F->asDouble() : 0.0;
    };
    auto Str = [&](const char *Name) -> std::string {
      const store::JsonValue *F = Doc->field(Name);
      return F ? F->str() : std::string("?");
    };
    std::string Status = Str("status");
    if (Status == "ok") {
      ++NumOk;
      std::printf("%-4llu %-10s %-5llu %-5llu %-10.4f %-7.2f %-9llu %s\n",
                  U64("id"), Status.c_str(), U64("run"), U64("used"),
                  Dbl("conf_after"), Dbl("acc"), U64("cycles"),
                  Str("ret").c_str());
    } else if (Status == "rejected") {
      ++NumRejected;
      std::printf("%-4llu %-10s %s\n", U64("id"), Status.c_str(),
                  Str("reason").c_str());
    } else {
      ++NumErrors;
      std::printf("%-4llu %-10s %s\n", U64("id"), Status.c_str(),
                  Str("error").c_str());
    }
  }
  ::close(Fd);
  std::fprintf(stderr, "%zu ok, %zu rejected, %zu errors\n", NumOk,
               NumRejected, NumErrors);
  return (NumRejected || NumErrors) ? ExitFailure : ExitSuccess;
}

void printUsage(const char *Argv0, std::FILE *To) {
  std::fprintf(To, "usage: %s [options] PROGRAM.evm SPEC.xicl RUNS.txt\n",
               Argv0);
  std::fprintf(To, "       %s [options]      (built-in demo)\n", Argv0);
  std::fprintf(
      To,
      "observability options:\n"
      "  --trace-out=FILE           Chrome trace_event JSON of all runs\n"
      "                             (chrome://tracing / ui.perfetto.dev)\n"
      "  --trace-jsonl=FILE         raw event stream, one JSON object per\n"
      "                             line (input of tools/evm-trace)\n"
      "  --metrics-out=FILE         final run's metrics snapshot as JSON\n"
      "  --profile-out=FILE         phase-profile JSON (phases + metrics;\n"
      "                             input of tools/evm-prof)\n"
      "  --profile-collapsed=FILE   collapsed stacks (flamegraph.pl)\n"
      "  --profile-speedscope=FILE  speedscope JSON (speedscope.app)\n"
      "  --decisions-out=FILE       prediction decision ledger, one JSON\n"
      "                             object per run (input of\n"
      "                             tools/evm-explain); works in replay and\n"
      "                             fleet mode (per-tenant ledgers folded\n"
      "                             in tenant-ID order)\n"
      "  --version                  print build provenance JSON (git SHA,\n"
      "                             compiler, build type) and exit\n"
      "knowledge-store options:\n"
      "  --store=FILE               cross-run knowledge store: warm-start\n"
      "                             the VM from FILE before the first run\n"
      "                             and checkpoint back into it afterwards\n"
      "                             (missing file = cold start; damaged\n"
      "                             file = recover what survived)\n"
      "  --store-readonly           warm-start only, never write the store\n"
      "  --store-reset              delete the store file first (fresh\n"
      "                             cold start), then proceed as --store\n"
      "generated-workload mode (value options also accept `--opt VALUE`):\n"
      "  --gen-workload=SPEC        synthesize an open-world application +\n"
      "                             input stream from a comma-separated\n"
      "                             key=value GenSpec (keys: seed hot cold\n"
      "                             depth fanout loops inputs runs minwork\n"
      "                             maxwork coupling drift driftat scalea\n"
      "                             scaleb; drift: none|flip|walk) and\n"
      "                             replay its drift-aware run order\n"
      "  --gen-runs=N               override the spec's run-stream length\n"
      "fleet mode (aggregate JSON on stdout, summary on stderr; all value\n"
      "options also accept the two-token form `--opt VALUE`):\n"
      "  --fleet=N                  run N independent tenants in parallel\n"
      "                             (ignores the positional file arguments)\n"
      "  --threads=T                worker threads (default 1); any T gives\n"
      "                             byte-identical aggregate JSON\n"
      "  --fleet-runs=R             production runs per tenant (default 12)\n"
      "  --fleet-workloads=A,B,...  workload mix, tenant i runs entry\n"
      "                             i %% count; names from the paper's\n"
      "                             benchmarks plus 'route' (default)\n"
      "  --shard-dir=DIR            per-tenant shard stores + per-app\n"
      "                             global stores live here (created if\n"
      "                             missing); omit for a storeless fleet\n"
      "  --merge-every=R            checkpoint each tenant's shard every R\n"
      "                             runs (default 0 = once at the end)\n"
      "  --seed=S                   fleet seed (default 1)\n"
      "  --fleet-out=FILE           also write the aggregate JSON to FILE\n"
      "client mode (talks to a running tools/evm-served daemon; all value\n"
      "options also accept the two-token form `--opt VALUE`):\n"
      "  --connect=SOCKET           send requests to the daemon listening\n"
      "                             on this Unix socket, one table row per\n"
      "                             response\n"
      "  --app=NAME[:K]             daemon lane to run on (a workload name\n"
      "                             plus optional instance; default route)\n"
      "  --input-order=I,J,...      request the lane workload's built-in\n"
      "                             inputs in this order; alternatively one\n"
      "                             positional RUNS.txt sends raw\n"
      "                             cmdline/args lines\n"
      "exit codes: 0 success; 1 scenario failure (assembly error, unusable\n"
      "runs, trapped run); 2 usage error; 3 file I/O error (unreadable or\n"
      "unwritable input, output, or store file)\n");
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Options;
  std::vector<std::string> Positional;
  bool FleetFlagSeen = false;
  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    std::string Val;
    bool HasVal = false;
    if (Arg == "-h" || Arg == "--help") {
      printUsage(argv[0], stdout);
      return 0;
    }
    if (Arg == "--version") {
      std::printf("%s\n", buildInfo().renderJson().c_str());
      return 0;
    }
    if (matchValueFlag(Arg, "--gen-workload", argc, argv, I, Val, HasVal)) {
      if (!parseStringOption("--gen-workload", Val, HasVal,
                             "a key=value,... spec",
                             Options.GenWorkloadSpec))
        return 2;
    } else if (matchValueFlag(Arg, "--gen-runs", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--gen-runs", Val, HasVal, 1, Options.GenRuns))
        return 2;
    } else if (matchValueFlag(Arg, "--fleet", argc, argv, I, Val, HasVal)) {
      if (!parseIntOption("--fleet", Val, HasVal, 1, Options.FleetTenants))
        return 2;
    } else if (matchValueFlag(Arg, "--threads", argc, argv, I, Val, HasVal)) {
      if (!parseIntOption("--threads", Val, HasVal, 1, Options.Threads))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--fleet-runs", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--fleet-runs", Val, HasVal, 1, Options.FleetRuns))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--merge-every", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--merge-every", Val, HasVal, 0,
                          Options.MergeEvery))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--seed", argc, argv, I, Val, HasVal)) {
      int64_t S = 0;
      if (!parseIntOption("--seed", Val, HasVal, 0, S))
        return 2;
      Options.Seed = static_cast<uint64_t>(S);
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--shard-dir", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--shard-dir", Val, HasVal, "a directory",
                             Options.ShardDir))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--fleet-workloads", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--fleet-workloads", Val, HasVal, "names",
                             Options.FleetWorkloads))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--fleet-out", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--fleet-out", Val, HasVal, "a file",
                             Options.FleetOutPath))
        return 2;
      FleetFlagSeen = true;
    } else if (matchValueFlag(Arg, "--connect", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--connect", Val, HasVal, "a socket path",
                             Options.ConnectPath))
        return 2;
    } else if (matchValueFlag(Arg, "--app", argc, argv, I, Val, HasVal)) {
      if (!parseStringOption("--app", Val, HasVal, "a lane id",
                             Options.ConnectApp))
        return 2;
    } else if (matchValueFlag(Arg, "--input-order", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--input-order", Val, HasVal,
                             "a comma-separated index list",
                             Options.InputOrder))
        return 2;
    } else if (Arg.rfind("--trace-out=", 0) == 0) {
      Options.TraceOutPath = Arg.substr(12);
    } else if (Arg.rfind("--trace-jsonl=", 0) == 0) {
      Options.TraceJsonlPath = Arg.substr(14);
    } else if (Arg.rfind("--metrics-out=", 0) == 0) {
      Options.MetricsOutPath = Arg.substr(14);
    } else if (Arg.rfind("--profile-out=", 0) == 0) {
      Options.ProfileOutPath = Arg.substr(14);
    } else if (Arg.rfind("--profile-collapsed=", 0) == 0) {
      Options.ProfileFoldPath = Arg.substr(20);
    } else if (Arg.rfind("--profile-speedscope=", 0) == 0) {
      Options.ProfileSpeedPath = Arg.substr(21);
    } else if (matchValueFlag(Arg, "--decisions-out", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--decisions-out", Val, HasVal, "a file",
                             Options.DecisionsOutPath))
        return 2;
    } else if (Arg.rfind("--store=", 0) == 0) {
      Options.StorePath = Arg.substr(8);
    } else if (Arg == "--store-readonly") {
      Options.StoreReadonly = true;
    } else if (Arg == "--store-reset") {
      Options.StoreReset = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0], stderr);
      return 2;
    } else {
      Positional.push_back(Arg);
    }
  }

  if ((Options.StoreReadonly || Options.StoreReset) &&
      Options.StorePath.empty()) {
    std::fprintf(stderr, "error: --store-readonly/--store-reset need "
                         "--store=FILE\n");
    return 2;
  }
  if (Options.StoreReadonly && Options.StoreReset) {
    std::fprintf(stderr,
                 "error: --store-readonly and --store-reset conflict\n");
    return 2;
  }

  if (!Options.ConnectPath.empty()) {
    if (Options.FleetTenants > 0 || FleetFlagSeen ||
        !Options.GenWorkloadSpec.empty()) {
      std::fprintf(stderr,
                   "error: --connect conflicts with fleet/gen modes\n");
      return 2;
    }
    if (!Options.StorePath.empty() || Options.wantsTrace() ||
        Options.wantsProfile()) {
      std::fprintf(stderr, "error: --connect runs on the daemon; local "
                           "store/trace/profile outputs conflict\n");
      return 2;
    }
    return runConnect(Options, Positional);
  }
  if (!Options.InputOrder.empty()) {
    std::fprintf(stderr, "error: --input-order needs --connect=SOCKET\n");
    return 2;
  }

  if (Options.GenRuns > 0 && Options.GenWorkloadSpec.empty()) {
    std::fprintf(stderr, "error: --gen-runs needs --gen-workload=SPEC\n");
    return 2;
  }
  if (!Options.GenWorkloadSpec.empty()) {
    if (Options.FleetTenants > 0 || FleetFlagSeen) {
      std::fprintf(stderr,
                   "error: --gen-workload conflicts with fleet mode\n");
      return 2;
    }
    if (!Positional.empty()) {
      std::fprintf(stderr, "error: --gen-workload synthesizes its program "
                           "and runs; positional file arguments conflict\n");
      return 2;
    }
    return runGenerated(Options);
  }

  if (Options.FleetTenants > 0) {
    if (!Positional.empty()) {
      std::fprintf(stderr, "error: --fleet runs built-in workloads; "
                           "positional file arguments conflict\n");
      return 2;
    }
    if (!Options.StorePath.empty()) {
      std::fprintf(stderr,
                   "error: --store conflicts with --fleet (use "
                   "--shard-dir=DIR for fleet persistence)\n");
      return 2;
    }
    if (Options.wantsProfile()) {
      std::fprintf(stderr, "error: --profile-* outputs are not supported "
                           "in fleet mode (per-tenant phase trees are "
                           "embedded in the aggregate JSON)\n");
      return 2;
    }
    return runFleet(Options);
  }
  if (FleetFlagSeen) {
    std::fprintf(stderr, "error: fleet options need --fleet=N\n");
    return 2;
  }

  if (Positional.empty())
    return runDemo(Options);
  if (Positional.size() != 3) {
    printUsage(argv[0], stderr);
    return 2;
  }

  std::string AsmText, SpecText, RunsText;
  if (!readFile(Positional[0], AsmText) ||
      !readFile(Positional[1], SpecText) ||
      !readFile(Positional[2], RunsText)) {
    std::fprintf(stderr, "error: cannot read input files\n");
    return 3;
  }

  auto Program = bc::assembleModule(AsmText);
  if (!Program) {
    std::fprintf(stderr, "assembly error: %s\n",
                 Program.getError().message().c_str());
    return 1;
  }
  bool Ok = true;
  std::vector<RunLine> Runs = parseRuns(RunsText, Ok);
  if (!Ok || Runs.empty()) {
    std::fprintf(stderr, "error: no usable runs\n");
    return 1;
  }

  // File-typed features read from a FileStore; a standalone CLI has no
  // metadata source, so file features resolve to 0 unless the program
  // relies only on predefined val/len attrs.
  xicl::XFMethodRegistry Registry;
  xicl::FileStore Files;
  return replay(*Program, SpecText, Runs, Registry, Files, Options);
}
