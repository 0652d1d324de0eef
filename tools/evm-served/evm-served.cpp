//===- tools/evm-served.cpp - The online prediction daemon ----------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the PredictionServer as a foreground daemon: bind the Unix socket,
/// serve until SIGTERM/SIGINT, then drain gracefully — complete every
/// admitted request, publish final lane checkpoints, fold the global
/// stores — and exit with the drain status (0 ok, 3 when a final store
/// fold failed).  The socket file appearing is the readiness signal;
/// removing it on exit is part of the drain.
///
/// Clients: `evm_cli --connect=SOCKET` (serial request stream, table
/// output) or anything speaking server/Protocol.h frames.
///
//===----------------------------------------------------------------------===//

#include "server/PredictionServer.h"
#include "support/ArgParse.h"
#include "support/BuildInfo.h"

#include <csignal>
#include <cstdio>
#include <fstream>

#include <pthread.h>
#include <unistd.h>

using namespace evm;

namespace {

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Stream(Path, std::ios::binary);
  if (!Stream)
    return false;
  Stream << Text;
  return static_cast<bool>(Stream);
}

void printUsage(const char *Argv0, std::FILE *To) {
  std::fprintf(
      To,
      "usage: %s --socket=PATH [options]\n"
      "serve online prediction requests over a Unix-domain socket until\n"
      "SIGTERM/SIGINT, then drain: finish admitted requests, publish final\n"
      "lane checkpoints, fold global stores, remove the socket\n"
      "options (value options also accept the two-token form `--opt V`):\n"
      "  --socket=PATH         listening Unix socket (required; the file\n"
      "                        appearing signals readiness)\n"
      "  --store-dir=DIR       persist lane shard stores + per-app global\n"
      "                        stores here (fleet-compatible layout; omit\n"
      "                        for a memory-only service)\n"
      "  --lanes=N             max distinct app lanes (default 8)\n"
      "  --max-queue=N         admitted-but-unanswered bound; beyond it\n"
      "                        requests get explicit 'overload' rejections\n"
      "                        (default 256)\n"
      "  --max-inflight=N      per-client in-flight bound (default 64)\n"
      "  --checkpoint-every=N  publish lane checkpoints every N runs\n"
      "                        (default 0 = only at drain)\n"
      "  --seed=S              workload build seed (default 1)\n"
      "  --metrics-out=FILE    final server.* metrics snapshot JSON\n"
      "  --decisions-out=FILE  decision ledger JSONL (runs + rejected\n"
      "                        requests; input of tools/evm-explain)\n"
      "  --version             print build provenance JSON and exit\n"
      "exit codes: 0 clean drain; 2 usage error; 3 socket/store failure\n",
      Argv0);
}

} // namespace

int main(int argc, char **argv) {
  server::ServerConfig Config;
  std::string MetricsOut, DecisionsOut;
  int64_t Lanes = 8, MaxQueue = 256, MaxInflight = 64, CheckpointEvery = 0;
  int64_t Seed = 1;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    std::string Val;
    bool HasVal = false;
    if (Arg == "-h" || Arg == "--help") {
      printUsage(argv[0], stdout);
      return ExitSuccess;
    }
    if (Arg == "--version") {
      std::printf("%s\n", buildInfo().renderJson().c_str());
      return ExitSuccess;
    }
    if (matchValueFlag(Arg, "--socket", argc, argv, I, Val, HasVal)) {
      if (!parseStringOption("--socket", Val, HasVal, "a path",
                             Config.SocketPath))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--store-dir", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--store-dir", Val, HasVal, "a directory",
                             Config.StoreDir))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--lanes", argc, argv, I, Val, HasVal)) {
      if (!parseIntOption("--lanes", Val, HasVal, 1, Lanes))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--max-queue", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--max-queue", Val, HasVal, 1, MaxQueue))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--max-inflight", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--max-inflight", Val, HasVal, 1, MaxInflight))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--checkpoint-every", argc, argv, I, Val,
                              HasVal)) {
      if (!parseIntOption("--checkpoint-every", Val, HasVal, 0,
                          CheckpointEvery))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--seed", argc, argv, I, Val, HasVal)) {
      if (!parseIntOption("--seed", Val, HasVal, 0, Seed))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--metrics-out", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--metrics-out", Val, HasVal, "a file",
                             MetricsOut))
        return ExitUsage;
    } else if (matchValueFlag(Arg, "--decisions-out", argc, argv, I, Val,
                              HasVal)) {
      if (!parseStringOption("--decisions-out", Val, HasVal, "a file",
                             DecisionsOut))
        return ExitUsage;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0], stderr);
      return ExitUsage;
    }
  }
  if (Config.SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket=PATH is required\n");
    printUsage(argv[0], stderr);
    return ExitUsage;
  }

  Config.Seed = static_cast<uint64_t>(Seed);
  Config.MaxLanes = static_cast<size_t>(Lanes);
  Config.MaxQueue = static_cast<size_t>(MaxQueue);
  Config.MaxInflightPerClient = static_cast<size_t>(MaxInflight);
  Config.CheckpointEvery = static_cast<size_t>(CheckpointEvery);
  Config.CaptureDecisions = !DecisionsOut.empty();

  // Block SIGTERM and SIGINT before start(), so every server thread
  // inherits the mask and the signal stays pending until sigwait below
  // takes it.  The socket file appears at bind, inside start(), and a
  // supervisor may stop the daemon the moment it sees the file.
  sigset_t StopSignals;
  sigemptyset(&StopSignals);
  sigaddset(&StopSignals, SIGTERM);
  sigaddset(&StopSignals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &StopSignals, nullptr);
  std::signal(SIGPIPE, SIG_IGN); // client hangups surface as write errors
  server::PredictionServer Server(Config);
  if (!Server.start()) {
    std::fprintf(stderr, "error: %s\n", Server.error().c_str());
    return ExitIo;
  }
  std::fprintf(stderr, "evm-served: listening on %s (pid %d)\n",
               Config.SocketPath.c_str(), static_cast<int>(getpid()));

  int Signal = 0;
  sigwait(&StopSignals, &Signal);

  std::fprintf(stderr, "evm-served: draining\n");
  Server.requestDrain();
  int Rc = Server.drainAndWait();

  if (!MetricsOut.empty() &&
      !writeFile(MetricsOut, Server.metricsSnapshot().renderJson() + "\n")) {
    std::fprintf(stderr, "error: cannot write '%s'\n", MetricsOut.c_str());
    Rc = ExitIo;
  }
  if (!DecisionsOut.empty()) {
    const BuildInfo &B = buildInfo();
    LedgerProvenance P;
    P.GitSha = B.GitSha;
    P.Compiler = B.Compiler;
    P.CompilerVersion = B.CompilerVersion;
    P.BuildType = B.BuildType;
    if (!writeFile(DecisionsOut,
                   renderJsonlDecisions(Server.decisions(), &P))) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   DecisionsOut.c_str());
      Rc = ExitIo;
    }
  }
  std::fprintf(stderr, "evm-served: drained (exit %d)\n", Rc);
  return Rc;
}
