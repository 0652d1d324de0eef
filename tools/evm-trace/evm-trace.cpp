//===- tools/evm-trace/evm-trace.cpp - Trace timeline analyser ------------==//
//
// Offline analysis over a JSONL trace produced with --trace-jsonl= (or by
// renderJsonlTrace):
//
//   evm-trace [REPORT...] TRACE.jsonl
//
// Reports (default: all three):
//
//   --timeline   per-run, per-method tier timeline (level transitions at
//                their virtual cycles, invocation/sample totals)
//   --compiles   compile-pipeline accounting (installs and the cycles
//                their compiles stalled the application, per run)
//   --evolve     Evolve-vs-reactive diff (predictions next to recompile
//                counts; recompilations avoided, cycles at optimized level
//                gained)
//
// The reports are plain text, deterministic for a deterministic trace, and
// covered by tests/test_trace.cpp.
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"
#include "support/TraceAnalysis.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace evm;

namespace {

void printUsage(const char *Argv0, std::FILE *To) {
  std::fprintf(To,
               "usage: %s [--timeline] [--compiles] [--evolve] TRACE.jsonl\n"
               "Analyses a JSONL VM trace (evm_cli --trace-jsonl=FILE).\n"
               "With no report flags, prints all three reports.\n"
               "--version prints build provenance JSON and exits.\n",
               Argv0);
}

} // namespace

int main(int argc, char **argv) {
  bool Timeline = false, Compiles = false, Evolve = false;
  std::string Path;
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
    if (Arg == "--timeline") {
      Timeline = true;
    } else if (Arg == "--compiles") {
      Compiles = true;
    } else if (Arg == "--evolve") {
      Evolve = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0], stderr);
      return 2;
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      std::fprintf(stderr, "error: more than one trace file\n");
      return 2;
    }
  }
  if (Path.empty()) {
    printUsage(argv[0], stderr);
    return 2;
  }
  if (!Timeline && !Compiles && !Evolve)
    Timeline = Compiles = Evolve = true;

  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream) {
    std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
    return 2;
  }
  std::stringstream Buffer;
  Buffer << Stream.rdbuf();

  auto Trace = parseJsonlTrace(Buffer.str());
  if (!Trace) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(),
                 Trace.getError().message().c_str());
    return 1;
  }
  ParsedTrace Parsed = Trace.takeValue();
  std::printf("%s: %zu events, %zu runs\n", Path.c_str(),
              Parsed.Events.size(), Parsed.Runs.size());

  if (Timeline)
    std::printf("\n%s", renderTierTimeline(Parsed).c_str());
  if (Compiles)
    std::printf("\n%s", renderCompileAccounting(Parsed).c_str());
  if (Evolve)
    std::printf("\n%s", renderEvolveDiff(Parsed).c_str());
  return 0;
}
