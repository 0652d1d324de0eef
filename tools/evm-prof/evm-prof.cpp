//===- tools/evm-prof/evm-prof.cpp - Phase-profile analyser ---------------==//
//
// Offline analysis over a phase-profile document produced with
// evm_cli --profile-out= or embedded in a bench --json document:
//
//   evm-prof [REPORT...] PROFILE.json [PROFILE2.json]
//
// Reports (default: --top):
//
//   --top=N          top-N phases by exclusive cycles, with %-of-total
//   --overhead[=PCT] the paper's self-overhead check: XICL characterization
//                    + prediction cycles as a percentage of the run total;
//                    exits 1 when the percentage is >= PCT (default 1.0)
//   --diff           phase-by-phase cycle diff of two profiles (e.g.
//                    reactive vs Evolve)
//   --flame          emit flamegraph.pl-compatible collapsed stacks
//   --speedscope     emit speedscope JSON (open at https://speedscope.app)
//   --latency        phase-latency percentiles (p50/p90/p99) from the
//                    histogram metrics embedded in the document
//
// Deterministic output for deterministic profiles; covered by
// tests/test_profiler.cpp and the perf-smoke ctest.
//
//===----------------------------------------------------------------------===//

#include "support/BuildInfo.h"
#include "support/Profiler.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace evm;

namespace {

void printUsage(const char *Argv0, std::FILE *To) {
  std::fprintf(
      To,
      "usage: %s [REPORT...] PROFILE.json [PROFILE2.json]\n"
      "Analyses a phase-profile document (evm_cli --profile-out=FILE or a\n"
      "bench --json document).  Reports (default: --top=20):\n"
      "  --top=N          top-N phases by exclusive cycles\n"
      "  --overhead[=PCT] xicl characterize + ml predict cycles as %% of the\n"
      "                   run total; exit 1 when >= PCT (default 1.0)\n"
      "  --diff           phase-by-phase diff (requires two profiles)\n"
      "  --flame          emit collapsed stacks (flamegraph.pl format)\n"
      "  --speedscope     emit speedscope JSON\n"
      "  --latency        p50/p90/p99 of embedded histogram metrics\n"
      "  --version        print build provenance JSON and exit\n",
      Argv0);
}

bool readFileInto(const std::string &Path, std::string &Out) {
  std::ifstream Stream(Path, std::ios::binary);
  if (!Stream)
    return false;
  std::stringstream Buffer;
  Buffer << Stream.rdbuf();
  Out = Buffer.str();
  return true;
}

/// One embedded histogram metric (see MetricsSnapshot::renderJson).
struct HistogramMetric {
  std::string Name;
  uint64_t Count = 0;
  double P50 = 0, P90 = 0, P99 = 0;
};

/// Pulls "kind":"histogram" entries out of an embedded metrics rendering.
/// Lenient by design (same spirit as parsePhaseTreeJson): objects missing
/// the expected keys are skipped, not errors.
std::vector<HistogramMetric> parseHistograms(const std::string &Text) {
  std::vector<HistogramMetric> Out;
  size_t At = 0;
  while ((At = Text.find("\"kind\":\"histogram\"", At)) != std::string::npos) {
    size_t Open = Text.rfind('{', At);
    size_t Close = Text.find('}', At);
    if (Open == std::string::npos || Close == std::string::npos)
      break;
    std::string Obj = Text.substr(Open, Close - Open + 1);
    HistogramMetric H;
    auto field = [&](const char *Key) -> std::string {
      std::string Needle = std::string("\"") + Key + "\":";
      size_t F = Obj.find(Needle);
      if (F == std::string::npos)
        return "";
      F += Needle.size();
      size_t End = Obj.find_first_of(",}", F);
      return Obj.substr(F, End - F);
    };
    std::string Name = field("name");
    if (Name.size() >= 2 && Name.front() == '"' && Name.back() == '"') {
      H.Name = Name.substr(1, Name.size() - 2);
      H.Count = static_cast<uint64_t>(std::strtoull(field("count").c_str(),
                                                    nullptr, 10));
      H.P50 = std::strtod(field("p50").c_str(), nullptr);
      H.P90 = std::strtod(field("p90").c_str(), nullptr);
      H.P99 = std::strtod(field("p99").c_str(), nullptr);
      Out.push_back(std::move(H));
    }
    At = Close;
  }
  return Out;
}

uint64_t totalCycles(const PhaseTreeSnapshot &Snap) {
  uint64_t Total = 0;
  for (const PhaseTreeSnapshot::Entry &E : Snap.entries())
    Total += E.Cycles;
  return Total;
}

int reportTop(const PhaseTreeSnapshot &Snap, size_t N) {
  std::vector<PhaseTreeSnapshot::Entry> Sorted = Snap.entries();
  std::sort(Sorted.begin(), Sorted.end(),
            [](const PhaseTreeSnapshot::Entry &A,
               const PhaseTreeSnapshot::Entry &B) {
              if (A.Cycles != B.Cycles)
                return A.Cycles > B.Cycles;
              return A.Stack < B.Stack;
            });
  uint64_t Total = totalCycles(Snap);
  uint64_t RunTotal = Snap.totalUnder("run");
  TextTable Table({"phase", "cycles", "% total", "count"});
  size_t Shown = 0;
  for (const PhaseTreeSnapshot::Entry &E : Sorted) {
    if (E.Cycles == 0 || Shown == N)
      break;
    Table.beginRow();
    Table.addCell(E.Stack);
    Table.addCell(static_cast<int64_t>(E.Cycles));
    Table.addCell(Total ? 100.0 * static_cast<double>(E.Cycles) /
                              static_cast<double>(Total)
                        : 0.0,
                  2);
    Table.addCell(static_cast<int64_t>(E.Count));
    ++Shown;
  }
  std::printf("total attributed cycles: %llu (run subtree: %llu)\n\n",
              static_cast<unsigned long long>(Total),
              static_cast<unsigned long long>(RunTotal));
  std::printf("%s", Table.render().c_str());
  return 0;
}

int reportOverhead(const PhaseTreeSnapshot &Snap, double ThresholdPct) {
  uint64_t RunTotal = Snap.totalUnder("run");
  uint64_t Characterize = Snap.totalUnder("run;overhead;xicl/characterize");
  uint64_t Predict = Snap.totalUnder("run;overhead;ml/predict");
  uint64_t Residual = Snap.totalUnder("run;overhead") - Characterize - Predict;
  if (RunTotal == 0) {
    std::fprintf(stderr, "error: profile has no cycles under \"run\"\n");
    return 3;
  }
  double Pct = [&](uint64_t C) {
    return 100.0 * static_cast<double>(C) / static_cast<double>(RunTotal);
  }(Characterize + Predict);
  TextTable Table({"component", "cycles", "% of run"});
  auto row = [&](const char *Name, uint64_t C) {
    Table.beginRow();
    Table.addCell(std::string(Name));
    Table.addCell(static_cast<int64_t>(C));
    Table.addCell(100.0 * static_cast<double>(C) /
                      static_cast<double>(RunTotal),
                  4);
  };
  row("xicl/characterize", Characterize);
  row("ml/predict", Predict);
  row("other overhead", Residual);
  std::printf("%s\n", Table.render().c_str());
  std::printf("self-overhead (characterize + predict): %.4f%% of %llu run "
              "cycles (threshold %.2f%%): %s\n",
              Pct, static_cast<unsigned long long>(RunTotal), ThresholdPct,
              Pct < ThresholdPct ? "OK" : "EXCEEDED");
  return Pct < ThresholdPct ? 0 : 1;
}

int reportDiff(const PhaseTreeSnapshot &A, const PhaseTreeSnapshot &B,
               const std::string &NameA, const std::string &NameB) {
  std::map<std::string, std::pair<uint64_t, uint64_t>> Rows;
  for (const PhaseTreeSnapshot::Entry &E : A.entries())
    Rows[E.Stack].first = E.Cycles;
  for (const PhaseTreeSnapshot::Entry &E : B.entries())
    Rows[E.Stack].second = E.Cycles;
  TextTable Table({"phase", NameA, NameB, "delta"});
  for (const auto &[Stack, Cycles] : Rows) {
    if (Cycles.first == 0 && Cycles.second == 0)
      continue;
    Table.beginRow();
    Table.addCell(Stack);
    Table.addCell(static_cast<int64_t>(Cycles.first));
    Table.addCell(static_cast<int64_t>(Cycles.second));
    Table.addCell(static_cast<int64_t>(Cycles.second) -
                  static_cast<int64_t>(Cycles.first));
  }
  std::printf("%s", Table.render().c_str());
  std::printf("\ntotal: %llu -> %llu (run subtree: %llu -> %llu)\n",
              static_cast<unsigned long long>(totalCycles(A)),
              static_cast<unsigned long long>(totalCycles(B)),
              static_cast<unsigned long long>(A.totalUnder("run")),
              static_cast<unsigned long long>(B.totalUnder("run")));
  return 0;
}

int reportLatency(const std::string &Document) {
  std::vector<HistogramMetric> Hists = parseHistograms(Document);
  if (Hists.empty()) {
    std::printf("no histogram metrics embedded in the document\n");
    return 0;
  }
  TextTable Table({"histogram", "count", "p50", "p90", "p99"});
  for (const HistogramMetric &H : Hists) {
    Table.beginRow();
    Table.addCell(H.Name);
    Table.addCell(static_cast<int64_t>(H.Count));
    Table.addCell(H.P50, 1);
    Table.addCell(H.P90, 1);
    Table.addCell(H.P99, 1);
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool Top = false, Overhead = false, Diff = false, Flame = false;
  bool Speedscope = false, Latency = false;
  size_t TopN = 20;
  double OverheadPct = 1.0;
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
    if (Arg == "--top" || startsWith(Arg, "--top=")) {
      Top = true;
      if (startsWith(Arg, "--top=")) {
        auto N = parseInteger(Arg.substr(6));
        if (!N || *N <= 0) {
          std::fprintf(stderr, "error: bad --top count '%s'\n", Arg.c_str());
          return 2;
        }
        TopN = static_cast<size_t>(*N);
      }
    } else if (Arg == "--overhead" || startsWith(Arg, "--overhead=")) {
      Overhead = true;
      if (startsWith(Arg, "--overhead=")) {
        char *End = nullptr;
        OverheadPct = std::strtod(Arg.c_str() + 11, &End);
        if (End == Arg.c_str() + 11 || *End != '\0' || OverheadPct <= 0) {
          std::fprintf(stderr, "error: bad --overhead threshold '%s'\n",
                       Arg.c_str());
          return 2;
        }
      }
    } else if (Arg == "--diff") {
      Diff = true;
    } else if (Arg == "--flame") {
      Flame = true;
    } else if (Arg == "--speedscope") {
      Speedscope = true;
    } else if (Arg == "--latency") {
      Latency = true;
    } else if (startsWith(Arg, "--")) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(argv[0], stderr);
      return 2;
    } else {
      Paths.push_back(Arg);
    }
  }

  if (!Top && !Overhead && !Diff && !Flame && !Speedscope && !Latency)
    Top = true;
  // --latency reads embedded metrics, not the phase tree, so a document
  // without parsable phases (one that carries only metrics) is fine as long
  // as no phase-based report was requested.
  bool NeedPhases = Top || Overhead || Diff || Flame || Speedscope;
  size_t Needed = Diff ? 2 : 1;
  if (Paths.size() != Needed) {
    std::fprintf(stderr, "error: expected %zu profile file%s, got %zu\n",
                 Needed, Needed == 1 ? "" : "s", Paths.size());
    printUsage(argv[0], stderr);
    return 2;
  }

  std::vector<std::string> Documents(Paths.size());
  std::vector<PhaseTreeSnapshot> Snaps(Paths.size());
  for (size_t I = 0; I != Paths.size(); ++I) {
    if (!readFileInto(Paths[I], Documents[I])) {
      std::fprintf(stderr, "error: cannot read %s\n", Paths[I].c_str());
      return 3;
    }
    auto Snap = parsePhaseTreeJson(Documents[I]);
    if (!Snap) {
      if (NeedPhases) {
        std::fprintf(stderr, "error: %s: %s\n", Paths[I].c_str(),
                     Snap.getError().message().c_str());
        return 3;
      }
      continue; // metrics-only report over a phase-less document
    }
    Snaps[I] = Snap.takeValue();
  }

  int Exit = 0;
  if (Flame)
    std::printf("%s", Snaps[0].renderCollapsed().c_str());
  if (Speedscope)
    std::printf("%s\n", Snaps[0].renderSpeedscope(Paths[0]).c_str());
  if (Top)
    Exit = std::max(Exit, reportTop(Snaps[0], TopN));
  if (Latency)
    Exit = std::max(Exit, reportLatency(Documents[0]));
  if (Diff)
    Exit = std::max(Exit, reportDiff(Snaps[0], Snaps[1], Paths[0], Paths[1]));
  if (Overhead)
    Exit = std::max(Exit, reportOverhead(Snaps[0], OverheadPct));
  return Exit;
}
