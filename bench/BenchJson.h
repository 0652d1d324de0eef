//===- bench/BenchJson.h - Shared --json=PATH support for bench_* ---------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench binary accepts `--json=PATH` and writes its headline numbers
/// machine-readably next to the human tables:
///
///   {"bench":"<name>","seed":<seed>,"metrics":[...],"phases":[...]}
///
/// where the metrics array is a support/Metrics.h snapshot and the optional
/// phases array is a support/Profiler.h phase tree (tools/evm-prof reads
/// either a bench document or evm_cli --profile-out output).  Benches that
/// loop additionally record per-iteration series (BenchSeries) which land
/// as a "series" array: raw samples plus the support/Stats.h steady-state
/// analysis (changepoints, classification, steady mean with bootstrap CI)
/// that tools/bench-compare gates interval-aware and tools/evm-warmup
/// reports on.  bench/run_all.sh aggregates all of these into
/// BENCH_results.json.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_BENCH_BENCHJSON_H
#define EVM_BENCH_BENCHJSON_H

#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Stats.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace evm {
namespace benchjson {

/// One per-iteration sample series a bench wants analyzed and embedded in
/// its JSON document.  Samples are in iteration order; Unit names what one
/// sample measures ("cycles", "speedup", ...).
struct BenchSeries {
  std::string Name;
  std::string Unit = "cycles";
  bool LowerIsBetter = true;
  std::vector<double> Samples;
};

/// Renders the "series" array: each entry is the raw series plus its
/// steady-state analysis (support/Stats.h), so documents are self-describing
/// for bench-compare and evm-warmup.
inline std::string renderSeriesArray(const std::vector<BenchSeries> &Series) {
  std::string Out = "\"series\":[";
  for (size_t I = 0; I != Series.size(); ++I) {
    const BenchSeries &S = Series[I];
    SeriesOptions Opts;
    Opts.LowerIsBetter = S.LowerIsBetter;
    if (I)
      Out += ',';
    Out += renderSeriesJson(S.Name, S.Unit, S.LowerIsBetter, S.Samples,
                            analyzeSeries(S.Samples, Opts));
  }
  Out += ']';
  return Out;
}

/// Removes `--json=PATH` from argv (compacting it) and returns the path,
/// or "" when the flag is absent.
inline std::string extractJsonFlag(int &argc, char **argv) {
  std::string Path;
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--json=", 0) == 0)
      Path = Arg.substr(7);
    else
      argv[Out++] = argv[I];
  }
  argc = Out;
  return Path;
}

/// Writes the bench JSON document.  Returns false (with a message on
/// stderr) if the file cannot be written.  \p Phases, when given and
/// nonempty, is appended as a "phases" array (the document then doubles as
/// an evm-prof input); \p Series, when given and nonempty, is appended as
/// a "series" array of analyzed per-iteration run series.
inline bool writeBenchJson(const std::string &Path, const std::string &Name,
                           uint64_t Seed, const MetricsSnapshot &Snap,
                           const PhaseTreeSnapshot *Phases = nullptr,
                           const std::vector<BenchSeries> *Series = nullptr) {
  if (Path.empty())
    return true;
  std::string Body = Snap.renderJson(); // {"metrics":[...]}
  std::string Doc = "{\"bench\":\"" + Name +
                    "\",\"seed\":" + std::to_string(Seed) + "," +
                    Body.substr(1);
  if (Series && !Series->empty()) {
    Doc.pop_back(); // '}' -> ,"series":[...]}
    Doc += ',';
    Doc += renderSeriesArray(*Series);
    Doc += '}';
  }
  if (Phases && !Phases->empty()) {
    Doc.pop_back(); // '}' -> ,"phases":[...]}
    Doc += ',';
    Doc += Phases->renderJson().substr(1);
  }
  Doc += "\n";
  std::ofstream Stream(Path, std::ios::binary);
  if (!(Stream << Doc)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// Sibling path for a decision-ledger JSONL document written next to a
/// bench's --json document: "dir/name.json" -> "dir/name_decisions.jsonl"
/// (input of tools/evm-explain; bench/run_all.sh --check replays its
/// analytics against the bench's own gates).
inline std::string decisionsJsonlPath(const std::string &JsonPath) {
  if (JsonPath.empty())
    return "";
  const std::string Suffix = ".json";
  if (JsonPath.size() > Suffix.size() &&
      JsonPath.compare(JsonPath.size() - Suffix.size(), Suffix.size(),
                       Suffix) == 0)
    return JsonPath.substr(0, JsonPath.size() - Suffix.size()) +
           "_decisions.jsonl";
  return JsonPath + "_decisions.jsonl";
}

} // namespace benchjson
} // namespace evm

#endif // EVM_BENCH_BENCHJSON_H
