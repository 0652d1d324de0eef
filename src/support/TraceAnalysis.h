//===- support/TraceAnalysis.h - Timeline reports over parsed traces ------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Offline analysis over a JSONL trace (support/Trace.h): per-method tier
/// timelines, compile-stall accounting, and the Evolve-vs-reactive
/// decision diff — the paper's Figure 8/9 story recomputed from raw events.
/// Shared by `tools/evm-trace` and the trace tests.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_TRACEANALYSIS_H
#define EVM_SUPPORT_TRACEANALYSIS_H

#include "support/Error.h"
#include "support/Trace.h"

#include <map>
#include <string>
#include <vector>

namespace evm {

/// A parsed trace, segmented into runs.
struct ParsedTrace {
  std::vector<TraceEvent> Events; ///< in file (= export) order
  std::map<uint32_t, std::string> MethodNames;
  /// [begin, end) index ranges of each run segment (split at run.begin;
  /// events before the first run.begin are not part of any run).
  std::vector<std::pair<size_t, size_t>> Runs;

  const std::string &methodName(uint32_t Method) const;
};

/// Parses a whole JSONL trace file body.  Fails on the first malformed
/// non-empty line.
ErrorOr<ParsedTrace> parseJsonlTrace(const std::string &Text);

/// Per-run, per-method tier timeline: every level transition with its
/// virtual cycle, plus invocation/sample totals.
std::string renderTierTimeline(const ParsedTrace &Trace);

/// Compile-pipeline accounting per run: installs and the cycles their
/// compiles stalled the application clock.
std::string renderCompileAccounting(const ParsedTrace &Trace);

/// Evolve-vs-reactive diff: per run the prediction (level, confidence,
/// used/guarded, posterior agreement) next to the run's recompile count,
/// then the aggregate the paper claims — recompilations avoided and
/// cycles-at-optimized-level gained in predicted runs vs reactive runs.
std::string renderEvolveDiff(const ParsedTrace &Trace);

} // namespace evm

#endif // EVM_SUPPORT_TRACEANALYSIS_H
