//===- support/TraceAnalysis.cpp ------------------------------------------===//

#include "support/TraceAnalysis.h"

#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <sstream>

using namespace evm;

static std::string levelStr(int Level) {
  switch (Level) {
  case -1:
    return "BASE";
  case 0:
    return "O0";
  case 1:
    return "O1";
  case 2:
    return "O2";
  }
  return "-";
}

const std::string &ParsedTrace::methodName(uint32_t Method) const {
  static const std::string Unknown = "?";
  auto It = MethodNames.find(Method);
  return It == MethodNames.end() ? Unknown : It->second;
}

ErrorOr<ParsedTrace> evm::parseJsonlTrace(const std::string &Text) {
  ParsedTrace Trace;
  std::istringstream In(Text);
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceEvent E;
    std::string Name;
    if (!parseJsonlTraceLine(Line, E, &Name))
      return makeError("malformed trace event at line %zu", LineNo);
    if (!Name.empty())
      Trace.MethodNames.emplace(E.Method, Name);
    Trace.Events.push_back(E);
  }
  for (size_t I = 0; I != Trace.Events.size(); ++I) {
    if (Trace.Events[I].Kind != TraceEventKind::RunBegin)
      continue;
    if (!Trace.Runs.empty())
      Trace.Runs.back().second = I;
    Trace.Runs.push_back({I, Trace.Events.size()});
  }
  return Trace;
}

std::string evm::renderTierTimeline(const ParsedTrace &Trace) {
  std::string Out = "== Per-method tier timeline ==\n";
  for (auto [Begin, End] : Trace.Runs) {
    uint64_t RunOrdinal = Trace.Events[Begin].A;
    Out += formatString("\nrun %llu:\n",
                        static_cast<unsigned long long>(RunOrdinal));
    // Gather each method's transition path and activity totals.
    struct MethodLane {
      std::vector<std::pair<uint64_t, int>> Path; ///< (cycle, new level)
      uint64_t Invocations = 0;
      uint64_t Samples = 0;
    };
    std::map<uint32_t, MethodLane> Lanes;
    for (size_t I = Begin; I != End; ++I) {
      const TraceEvent &E = Trace.Events[I];
      switch (E.Kind) {
      case TraceEventKind::LevelTransition:
        Lanes[E.Method].Path.push_back({E.Cycle, E.Level});
        break;
      case TraceEventKind::MethodInvoke:
        ++Lanes[E.Method].Invocations;
        break;
      case TraceEventKind::ProfileSample:
        ++Lanes[E.Method].Samples;
        break;
      default:
        break;
      }
    }
    TextTable Table({"method", "invocations", "samples", "tier timeline"});
    for (const auto &[Method, Lane] : Lanes) {
      std::string Timeline = "BASE@0";
      for (auto [Cycle, Level] : Lane.Path)
        Timeline += formatString(" -> %s@%llu", levelStr(Level).c_str(),
                                 static_cast<unsigned long long>(Cycle));
      Table.beginRow();
      Table.addCell(Trace.methodName(Method));
      Table.addCell(static_cast<int64_t>(Lane.Invocations));
      Table.addCell(static_cast<int64_t>(Lane.Samples));
      Table.addCell(Timeline);
    }
    Out += Table.render();
  }
  return Out;
}

std::string evm::renderCompileAccounting(const ParsedTrace &Trace) {
  std::string Out = "== Compile-pipeline accounting ==\n\n";
  TextTable Table({"run", "installs", "stall-cycles"});
  uint64_t TotalInstalls = 0, TotalStall = 0;
  for (auto [Begin, End] : Trace.Runs) {
    uint64_t Installs = 0, Stall = 0;
    for (size_t I = Begin; I != End; ++I) {
      const TraceEvent &E = Trace.Events[I];
      if (E.Kind != TraceEventKind::CompileInstall)
        continue;
      ++Installs;
      Stall += E.B;
    }
    Table.beginRow();
    Table.addCell(static_cast<int64_t>(Trace.Events[Begin].A));
    Table.addCell(static_cast<int64_t>(Installs));
    Table.addCell(static_cast<int64_t>(Stall));
    TotalInstalls += Installs;
    TotalStall += Stall;
  }
  Out += Table.render();
  Out += formatString("\ntotal: %llu installs, %llu stall cycles\n",
                      static_cast<unsigned long long>(TotalInstalls),
                      static_cast<unsigned long long>(TotalStall));
  return Out;
}

/// Cycles the run spent with at least one method installed above Baseline,
/// integrated from level.transition events to the run's end cycle.
static uint64_t cyclesAtOptimizedLevel(const ParsedTrace &Trace, size_t Begin,
                                       size_t End) {
  uint64_t RunEnd = 0;
  std::map<uint32_t, std::pair<uint64_t, int>> Current; // method -> (since, lvl)
  uint64_t Optimized = 0;
  for (size_t I = Begin; I != End; ++I) {
    const TraceEvent &E = Trace.Events[I];
    if (E.Kind == TraceEventKind::RunEnd)
      RunEnd = E.Cycle;
    if (E.Kind != TraceEventKind::LevelTransition)
      continue;
    auto It = Current.find(E.Method);
    if (It != Current.end() && It->second.second >= 0)
      Optimized += E.Cycle - It->second.first;
    Current[E.Method] = {E.Cycle, E.Level};
  }
  for (const auto &[Method, SinceLevel] : Current)
    if (SinceLevel.second >= 0 && RunEnd > SinceLevel.first)
      Optimized += RunEnd - SinceLevel.first;
  return Optimized;
}

std::string evm::renderEvolveDiff(const ParsedTrace &Trace) {
  std::string Out = "== Evolve vs. reactive decision diff ==\n\n";
  TextTable Table({"run", "mode", "predicted", "confidence", "agreed",
                   "recompiles", "opt-cycles", "cycles"});
  // A "recompile" here is an install above Baseline — the events reactive
  // profiling pays for and a correct prediction avoids.
  uint64_t PredictedRuns = 0, ReactiveRuns = 0;
  uint64_t PredictedRecompiles = 0, ReactiveRecompiles = 0;
  uint64_t PredictedOptCycles = 0, ReactiveOptCycles = 0;
  uint64_t Agreements = 0, Outcomes = 0;
  for (auto [Begin, End] : Trace.Runs) {
    const TraceEvent *Predict = nullptr, *Outcome = nullptr;
    uint64_t Recompiles = 0, RunCycles = 0;
    for (size_t I = Begin; I != End; ++I) {
      const TraceEvent &E = Trace.Events[I];
      switch (E.Kind) {
      case TraceEventKind::EvolvePredict:
        Predict = &E;
        break;
      case TraceEventKind::EvolveOutcome:
        Outcome = &E;
        break;
      case TraceEventKind::CompileInstall:
        if (E.Level >= 0)
          ++Recompiles;
        break;
      case TraceEventKind::RunEnd:
        RunCycles = E.Cycle;
        break;
      default:
        break;
      }
    }
    uint64_t OptCycles = cyclesAtOptimizedLevel(Trace, Begin, End);
    bool Used = Predict && Predict->C;
    Table.beginRow();
    Table.addCell(static_cast<int64_t>(Trace.Events[Begin].A));
    Table.addCell(Used ? "predicted" : "reactive");
    Table.addCell(Predict ? levelStr(Predict->Level) : "-");
    if (Predict)
      Table.addCell(Predict->X, 3);
    else
      Table.addCell("-");
    Table.addCell(Outcome ? (Outcome->A ? "yes" : "no") : "-");
    Table.addCell(static_cast<int64_t>(Recompiles));
    Table.addCell(static_cast<int64_t>(OptCycles));
    Table.addCell(static_cast<int64_t>(RunCycles));
    if (Used) {
      ++PredictedRuns;
      PredictedRecompiles += Recompiles;
      PredictedOptCycles += OptCycles;
    } else {
      ++ReactiveRuns;
      ReactiveRecompiles += Recompiles;
      ReactiveOptCycles += OptCycles;
    }
    if (Outcome) {
      ++Outcomes;
      Agreements += Outcome->A ? 1 : 0;
    }
  }
  Out += Table.render();
  if (PredictedRuns && ReactiveRuns) {
    double AvoidedPerRun =
        static_cast<double>(ReactiveRecompiles) / ReactiveRuns -
        static_cast<double>(PredictedRecompiles) / PredictedRuns;
    double OptGainPerRun =
        static_cast<double>(PredictedOptCycles) / PredictedRuns -
        static_cast<double>(ReactiveOptCycles) / ReactiveRuns;
    Out += formatString("\nrecompilations avoided per predicted run: %.2f\n",
                        AvoidedPerRun);
    Out += formatString("cycles at optimized level gained per run:  %.1f\n",
                        OptGainPerRun);
  } else {
    Out += "\nno predicted/reactive split in this trace; diff unavailable\n";
  }
  if (Outcomes)
    Out += formatString("posterior agreement: %llu/%llu runs\n",
                        static_cast<unsigned long long>(Agreements),
                        static_cast<unsigned long long>(Outcomes));
  return Out;
}
