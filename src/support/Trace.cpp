//===- support/Trace.cpp --------------------------------------------------===//

#include "support/Trace.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace evm;

static const char *const TraceEventKindNames[NumTraceEventKinds] = {
    "run.begin",         "run.end",          "method.invoke",
    "profile.sample",    "costbenefit.eval", "level.transition",
    "compile.install",   "evolve.predict",   "evolve.outcome",
    "model.rebuild",     "repository.update", "store.load",
    "store.save",        "fleet.tenant",     "fleet.merge"};

const char *evm::traceEventKindName(TraceEventKind K) {
  assert(static_cast<unsigned>(K) < NumTraceEventKinds && "bad kind");
  return TraceEventKindNames[static_cast<unsigned>(K)];
}

std::optional<TraceEventKind>
evm::traceEventKindFromName(const std::string &Name) {
  for (int I = 0; I != NumTraceEventKinds; ++I)
    if (Name == TraceEventKindNames[I])
      return static_cast<TraceEventKind>(I);
  return std::nullopt;
}

void TraceRecorder::append(const TraceEvent &E) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Events.size() >= MaxEvents) {
    ++Dropped;
    return;
  }
  Events.push_back(E);
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.clear();
  Dropped = 0;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

uint64_t TraceRecorder::droppedEvents() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Dropped;
}

std::vector<TraceEvent> TraceRecorder::exportOrder() const {
  std::vector<TraceEvent> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    All = Events;
  }

  // Split the append sequence into per-run segments at each run.begin.  A
  // preamble segment (events before the first run.begin) is allowed.
  std::vector<size_t> SegmentStart;
  SegmentStart.push_back(0);
  for (size_t I = 0; I != All.size(); ++I)
    if (All[I].Kind == TraceEventKind::RunBegin && I != 0)
      SegmentStart.push_back(I);

  // evolve.predict events are recorded before the engine starts the run they
  // predict for, so in append order they sit at the tail of the *previous*
  // segment; pull them across the boundary into the run they belong to.
  for (size_t S = 1; S < SegmentStart.size(); ++S) {
    size_t Boundary = SegmentStart[S];
    while (Boundary > SegmentStart[S - 1] &&
           All[Boundary - 1].Kind == TraceEventKind::EvolvePredict)
      --Boundary;
    SegmentStart[S] = Boundary;
  }

  // Sort each segment by virtual time.  Virtual clocks restart at zero every
  // run, so a global sort would interleave runs; within a run the stable sort
  // moves the cycle-0 store.* events, appended between runs, to the front
  // while preserving append order among ties.  run.begin is hoisted to the
  // front of its cycle so each segment opens with its marker.
  auto Key = [](const TraceEvent &E) {
    return std::make_pair(E.Cycle,
                          E.Kind == TraceEventKind::RunBegin ? 0u : 1u);
  };
  for (size_t S = 0; S != SegmentStart.size(); ++S) {
    size_t Begin = SegmentStart[S];
    size_t End = S + 1 < SegmentStart.size() ? SegmentStart[S + 1] : All.size();
    std::stable_sort(All.begin() + Begin, All.begin() + End,
                     [&](const TraceEvent &L, const TraceEvent &R) {
                       return Key(L) < Key(R);
                     });
  }
  return All;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

static std::string escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += formatString("\\u%04x", Ch);
      continue;
    }
    Out += Ch;
  }
  return Out;
}

static std::string methodLabel(const TraceMeta &Meta, uint32_t Method) {
  if (Method < Meta.MethodNames.size() && !Meta.MethodNames[Method].empty())
    return Meta.MethodNames[Method];
  return formatString("m%u", Method);
}

std::string evm::renderJsonlTrace(const std::vector<TraceEvent> &Events,
                                  const TraceMeta &Meta) {
  std::string Out;
  Out.reserve(Events.size() * 96);
  for (const TraceEvent &E : Events) {
    Out += formatString(
        "{\"cycle\":%llu,\"kind\":\"%s\",\"method\":%u,\"name\":\"%s\","
        "\"level\":%d,\"a\":%llu,\"b\":%llu,\"c\":%llu,\"x\":%.17g}\n",
        static_cast<unsigned long long>(E.Cycle), traceEventKindName(E.Kind),
        E.Method, escapeJson(methodLabel(Meta, E.Method)).c_str(),
        static_cast<int>(E.Level), static_cast<unsigned long long>(E.A),
        static_cast<unsigned long long>(E.B),
        static_cast<unsigned long long>(E.C), E.X);
  }
  return Out;
}

/// Common "args" object for Chrome events: the raw payload plus decoded
/// labels, so Perfetto's detail pane shows everything the JSONL form does.
static std::string chromeArgs(const TraceEvent &E, const TraceMeta &Meta) {
  return formatString(
      "{\"method\":\"%s\",\"level\":%d,\"a\":%llu,\"b\":%llu,\"c\":%llu,"
      "\"x\":%.17g}",
      escapeJson(methodLabel(Meta, E.Method)).c_str(),
      static_cast<int>(E.Level), static_cast<unsigned long long>(E.A),
      static_cast<unsigned long long>(E.B),
      static_cast<unsigned long long>(E.C), E.X);
}

std::string evm::renderChromeTrace(const std::vector<TraceEvent> &Events,
                                   const TraceMeta &Meta) {
  // Consecutive runs each restart the virtual clock at 0; lay them out
  // back-to-back on the Chrome time axis by giving each run segment a
  // cumulative ts offset (previous offset + previous segment's max cycle + a
  // 1-cycle gap).
  std::vector<size_t> SegmentOf(Events.size(), 0);
  std::vector<uint64_t> SegmentMax;
  SegmentMax.push_back(0);
  for (size_t I = 0; I != Events.size(); ++I) {
    if (Events[I].Kind == TraceEventKind::RunBegin && I != 0)
      SegmentMax.push_back(0);
    SegmentOf[I] = SegmentMax.size() - 1;
    SegmentMax.back() = std::max(SegmentMax.back(), Events[I].Cycle);
  }
  std::vector<uint64_t> SegmentOffset(SegmentMax.size(), 0);
  for (size_t S = 1; S != SegmentMax.size(); ++S)
    SegmentOffset[S] = SegmentOffset[S - 1] + SegmentMax[S - 1] + 1;

  std::string Out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  Out += formatString("{\"ph\":\"M\",\"pid\":%u,\"tid\":0,\"name\":"
                      "\"process_name\",\"args\":{\"name\":\"%s\"}}",
                      Meta.Pid, escapeJson(Meta.ProcessName).c_str());
  Out += formatString(",\n{\"ph\":\"M\",\"pid\":%u,\"tid\":0,\"name\":"
                      "\"thread_name\",\"args\":{\"name\":\"execution\"}}",
                      Meta.Pid);

  for (size_t I = 0; I != Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    uint64_t Ts = SegmentOffset[SegmentOf[I]] + E.Cycle;
    // Whole-run span so Perfetto shows run extents at a glance.
    if (E.Kind == TraceEventKind::RunBegin)
      Out += formatString(
          ",\n{\"ph\":\"X\",\"pid\":%u,\"tid\":0,\"ts\":%llu,\"dur\":%llu,"
          "\"name\":\"run %llu\",\"args\":{}}",
          Meta.Pid, static_cast<unsigned long long>(Ts),
          static_cast<unsigned long long>(SegmentMax[SegmentOf[I]]),
          static_cast<unsigned long long>(E.A));
    Out += formatString(
        ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":0,\"ts\":%llu,"
        "\"name\":\"%s\",\"args\":%s}",
        Meta.Pid, static_cast<unsigned long long>(Ts),
        traceEventKindName(E.Kind), chromeArgs(E, Meta).c_str());
  }
  Out += "\n]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// JSONL parsing (for tools/evm-trace and the schema round-trip test)
//===----------------------------------------------------------------------===//

/// Locates `"Key":` in \p Line and returns the index just past the colon, or
/// npos.  The writer emits flat objects with unique keys, so a plain
/// substring scan is unambiguous.
static size_t findValue(const std::string &Line, const char *Key) {
  std::string Needle = formatString("\"%s\":", Key);
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return std::string::npos;
  return At + Needle.size();
}

static unsigned long long toU64(const char *S, char **End) {
  return strtoull(S, End, 10);
}

static long long toI64(const char *S, char **End) {
  return strtoll(S, End, 10);
}

/// Parses the number after `"Key":` with \p Conv (strtoull and its
/// siblings, which leave the end pointer at the start when they read no
/// number).  Returns false when the value is not a number ending at the
/// next `,` or `}`, or when the key is absent and \p Required; an absent
/// optional key leaves \p Out untouched.
template <typename T, typename Converter>
static bool parseNumber(const std::string &Line, const char *Key, T &Out,
                        Converter Conv, bool Required = false) {
  size_t At = findValue(Line, Key);
  if (At == std::string::npos)
    return !Required;
  const char *Begin = Line.c_str() + At;
  char *End = nullptr;
  auto Value = Conv(Begin, &End);
  if (End == Begin || (*End != ',' && *End != '}'))
    return false;
  Out = static_cast<T>(Value);
  return true;
}

static bool parseStr(const std::string &Line, const char *Key,
                     std::string &Out) {
  size_t At = findValue(Line, Key);
  if (At == std::string::npos || At >= Line.size() || Line[At] != '"')
    return false;
  Out.clear();
  for (size_t I = At + 1; I < Line.size(); ++I) {
    if (Line[I] == '\\' && I + 1 < Line.size()) {
      Out += Line[++I];
      continue;
    }
    if (Line[I] == '"')
      return true;
    Out += Line[I];
  }
  return false;
}

bool evm::parseJsonlTraceLine(const std::string &Line, TraceEvent &Out,
                              std::string *NameOut) {
  std::string KindName;
  if (!parseStr(Line, "kind", KindName))
    return false;
  std::optional<TraceEventKind> Kind = traceEventKindFromName(KindName);
  if (!Kind)
    return false;
  Out = TraceEvent();
  Out.Kind = *Kind;
  if (!parseNumber(Line, "cycle", Out.Cycle, toU64, /*Required=*/true) ||
      !parseNumber(Line, "method", Out.Method, toU64) ||
      !parseNumber(Line, "level", Out.Level, toI64) ||
      !parseNumber(Line, "a", Out.A, toU64) ||
      !parseNumber(Line, "b", Out.B, toU64) ||
      !parseNumber(Line, "c", Out.C, toU64) ||
      !parseNumber(Line, "x", Out.X, strtod))
    return false;
  if (NameOut && !parseStr(Line, "name", *NameOut))
    NameOut->clear();
  return true;
}
