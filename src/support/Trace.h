//===- support/Trace.h - Deterministic VM-event tracing -------------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead recorder for the engine's layered decisions: method
/// invocations, profiler samples, cost-benefit evaluations, compile
/// installs, level transitions, and Evolve predictions.  Timestamps are
/// **virtual-clock cycles**, so two identical runs produce bit-identical
/// traces.
///
/// Cost model: with the runtime flag off, a record call costs one
/// predictable branch (`enabled()` is checked before events are even
/// constructed).  Recording never charges virtual cycles, so enabling
/// tracing cannot perturb the modeled machine.
///
/// Events carry a fixed POD payload (A/B/C uint64 slots plus one double X)
/// whose meaning depends on the kind; the taxonomy is documented per kind
/// below and in DESIGN.md's "Observability" section.  Exporters produce
/// Chrome trace_event JSON (loadable in chrome://tracing or Perfetto; one
/// pid per engine, every event on the execution thread's tid 0) and a flat
/// JSONL form that `tools/evm-trace` and the tests parse back.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_TRACE_H
#define EVM_SUPPORT_TRACE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace evm {

/// The event taxonomy.  Payload slot meaning per kind (unused slots are 0):
///
///   Kind              Cycle        Level      A            B          C / X
///   ----------------- ------------ ---------- ------------ ---------- -----
///   run.begin         0            -          run ordinal  overhead   -
///   run.end           end          -          run ordinal  samples    C=stall compile cycles
///   method.invoke     now          tier       invocation#  depth      -
///   profile.sample    now          level      samples      -          -
///   costbenefit.eval  now          chosen(*)  future cyc   -          C=current level idx, X=best cost
///   level.transition  now          new level  old lvl idx  #compiles  -
///   compile.install   now          level      -            cost       -
///   evolve.predict    0            max pred   run ordinal  fv hash    C=used 0/1, X=confidence before
///   evolve.outcome    end          max ideal  agreed 0/1   #correct   C=#methods, X=accuracy
///   model.rebuild     end          -          runs seen    -          X=guard confidence
///   repository.update end          -          runs in repo -          -
///   store.load        0            -          runs loaded  models     C=sections dropped, X=confidence loaded
///   store.save        0            -          runs saved   models     C=generation
///   fleet.tenant      total cyc    -          tenant id    runs       C=checkpoints, X=mean accuracy
///   fleet.merge       0            -          shards       generation C=runs in global, X=0
///
///   (*)  kTraceNoLevel when the cost-benefit model said "stay put".
///
///   fleet.* events are recorded by the fleet coordinator *after* all
///   tenant threads join, in tenant-ID order, so a fleet trace is
///   byte-identical for every --threads value.
enum class TraceEventKind : uint8_t {
  RunBegin,
  RunEnd,
  MethodInvoke,
  ProfileSample,
  CostBenefitEval,
  LevelTransition,
  CompileInstall,
  EvolvePredict,
  EvolveOutcome,
  ModelRebuild,
  RepositoryUpdate,
  StoreLoad,
  StoreSave,
  FleetTenant,
  FleetMerge,
};

constexpr int NumTraceEventKinds = 15;

/// Stable wire name of \p K ("compile.install", ...).
const char *traceEventKindName(TraceEventKind K);

/// Inverse of traceEventKindName; nullopt for unknown names.
std::optional<TraceEventKind> traceEventKindFromName(const std::string &Name);

/// Level value meaning "no level" (distinct from Baseline == -1).
constexpr int8_t kTraceNoLevel = -2;

/// One recorded event.  POD; 48 bytes.
struct TraceEvent {
  uint64_t Cycle = 0; ///< virtual-clock timestamp
  uint64_t A = 0;     ///< kind-specific (see taxonomy table)
  uint64_t B = 0;
  uint64_t C = 0;
  double X = 0;
  uint32_t Method = 0; ///< bc::MethodId; 0 for module-level events
  TraceEventKind Kind = TraceEventKind::RunBegin;
  int8_t Level = kTraceNoLevel; ///< OptLevel as int, or kTraceNoLevel
};

/// The growable event arena.  Appends take a mutex so the recorder stays
/// race-free when several threads share it; all current engine
/// producers run on the execution thread, which is what makes append order
/// (and therefore export order) deterministic.
class TraceRecorder {
public:
  /// \p MaxEvents bounds the arena; further events are counted in
  /// droppedEvents() and discarded (deterministically — the cap is hit at
  /// the same append in every identical run).
  explicit TraceRecorder(size_t MaxEvents = size_t(1) << 22)
      : MaxEvents(MaxEvents) {}

  /// The runtime flag.
  bool enabled() const { return Enabled; }

  void setEnabled(bool On) { Enabled = On; }

  /// Appends \p E if tracing is on.  Callers on hot paths should guard
  /// event construction with enabled() themselves; this re-check keeps the
  /// slow path safe regardless.
  void record(const TraceEvent &E) {
    if (!Enabled)
      return;
    append(E);
  }

  void clear();
  size_t size() const;
  uint64_t droppedEvents() const;

  /// Events in export order: the append sequence split into per-run
  /// segments at each run.begin (trailing evolve.predict events move into
  /// the segment they predict for), each segment stably sorted by Cycle
  /// with the run.begin marker hoisted to the front of its cycle.  This
  /// keeps multi-run traces (virtual clocks restart at 0 every run) in
  /// run-major order; the cycle-0 store.* events, recorded between runs,
  /// sort to the front of the segment they were appended to.
  std::vector<TraceEvent> exportOrder() const;

private:
  void append(const TraceEvent &E);

  mutable std::mutex Mutex;
  std::vector<TraceEvent> Events;
  size_t MaxEvents;
  uint64_t Dropped = 0;
  bool Enabled = false;
};

/// Export metadata: method-id -> name mapping and process naming for the
/// Chrome exporter.
struct TraceMeta {
  std::string ProcessName = "evm-engine";
  uint32_t Pid = 1;
  /// MethodNames[id] labels events; ids beyond the vector render as "m<id>".
  std::vector<std::string> MethodNames;
};

/// Chrome trace_event JSON ("traceEvents" array, ts in virtual cycles;
/// consecutive runs are laid out back-to-back on the time axis).  Load in
/// chrome://tracing or https://ui.perfetto.dev.
std::string renderChromeTrace(const std::vector<TraceEvent> &Events,
                              const TraceMeta &Meta);

/// Flat JSONL: one event per line, fixed key order
///   {"cycle":..,"kind":"..","method":..,"name":"..","level":..,
///    "a":..,"b":..,"c":..,"x":..}
/// Byte-deterministic for identical event sequences.
std::string renderJsonlTrace(const std::vector<TraceEvent> &Events,
                             const TraceMeta &Meta);

/// Parses one JSONL line back into an event (and the method name, when
/// \p NameOut is non-null).  Returns false on malformed input: a missing
/// or unknown kind, a missing cycle, or a numeric key whose value is not a
/// number.
bool parseJsonlTraceLine(const std::string &Line, TraceEvent &Out,
                         std::string *NameOut = nullptr);

} // namespace evm

#endif // EVM_SUPPORT_TRACE_H
