//===- tests/test_trace.cpp - Tracing determinism and schema tests --------==//
//
// The tracing acceptance battery:
//
//   * two identical traced scenario replays produce byte-identical JSONL
//     traces and metrics snapshots;
//   * attaching an enabled recorder never changes virtual cycle counts
//     (recording is free on the modeled machine);
//   * the JSONL schema round-trips through parseJsonlTraceLine, only
//     contains known event kinds, and non-numeric values are rejected;
//   * the Chrome exporter emits the metadata, run spans and instant events
//     Perfetto needs;
//   * the evm-trace reports (support/TraceAnalysis.h) render the expected
//     sections from a real trace.
//
//===----------------------------------------------------------------------===//

#include "harness/Scenario.h"
#include "support/TraceAnalysis.h"
#include "support/Trace.h"
#include "vm/AOS.h"
#include "vm/Engine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <thread>

using namespace evm;

namespace {

constexpr uint64_t Seed = 20090301;

TraceMeta metaFor(const bc::Module &M) {
  TraceMeta Meta;
  Meta.MethodNames.resize(M.numFunctions());
  for (uint32_t F = 0; F != M.numFunctions(); ++F)
    Meta.MethodNames[F] = M.function(static_cast<bc::MethodId>(F)).Name;
  return Meta;
}

/// One full traced Evolve replay; returns the JSONL trace and the last
/// run's metrics JSON.
void runTracedScenario(std::string &JsonlOut, std::string &MetricsOut) {
  wl::Workload W = wl::buildWorkload("Mtrt", Seed);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  TraceRecorder Tracer;
  Tracer.setEnabled(true);
  Runner.setTracer(&Tracer);
  std::vector<size_t> Order = Runner.makeInputOrder(1, 8);
  harness::ScenarioResult Evolve = Runner.runEvolve(Order);
  ASSERT_EQ(Evolve.Runs.size(), Order.size());
  JsonlOut = renderJsonlTrace(Tracer.exportOrder(), metaFor(W.Module));
  MetricsOut.clear();
  // Metrics determinism rides on the scenario's per-run numbers.
  for (const harness::RunMetrics &M : Evolve.Runs)
    MetricsOut += std::to_string(M.Cycles) + "," +
                  std::to_string(M.OverheadCycles) + "," +
                  std::to_string(M.Compiles) + ";";
}

struct TracedScenario {
  std::string Jsonl, Metrics;
};

/// The traced scenario, replayed once per test binary and shared by every
/// test that only reads it.
const TracedScenario &sharedScenario() {
  static const TracedScenario Shared = [] {
    TracedScenario S;
    runTracedScenario(S.Jsonl, S.Metrics);
    return S;
  }();
  return Shared;
}

} // namespace

TEST(Trace, IdenticalRunsProduceByteIdenticalTraces) {
  // A fresh, independent replay must match the shared one byte for byte.
  std::string Jsonl, Metrics;
  runTracedScenario(Jsonl, Metrics);
  const TracedScenario &Shared = sharedScenario();
  ASSERT_FALSE(Shared.Jsonl.empty());
  EXPECT_EQ(Jsonl, Shared.Jsonl);
  EXPECT_EQ(Metrics, Shared.Metrics);
}

TEST(Trace, TracingNeverChangesVirtualTime) {
  // An enabled recorder must be invisible to the modeled machine.
  wl::Workload W = wl::buildWorkload("Compress", Seed);
  const wl::InputCase &Input = W.Inputs[W.Inputs.size() / 2];
  auto runMaybeTraced = [&](TraceRecorder *Tracer) {
    vm::TimingModel TM;
    vm::AdaptivePolicy Policy(TM, Tracer);
    vm::ExecutionEngine Engine(W.Module, TM, &Policy);
    Engine.setTracer(Tracer);
    auto R = Engine.run(Input.VmArgs);
    EXPECT_TRUE(static_cast<bool>(R));
    return R ? R->Cycles : 0;
  };
  TraceRecorder Enabled, Disabled;
  Enabled.setEnabled(true);
  uint64_t PlainCycles = runMaybeTraced(nullptr);
  uint64_t DisabledCycles = runMaybeTraced(&Disabled);
  uint64_t EnabledCycles = runMaybeTraced(&Enabled);
  EXPECT_EQ(PlainCycles, DisabledCycles);
  EXPECT_EQ(PlainCycles, EnabledCycles);
  EXPECT_EQ(Disabled.size(), 0u);
  EXPECT_GT(Enabled.size(), 0u);
}

TEST(Trace, EventKindNamesRoundTrip) {
  for (int K = 0; K != NumTraceEventKinds; ++K) {
    TraceEventKind Kind = static_cast<TraceEventKind>(K);
    const char *Name = traceEventKindName(Kind);
    ASSERT_NE(Name, nullptr);
    auto Back = traceEventKindFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Kind) << Name;
  }
  EXPECT_FALSE(traceEventKindFromName("not.an.event").has_value());
}

TEST(Trace, JsonlSchemaRoundTrips) {
  const std::string &Jsonl = sharedScenario().Jsonl;

  // Parse every line back and re-render: a lossless round-trip proves the
  // schema carries the full event payload.
  std::vector<TraceEvent> Parsed;
  TraceMeta Meta;
  size_t Start = 0;
  while (Start < Jsonl.size()) {
    size_t End = Jsonl.find('\n', Start);
    ASSERT_NE(End, std::string::npos);
    std::string Line = Jsonl.substr(Start, End - Start);
    Start = End + 1;
    TraceEvent E;
    std::string Name;
    ASSERT_TRUE(parseJsonlTraceLine(Line, E, &Name)) << Line;
    if (E.Method >= Meta.MethodNames.size())
      Meta.MethodNames.resize(E.Method + 1);
    Meta.MethodNames[E.Method] = Name;
    Parsed.push_back(E);
  }
  ASSERT_FALSE(Parsed.empty());
  EXPECT_EQ(renderJsonlTrace(Parsed, Meta), Jsonl);

  // Malformed lines are rejected, not misparsed.
  TraceEvent E;
  EXPECT_FALSE(parseJsonlTraceLine("", E));
  EXPECT_FALSE(parseJsonlTraceLine("{\"cycle\":1}", E));
  EXPECT_FALSE(parseJsonlTraceLine(
      "{\"cycle\":1,\"kind\":\"bogus.kind\",\"method\":0,\"name\":\"m\","
      "\"level\":0,\"a\":0,\"b\":0,\"c\":0,\"x\":0}",
      E));
  // So are numeric keys whose value is not a number.
  for (const char *Line : {"{\"cycle\":\"x\",\"kind\":\"run.begin\"}",
                           "{\"cycle\":,\"kind\":\"run.begin\"}",
                           "{\"cycle\":12,\"kind\":\"run.begin\",\"a\":oops}",
                           "{\"cycle\":12x,\"kind\":\"run.begin\"}"})
    EXPECT_FALSE(parseJsonlTraceLine(Line, E)) << Line;
  // Optional keys may be absent.
  ASSERT_TRUE(parseJsonlTraceLine("{\"cycle\":12,\"kind\":\"run.begin\"}", E));
  EXPECT_EQ(E.Cycle, 12u);
  EXPECT_EQ(E.Kind, TraceEventKind::RunBegin);
}

TEST(Trace, ChromeExportCarriesPerfettoStructure) {
  wl::Workload W = wl::buildWorkload("Mtrt", Seed);
  harness::ExperimentConfig C;
  C.Seed = Seed;
  harness::ScenarioRunner Runner(W, C);
  TraceRecorder Tracer;
  Tracer.setEnabled(true);
  Runner.setTracer(&Tracer);
  Runner.runEvolve(Runner.makeInputOrder(1, 4));

  std::string Chrome =
      renderChromeTrace(Tracer.exportOrder(), metaFor(W.Module));
  // Top-level object with the trace_event array.
  EXPECT_EQ(Chrome.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(Chrome.substr(Chrome.size() - 3), "]}\n");
  // Process and execution-thread metadata.
  EXPECT_NE(Chrome.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"execution\""), std::string::npos);
  // Whole-run spans plus decision instants.
  EXPECT_NE(Chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"compile.install\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"costbenefit.eval\""), std::string::npos);
  EXPECT_NE(Chrome.find("\"evolve.predict\""), std::string::npos);
}

TEST(Trace, AnalysisReportsRenderFromRealTrace) {
  auto Parsed = parseJsonlTrace(sharedScenario().Jsonl);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError().message();
  // 8 Evolve runs plus the traced default-baseline measurement runs the
  // scenario runner performs for each distinct input.
  EXPECT_GE(Parsed->Runs.size(), 8u);
  EXPECT_FALSE(Parsed->MethodNames.empty());

  std::string Timeline = renderTierTimeline(*Parsed);
  EXPECT_NE(Timeline.find("tier timeline"), std::string::npos);
  EXPECT_NE(Timeline.find("run 1:"), std::string::npos);
  EXPECT_NE(Timeline.find("BASE@0"), std::string::npos);

  std::string Compiles = renderCompileAccounting(*Parsed);
  EXPECT_NE(Compiles.find("Compile-pipeline accounting"), std::string::npos);
  EXPECT_NE(Compiles.find("total:"), std::string::npos);
  // The scenario compiled methods, so the report counts installs.
  EXPECT_EQ(Compiles.find("total: 0 installs"), std::string::npos);

  std::string Evolve = renderEvolveDiff(*Parsed);
  EXPECT_NE(Evolve.find("Evolve vs. reactive"), std::string::npos);
  EXPECT_NE(Evolve.find("reactive"), std::string::npos);

  // Garbage input fails with a line number instead of misparsing.
  auto Bad = parseJsonlTrace("{\"cycle\":1}\n");
  EXPECT_FALSE(static_cast<bool>(Bad));
}

TEST(TraceAnalysis, EmptyTraceParsesAndRendersHeaders) {
  // An empty file (or one of only blank lines) is a valid, empty trace;
  // every report degrades to its header plus empty totals.
  for (const char *Text : {"", "\n\n\n"}) {
    auto Parsed = parseJsonlTrace(Text);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << '"' << Text << '"';
    EXPECT_TRUE(Parsed->Events.empty());
    EXPECT_TRUE(Parsed->Runs.empty());
    EXPECT_NE(renderTierTimeline(*Parsed).find("tier timeline"),
              std::string::npos);
    std::string Compiles = renderCompileAccounting(*Parsed);
    EXPECT_NE(Compiles.find("Compile-pipeline accounting"),
              std::string::npos);
    EXPECT_NE(Compiles.find("total: 0 installs"), std::string::npos);
    EXPECT_NE(renderEvolveDiff(*Parsed).find("Evolve"), std::string::npos);
  }
}

TEST(TraceAnalysis, ZeroCompileEventsDegradeGracefully) {
  // Strip every compile.* event from a real trace: the accounting report
  // must show empty pipelines, not crash or misattribute.
  auto Parsed = parseJsonlTrace(sharedScenario().Jsonl);
  ASSERT_TRUE(static_cast<bool>(Parsed));

  std::vector<TraceEvent> Kept;
  for (const TraceEvent &E : Parsed->Events)
    if (E.Kind != TraceEventKind::CompileInstall)
      Kept.push_back(E);
  ASSERT_LT(Kept.size(), Parsed->Events.size());

  // Round-trip the stripped events through the JSONL text path so the
  // run re-segmentation logic sees them too.
  TraceMeta Meta;
  for (const auto &[Method, Name] : Parsed->MethodNames) {
    if (Method >= Meta.MethodNames.size())
      Meta.MethodNames.resize(Method + 1);
    Meta.MethodNames[Method] = Name;
  }
  auto Reparsed = parseJsonlTrace(renderJsonlTrace(Kept, Meta));
  ASSERT_TRUE(static_cast<bool>(Reparsed));
  EXPECT_EQ(Reparsed->Runs.size(), Parsed->Runs.size());

  std::string Compiles = renderCompileAccounting(*Reparsed);
  EXPECT_NE(Compiles.find("total: 0 installs, 0 stall cycles"),
            std::string::npos);
  // The other reports still render from the remaining events.
  EXPECT_NE(renderTierTimeline(*Reparsed).find("tier timeline"),
            std::string::npos);
  EXPECT_NE(renderEvolveDiff(*Reparsed).find("Evolve"), std::string::npos);
}

TEST(TraceAnalysis, TruncatedJsonlFailsWithLineNumber) {
  const std::string &Jsonl = sharedScenario().Jsonl;
  // Cut mid-way through the third line: the parser must reject the
  // partial object and name the line, not silently drop the tail.
  size_t FirstNl = Jsonl.find('\n');
  ASSERT_NE(FirstNl, std::string::npos);
  size_t SecondNl = Jsonl.find('\n', FirstNl + 1);
  ASSERT_NE(SecondNl, std::string::npos);
  std::string Truncated = Jsonl.substr(0, SecondNl + 1 + 10);
  ASSERT_NE(Truncated.back(), '\n');
  auto Bad = parseJsonlTrace(Truncated);
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_NE(Bad.getError().message().find("malformed trace event at line 3"),
            std::string::npos)
      << Bad.getError().message();
}

TEST(Trace, ConcurrentRecordersLoseNoEvents) {
  // Fleet tenants may share a recorder in future layers; the append mutex
  // must make that merely nondeterministic in order, never lossy.  Runs
  // under the TSan lane too.
  TraceRecorder Rec;
  Rec.setEnabled(true);
  constexpr int Threads = 4, PerThread = 5000;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&Rec, T] {
      for (int I = 0; I != PerThread; ++I) {
        TraceEvent E;
        E.Kind = TraceEventKind::FleetTenant;
        E.A = static_cast<uint64_t>(T);
        E.B = static_cast<uint64_t>(I);
        Rec.record(E);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Rec.size(), size_t(Threads) * PerThread);
  EXPECT_EQ(Rec.droppedEvents(), 0u);
  // Every (thread, seq) pair landed exactly once.
  std::vector<int> Seen(Threads, 0);
  for (const TraceEvent &E : Rec.exportOrder())
    if (E.Kind == TraceEventKind::FleetTenant)
      ++Seen[E.A];
  for (int T = 0; T != Threads; ++T)
    EXPECT_EQ(Seen[T], PerThread) << "thread " << T;
}

TEST(Trace, FleetEventKindsHaveWireNames) {
  EXPECT_STREQ(traceEventKindName(TraceEventKind::FleetTenant),
               "fleet.tenant");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::FleetMerge), "fleet.merge");
  EXPECT_EQ(traceEventKindFromName("fleet.tenant"),
            TraceEventKind::FleetTenant);
  EXPECT_EQ(traceEventKindFromName("fleet.merge"),
            TraceEventKind::FleetMerge);
}
