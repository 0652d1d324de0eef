//===- bench/bench_serve.cpp - Prediction service identity and load gates -==//
//
// The online prediction service's two regression gates:
//
//   identity   a serial single-client request stream through a live daemon
//              must reproduce the equivalent batch runEvolveLaunches run
//              for run: every per-run cycle count equal, nothing rejected.
//              Zero tolerance, gated everywhere — this is the serving
//              layer's determinism pin measured end-to-end over the real
//              socket (tests/test_server.cpp additionally pins the bytes).
//
//   zero drops a closed-loop load phase (4 clients, one outstanding
//              request each, distinct lanes) must have every request
//              admitted and answered "ok".  A closed loop can never exceed
//              MaxQueue, so this is load-shape deterministic and gates on
//              every host.  Served host latency and throughput are
//              measured by perfbench's serve-open workload instead.
//
// The serial phase's per-run cycle series lands in the JSON as
// serve.cycles_by_run with the usual steady-state analysis, so
// bench-compare's interval-aware series gates watch the serving path's
// learning curve exactly like the batch benches' curves.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Fleet.h"
#include "harness/Scenario.h"
#include "server/PredictionServer.h"
#include "server/Protocol.h"
#include "store/Json.h"
#include "support/Table.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace evm;
using namespace evm::server;

namespace {

/// A blocking protocol client (closed loop: one outstanding request).
class BenchClient {
public:
  explicit BenchClient(const std::string &SocketPath) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~BenchClient() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  /// Sends one request and blocks for its response ("" on failure).
  std::string roundTrip(const std::string &Request) {
    if (Fd < 0 || !writeFrame(Fd, Request))
      return "";
    std::string Payload, Err;
    return readFrame(Fd, Payload, Err) == FrameStatus::Ok ? Payload : "";
  }

private:
  int Fd = -1;
};

uint64_t u64Field(const std::string &Json, const char *Name) {
  std::optional<store::JsonValue> Doc = store::JsonValue::parse(Json);
  if (!Doc)
    return 0;
  const store::JsonValue *F = Doc->field(Name);
  return F ? F->asU64() : 0;
}

std::string strField(const std::string &Json, const char *Name) {
  std::optional<store::JsonValue> Doc = store::JsonValue::parse(Json);
  if (!Doc)
    return "";
  const store::JsonValue *F = Doc->field(Name);
  return F ? F->str() : "";
}

std::string freshDir(const char *Tag) {
  std::string Dir =
      "/tmp/bench_serve." + std::to_string(getpid()) + "." + Tag;
  mkdir(Dir.c_str(), 0777);
  return Dir;
}

ServerConfig serveConfig(const char *Tag) {
  ServerConfig C;
  C.SocketPath =
      "/tmp/bench_serve." + std::to_string(getpid()) + "." + Tag + ".sock";
  C.Seed = 1;
  C.MaxQueue = 256;
  C.MaxInflightPerClient = 64;
  return C;
}

void removeStoreDir(const StoreGateway &GW, const std::string &App,
                    size_t Lanes) {
  for (size_t I = 0; I != Lanes; ++I)
    std::remove(harness::FleetRunner::shardPath(GW.dir(), I).c_str());
  std::remove(GW.globalPath(App).c_str());
  rmdir(GW.dir().c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  int Failures = 0;

  std::printf("Prediction service: serial-vs-batch identity and closed-loop "
              "SLO gates\n\n");

  TextTable Table({"Gate", "Value", "Status"});

  // Gate 1: serial stream through the daemon == batch runEvolveLaunches.
  const size_t SerialRuns = 24;
  wl::Workload W = harness::buildFleetWorkload("route", 1);
  harness::ExperimentConfig Exp;
  harness::ScenarioRunner Runner(W, Exp);
  std::vector<size_t> Order = Runner.makeInputOrder(7, SerialRuns);

  std::string BatchStore = freshDir("batch") + "/batch.store";
  harness::ScenarioResult Batch =
      Runner.runEvolveLaunches(Order, 1, BatchStore);
  std::remove(BatchStore.c_str());
  rmdir(("/tmp/bench_serve." + std::to_string(getpid()) + ".batch").c_str());

  benchjson::BenchSeries CycleSeries;
  CycleSeries.Name = "serve.cycles_by_run";
  CycleSeries.Unit = "cycles";
  CycleSeries.LowerIsBetter = true;

  bool Identical = true;
  uint64_t TotalCycles = 0;
  {
    ServerConfig C = serveConfig("serial");
    C.Experiment = Exp;
    C.StoreDir = freshDir("serial");
    PredictionServer Server(C);
    if (!Server.start()) {
      std::fprintf(stderr, "error: cannot start server: %s\n",
                   Server.error().c_str());
      return 2;
    }
    {
      BenchClient Client(C.SocketPath);
      for (size_t I = 0; I != Order.size(); ++I) {
        std::string Response = Client.roundTrip(renderRunInputRequest(
            I + 1, "route", static_cast<uint64_t>(Order[I])));
        uint64_t Cycles = u64Field(Response, "cycles");
        Identical = Identical && strField(Response, "status") == "ok" &&
                    Cycles == Batch.Runs[I].Cycles;
        TotalCycles += Cycles;
        CycleSeries.Samples.push_back(static_cast<double>(Cycles));
      }
    }
    Server.requestDrain();
    if (Server.drainAndWait() != 0) {
      std::fprintf(stderr, "GATE: serial-phase drain failed\n");
      Identical = false;
    }
    removeStoreDir(Server.gateway(), "route", 1);
  }
  if (!Identical) {
    std::fprintf(stderr, "GATE: served serial stream diverges from batch "
                         "runEvolveLaunches — the lanes are leaking state\n");
    ++Failures;
  }
  Metrics.setGauge("serve.identity", Identical ? 1 : 0);
  Metrics.setGauge("serve.runs", static_cast<double>(SerialRuns));
  Metrics.setGauge("serve.cycles.total", static_cast<double>(TotalCycles));
  Table.beginRow();
  Table.addCell("identity served vs batch");
  Table.addCell(Identical ? "cycle-equal" : "DIVERGED");
  Table.addCell(Identical ? "ok" : "FAIL");

  // Gate 2: closed-loop load.  4 clients, one outstanding request each,
  // distinct lanes; a closed loop bounds in-flight at the client count, so
  // under these knobs (MaxQueue 256) every request must be admitted —
  // zero drops is deterministic and gates on every host.
  const size_t LoadClients = 4, LoadRequests = 25;
  uint64_t LoadOk = 0, LoadDropped = 0, LoadErrors = 0;
  {
    ServerConfig C = serveConfig("load");
    C.Experiment = Exp;
    PredictionServer Server(C);
    if (!Server.start()) {
      std::fprintf(stderr, "error: cannot start server: %s\n",
                   Server.error().c_str());
      return 2;
    }
    std::vector<std::thread> Clients;
    std::atomic<uint64_t> Ok{0}, Errors{0};
    for (size_t K = 0; K != LoadClients; ++K)
      Clients.emplace_back([&, K] {
        BenchClient Client(C.SocketPath);
        std::string App = "route:" + std::to_string(K);
        for (size_t I = 0; I != LoadRequests; ++I) {
          std::string Response = Client.roundTrip(renderRunInputRequest(
              I + 1, App, static_cast<uint64_t>(I % 4)));
          if (strField(Response, "status") == "ok")
            Ok.fetch_add(1);
          else
            Errors.fetch_add(1);
        }
      });
    for (std::thread &T : Clients)
      T.join();
    Server.requestDrain();
    if (Server.drainAndWait() != 0)
      ++LoadErrors;
    MetricsSnapshot M = Server.metricsSnapshot();
    for (const char *Reason :
         {"overload", "client_inflight", "draining", "lanes"})
      LoadDropped += M.counter(std::string("server.rejected.") + Reason);
    LoadOk = Ok.load();
    LoadErrors += Errors.load();
  }

  if (LoadDropped != 0 || LoadErrors != 0 ||
      LoadOk != LoadClients * LoadRequests) {
    std::fprintf(stderr,
                 "GATE: closed-loop load dropped requests (%llu ok, %llu "
                 "dropped, %llu errors of %zu) — admission control is "
                 "shedding under-capacity load\n",
                 static_cast<unsigned long long>(LoadOk),
                 static_cast<unsigned long long>(LoadDropped),
                 static_cast<unsigned long long>(LoadErrors),
                 LoadClients * LoadRequests);
    ++Failures;
  }
  Metrics.setGauge("serve.dropped", static_cast<double>(LoadDropped));
  Table.beginRow();
  Table.addCell("zero drops under capacity");
  Table.addCell(static_cast<double>(LoadDropped), 0);
  Table.addCell(LoadDropped == 0 && LoadErrors == 0 ? "ok" : "FAIL");

  std::printf("%s\n", Table.render().c_str());
  std::printf("Expected shape: identity always holds (serial lanes are the "
              "batch recipe);\na closed loop never trips admission "
              "control.\n");

  std::vector<benchjson::BenchSeries> Series = {CycleSeries};
  if (!benchjson::writeBenchJson(JsonPath, "serve", 1, Metrics.snapshot(),
                                 nullptr, &Series))
    return 2;
  return Failures ? 1 : 0;
}
