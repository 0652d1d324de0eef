//===- tests/test_server.cpp - The online prediction service --------------===//
//
// The serving subsystem's contract:
//
//   * the determinism pin: a serial single-client request stream over the
//     socket is byte-identical to rendering the equivalent batch-mode run
//     records, and its per-run cycles match runEvolveLaunches exactly —
//     promoting the VM from batch launches to a daemon changes nothing
//     about what it computes;
//   * admission control: bounded queues answer overload with explicit
//     rejections (never by stalling the socket), per-client caps reject
//     pipelined floods, a serial stream is never rejected;
//   * graceful drain: every admitted request is answered, also while
//     clients keep flooding, and the final checkpoint folds into a
//     loadable, clean global store;
//   * the evm-served daemon drains on a SIGTERM that arrives the moment
//     its socket file appears;
//   * the wire protocol's parse/render round trip.
//
// A test-only lane hold (setLaneHoldHook) keeps admitted requests queued
// where a test needs them to be, so rejection and drain outcomes are exact.
//
//===----------------------------------------------------------------------===//

#include "harness/Fleet.h"
#include "harness/Scenario.h"
#include "server/PredictionServer.h"
#include "store/Json.h"
#include "store/StoreFile.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <set>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace evm;
using namespace evm::server;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "evm_server_" + Name;
}

/// A minimal blocking test client over the daemon socket.
class TestClient {
public:
  explicit TestClient(const std::string &SocketPath) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    EXPECT_LT(SocketPath.size(), sizeof(Addr.sun_path));
    std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
    EXPECT_EQ(
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)), 0)
        << std::strerror(errno);
  }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool send(const std::string &Payload) { return writeFrame(Fd, Payload); }

  std::string recv() {
    std::string Payload, Err;
    FrameStatus S = readFrame(Fd, Payload, Err);
    EXPECT_EQ(S, FrameStatus::Ok) << Err;
    return Payload;
  }

  /// One frame, or false once the server has closed the connection.
  bool tryRecv(std::string &Payload) {
    std::string Err;
    return readFrame(Fd, Payload, Err) == FrameStatus::Ok;
  }

  /// Serial request/response.
  std::string roundTrip(const std::string &Payload) {
    EXPECT_TRUE(send(Payload));
    return recv();
  }

private:
  int Fd = -1;
};

std::string statusOf(const std::string &Response) {
  auto Doc = store::JsonValue::parse(Response);
  if (!Doc || !Doc->isObject())
    return "<unparseable>";
  const store::JsonValue *F = Doc->field("status");
  return F ? F->str() : "<missing>";
}

uint64_t u64Of(const std::string &Response, const char *Name) {
  auto Doc = store::JsonValue::parse(Response);
  if (!Doc || !Doc->isObject())
    return 0;
  const store::JsonValue *F = Doc->field(Name);
  return F ? F->asU64() : 0;
}

ServerConfig baseConfig(const std::string &Tag) {
  ServerConfig C;
  C.SocketPath = tempPath(Tag + ".sock");
  ::unlink(C.SocketPath.c_str());
  return C;
}

std::mutex HoldMutex;
std::condition_variable HoldCV;
bool Holding = false;

void waitWhileHeld() {
  std::unique_lock<std::mutex> L(HoldMutex);
  HoldCV.wait(L, [] { return !Holding; });
}

/// Holds every lane before it runs its next request until release().
/// Declare it after the server, so an early test exit releases the lanes
/// before the server's destructor drains them.
class LaneHold {
public:
  LaneHold() {
    setHolding(true);
    setLaneHoldHook(waitWhileHeld);
  }
  ~LaneHold() {
    release();
    setLaneHoldHook(nullptr);
  }
  void release() { setHolding(false); }

private:
  static void setHolding(bool On) {
    {
      std::lock_guard<std::mutex> L(HoldMutex);
      Holding = On;
    }
    HoldCV.notify_all();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// The determinism pin
//===----------------------------------------------------------------------===//

TEST(PredictionServerTest, SerialStreamMatchesBatchByteForByte) {
  const uint64_t Seed = 1;
  const std::vector<size_t> Order = {0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 3, 2};

  // The batch side: the exact lane recipe, run locally.
  wl::Workload W = harness::buildFleetWorkload("route", Seed);
  harness::ExperimentConfig Exp;
  std::vector<std::string> Expected;
  {
    xicl::XFMethodRegistry Registry;
    W.registerMethods(Registry);
    xicl::FileStore Files;
    W.populateFileStore(Files);
    evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files,
                           harness::makeEvolveConfig(Exp));
    // The lane warm-starts from the gateway snapshot (empty here — a cold
    // start by contract); mirror that so store.* metrics agree too.
    store::KnowledgeStore Empty;
    VM.warmStart(Empty);
    uint64_t Id = 1, Run = 0;
    for (size_t Input : Order) {
      auto Rec =
          VM.runOnce(W.Inputs[Input].CommandLine, W.Inputs[Input].VmArgs);
      ASSERT_TRUE(static_cast<bool>(Rec)) << Rec.getError().message();
      Expected.push_back(renderRunResponse(Id++, "route", ++Run, *Rec));
    }
  }

  // The scenario harness side: per-run cycles from runEvolveLaunches over
  // the same order (one launch, cold store) must agree too.
  std::string StorePath = tempPath("pin.store");
  ::unlink(StorePath.c_str());
  harness::ScenarioRunner Runner(W, Exp);
  harness::ScenarioResult Batch = Runner.runEvolveLaunches(Order, 1, StorePath);
  ASSERT_EQ(Batch.Runs.size(), Order.size());
  ::unlink(StorePath.c_str());

  // The served side: one serial client.
  ServerConfig C = baseConfig("pin");
  C.Seed = Seed;
  C.Experiment = Exp;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  {
    TestClient Client(C.SocketPath);
    for (size_t I = 0; I != Order.size(); ++I) {
      std::string Response = Client.roundTrip(renderRunInputRequest(
          I + 1, "route", static_cast<uint64_t>(Order[I])));
      EXPECT_EQ(Response, Expected[I]) << "request " << I;
      EXPECT_EQ(u64Of(Response, "cycles"), Batch.Runs[I].Cycles)
          << "request " << I;
    }
  }
  EXPECT_EQ(Server.drainAndWait(), 0);

  // Sanity on the serving metrics: every request ran, nothing rejected.
  MetricsSnapshot M = Server.metricsSnapshot();
  std::string Json = M.renderJson();
  EXPECT_NE(Json.find("\"server.responses.ok\""), std::string::npos);
  EXPECT_EQ(Json.find("\"server.rejected."), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(PredictionServerTest, PipelinedFloodGetsExplicitRejections) {
  ServerConfig C = baseConfig("flood");
  C.MaxQueue = 2;
  C.MaxInflightPerClient = 1;
  C.CaptureDecisions = true;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  LaneHold Hold;

  const size_t N = 8;
  size_t NumRejected = 0;
  {
    TestClient Client(C.SocketPath);
    // Pipeline: send everything before reading anything.  The held first
    // request fills the per-client cap of 1, so the other seven come back
    // "rejected", in order, before it is answered.
    for (size_t I = 0; I != N; ++I)
      ASSERT_TRUE(Client.send(renderRunInputRequest(I + 1, "route", 0)));
    for (size_t I = 1; I != N; ++I) {
      std::string Response = Client.recv();
      EXPECT_EQ(u64Of(Response, "id"), I + 1);
      if (statusOf(Response) == "rejected" &&
          Response.find("client_inflight") != std::string::npos)
        ++NumRejected;
    }
    Hold.release();
    std::string First = Client.recv();
    EXPECT_EQ(statusOf(First), "ok");
    EXPECT_EQ(u64Of(First, "id"), 1u);
  }
  EXPECT_EQ(NumRejected, N - 1);
  EXPECT_EQ(Server.drainAndWait(), 0);

  // Rejections leave ledger records with the `rejected` verdict and the
  // reason in Guard — evm-explain's drop-rate source.
  size_t LedgerRejected = 0;
  for (const DecisionRecord &R : Server.decisions())
    if (R.Rejected) {
      ++LedgerRejected;
      EXPECT_EQ(R.App, "route");
      EXPECT_FALSE(R.Guard.empty());
    }
  EXPECT_EQ(LedgerRejected, NumRejected);
}

TEST(PredictionServerTest, BackToBackRoundTripsAtCapOneAreNeverRejected) {
  // A lane releases a request's admission slots before it sends the reply,
  // so a client that sends its next request the moment it reads a reply
  // holds at most one request on the server, even with both caps at one.
  // Fop's input 4 is one of the cheapest runs (100 of them take about
  // 20 ms at -O2), which keeps the test short under TSan.
  ServerConfig C = baseConfig("cap_one");
  C.MaxQueue = 1;
  C.MaxInflightPerClient = 1;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  {
    TestClient Client(C.SocketPath);
    for (uint64_t I = 1; I <= 100; ++I) {
      std::string Response =
          Client.roundTrip(renderRunInputRequest(I, "Fop", 4));
      ASSERT_EQ(statusOf(Response), "ok") << "request " << I << ": "
                                          << Response;
    }
  }
  EXPECT_EQ(Server.drainAndWait(), 0);
  EXPECT_EQ(Server.metricsSnapshot().renderJson().find("\"server.rejected."),
            std::string::npos);
}

TEST(PredictionServerTest, UnknownAppIsAnErrorNotADrop) {
  ServerConfig C = baseConfig("unknown");
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  {
    TestClient Client(C.SocketPath);
    EXPECT_EQ(statusOf(Client.roundTrip(
                  renderRunInputRequest(1, "no_such_workload", 0))),
              "error");
    EXPECT_EQ(statusOf(Client.roundTrip(renderPingRequest(2))), "ok");
  }
  EXPECT_EQ(Server.drainAndWait(), 0);
}

TEST(PredictionServerTest, PingAndStatsAnswerWithoutRunning) {
  ServerConfig C = baseConfig("ping");
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  {
    TestClient Client(C.SocketPath);
    std::string Pong = Client.roundTrip(renderPingRequest(7));
    EXPECT_EQ(statusOf(Pong), "ok");
    EXPECT_EQ(u64Of(Pong, "id"), 7u);
    EXPECT_EQ(u64Of(Pong, "pong"), 1u);
    std::string Stats = Client.roundTrip(renderStatsRequest(8));
    EXPECT_EQ(statusOf(Stats), "ok");
    EXPECT_NE(Stats.find("server.requests.ping"), std::string::npos);
  }
  EXPECT_EQ(Server.drainAndWait(), 0);
}

//===----------------------------------------------------------------------===//
// Graceful drain
//===----------------------------------------------------------------------===//

TEST(PredictionServerTest, DrainAnswersEveryAdmittedRequest) {
  std::string StoreDir = tempPath("drain_stores");
  ::system(("rm -rf " + StoreDir).c_str());

  ServerConfig C = baseConfig("drain");
  C.StoreDir = StoreDir;
  C.MaxInflightPerClient = 64;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  LaneHold Hold;

  const size_t N = 6;
  size_t NumOk = 0;
  {
    TestClient Client(C.SocketPath);
    for (size_t I = 0; I != N; ++I)
      ASSERT_TRUE(
          Client.send(renderRunInputRequest(I + 1, "route", I % 4)));
    // The reader answers one connection's frames in order, and the held
    // lane answers none yet, so a pong as the first reply proves all N
    // requests were admitted.  Drain then begins with every one of them
    // still queued, and each must still be answered "ok".
    std::string Pong = Client.roundTrip(renderPingRequest(N + 1));
    ASSERT_EQ(u64Of(Pong, "pong"), 1u) << Pong;
    EXPECT_EQ(Server.metricsSnapshot().counter("server.requests.run"), N);
    Server.requestDrain();
    Hold.release();
    EXPECT_EQ(Server.drainAndWait(), 0);
    for (size_t I = 0; I != N; ++I)
      if (statusOf(Client.recv()) == "ok")
        ++NumOk;
  }
  EXPECT_EQ(NumOk, N);

  // The final fold's global store is loadable and clean.
  store::KnowledgeStore KS;
  store::StoreReadStats Stats;
  ASSERT_EQ(store::loadStoreFile(StoreDir + "/global-route.store", KS, Stats),
            store::LoadStatus::Loaded);
  EXPECT_TRUE(Stats.clean());
  EXPECT_FALSE(KS.empty());
  EXPECT_EQ(KS.Header.App, "route");
}

TEST(PredictionServerTest, RequestsAfterDrainAreRejectedAsDraining) {
  ServerConfig C = baseConfig("late");
  C.CaptureDecisions = true;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();
  TestClient Client(C.SocketPath);
  // Prove the connection works, then drain and send another request on
  // the still-open connection: it must get an explicit "draining".
  EXPECT_EQ(statusOf(Client.roundTrip(renderPingRequest(1))), "ok");
  Server.requestDrain();
  std::string Response =
      Client.roundTrip(renderRunInputRequest(2, "route", 0));
  EXPECT_EQ(statusOf(Response), "rejected");
  EXPECT_NE(Response.find("draining"), std::string::npos);
  EXPECT_EQ(Server.drainAndWait(), 0);
}

TEST(PredictionServerTest, DrainDuringConcurrentFloodAnswersEveryOkOnce) {
  // Drain shuts connections down while clients still write to them; those
  // writes fail by design and must not raise SIGPIPE in this process.
  std::signal(SIGPIPE, SIG_IGN);
  ServerConfig C = baseConfig("flood_drain");
  C.MaxInflightPerClient = 4;
  const size_t Window = C.MaxInflightPerClient;
  PredictionServer Server(C);
  ASSERT_TRUE(Server.start()) << Server.error();

  // Four clients on two apps, each keeping Window requests in flight until
  // drain closes its connection.  A client counts its ok replies by id;
  // "draining" rejections only free a slot.  Once drain has begun, a
  // client can only be served requests it was already waiting for, at
  // most Window of them (LateOk).  It stops sending past that, so a server
  // that keeps admitting during drain fails the check below instead of
  // never finishing its drain.
  const size_t NumClients = 4;
  std::atomic<bool> DrainBegun{false};
  std::vector<std::atomic<uint64_t>> OkReplies(NumClients);
  std::vector<uint64_t> LateOk(NumClients, 0), Duplicates(NumClients, 0),
      Unsent(NumClients, 0);
  std::vector<std::thread> Clients;
  for (size_t K = 0; K != NumClients; ++K)
    Clients.emplace_back([&, K] {
      TestClient Client(C.SocketPath);
      std::string App = "route:" + std::to_string(K % 2);
      std::set<uint64_t> Outstanding, Answered;
      uint64_t NextId = 1;
      bool Writable = true;
      while (true) {
        while (Writable && Outstanding.size() < Window &&
               LateOk[K] <= Window) {
          Writable =
              Client.send(renderRunInputRequest(NextId, App, NextId % 4));
          if (Writable)
            Outstanding.insert(NextId++);
        }
        std::string Reply;
        if (!Client.tryRecv(Reply))
          break; // drain shut the connection down
        uint64_t Id = u64Of(Reply, "id");
        if (statusOf(Reply) == "ok") {
          Unsent[K] += Outstanding.count(Id) == 0;
          Duplicates[K] += !Answered.insert(Id).second;
          LateOk[K] += DrainBegun.load();
          OkReplies[K].fetch_add(1);
        }
        Outstanding.erase(Id);
      }
    });

  // Drain once every client has had a few requests served.
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (size_t K = 0; K != NumClients; ++K)
    while (OkReplies[K].load() < 3 &&
           std::chrono::steady_clock::now() < Until)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Server.requestDrain();
  DrainBegun = true;
  EXPECT_EQ(Server.drainAndWait(), 0);
  for (std::thread &T : Clients)
    T.join();

  MetricsSnapshot M = Server.metricsSnapshot();
  uint64_t Rejected = 0;
  for (const char *Reason :
       {"overload", "client_inflight", "draining", "lanes"})
    Rejected += M.counter(std::string("server.rejected.") + Reason);
  uint64_t Ok = M.counter("server.responses.ok");
  EXPECT_EQ(M.counter("server.requests.run"),
            Ok + M.counter("server.responses.error") + Rejected);
  EXPECT_EQ(M.counter("server.responses.error"), 0u);
  // A request whose reply its client has read has released its slots, so a
  // client that sends only with fewer than Window requests unanswered is
  // below every cap when the server admits it.  Only drain may reject.
  EXPECT_EQ(M.counter("server.rejected.client_inflight"), 0u);
  EXPECT_EQ(M.counter("server.rejected.overload"), 0u);

  // Lanes finish before the connections are shut down, so every ok reply
  // reached its client, exactly once and for a request it sent.
  uint64_t ClientOk = 0;
  for (size_t K = 0; K != NumClients; ++K) {
    EXPECT_GE(OkReplies[K].load(), 3u) << "client " << K;
    EXPECT_LE(LateOk[K], Window) << "client " << K << " served after drain";
    EXPECT_EQ(Duplicates[K], 0u) << "client " << K;
    EXPECT_EQ(Unsent[K], 0u) << "client " << K;
    ClientOk += OkReplies[K].load();
  }
  EXPECT_EQ(ClientOk, Ok);
}

TEST(EvmServedTest, SigtermRightAfterReadinessDrainsCleanly) {
  // The socket file is evm-served's readiness signal, and it appears at
  // bind, inside start().  A supervisor that stops the daemon the moment
  // it sees the file must still get a graceful drain: exit 0, socket file
  // removed.
  std::string Socket = tempPath("sigterm.sock");
  std::string SocketArg = "--socket=" + Socket;
  for (int Try = 0; Try != 50; ++Try) {
    ::unlink(Socket.c_str());
    char *Argv[] = {const_cast<char *>(EVM_SERVED_PATH), SocketArg.data(),
                    nullptr};
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
    pid_t Pid = -1;
    int SpawnRc =
        posix_spawn(&Pid, EVM_SERVED_PATH, &FA, nullptr, Argv, environ);
    posix_spawn_file_actions_destroy(&FA);
    ASSERT_EQ(SpawnRc, 0) << std::strerror(SpawnRc);

    struct stat St;
    auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::stat(Socket.c_str(), &St) != 0 &&
           std::chrono::steady_clock::now() < Until) {
    }
    ::kill(Pid, SIGTERM);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    ASSERT_TRUE(WIFEXITED(Status))
        << "try " << Try << ": killed by signal " << WTERMSIG(Status);
    ASSERT_EQ(WEXITSTATUS(Status), 0) << "try " << Try;
    ASSERT_NE(::stat(Socket.c_str(), &St), 0)
        << "try " << Try << ": socket file left behind";
  }
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, RunRequestRoundTripsBothForms) {
  std::string Err;
  auto Indexed = parseRequest(renderRunInputRequest(42, "route:3", 7), Err);
  ASSERT_TRUE(Indexed.has_value()) << Err;
  EXPECT_EQ(Indexed->TheOp, Request::Op::Run);
  EXPECT_EQ(Indexed->Id, 42u);
  EXPECT_EQ(Indexed->Run.App, "route:3");
  ASSERT_TRUE(Indexed->Run.HasInput);
  EXPECT_EQ(Indexed->Run.Input, 7u);

  // Raw cmdline form: arg spelling decides int vs float, exactly like
  // evm_cli's RUNS.txt grammar — including float zero.
  std::vector<bc::Value> Args = {bc::Value::makeInt(3),
                                 bc::Value::makeFloat(0.0),
                                 bc::Value::makeFloat(2.5)};
  auto Raw = parseRequest(
      renderRunRawRequest(43, "route", "prog -n 3 \"x y\"", Args), Err);
  ASSERT_TRUE(Raw.has_value()) << Err;
  ASSERT_FALSE(Raw->Run.HasInput);
  EXPECT_EQ(Raw->Run.CommandLine, "prog -n 3 \"x y\"");
  ASSERT_EQ(Raw->Run.Args.size(), 3u);
  EXPECT_TRUE(Raw->Run.Args[0].isInt());
  EXPECT_EQ(Raw->Run.Args[0].asInt(), 3);
  EXPECT_TRUE(Raw->Run.Args[1].isFloat());
  EXPECT_TRUE(Raw->Run.Args[2].isFloat());
  EXPECT_DOUBLE_EQ(Raw->Run.Args[2].asFloat(), 2.5);
}

TEST(ProtocolTest, MalformedRequestsAreRejectedWithReasons) {
  std::string Err;
  EXPECT_FALSE(parseRequest("not json", Err).has_value());
  EXPECT_FALSE(parseRequest("{}", Err).has_value());
  EXPECT_FALSE(parseRequest("{\"op\":\"run\",\"id\":1}", Err).has_value())
      << "run without app must not parse";
  EXPECT_FALSE(
      parseRequest("{\"op\":\"frobnicate\",\"id\":1}", Err).has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(ProtocolTest, FramesSurviveASocketPair) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  std::string Payload(100000, 'x'); // bigger than any single read
  Payload += "tail";
  ASSERT_TRUE(writeFrame(Fds[0], Payload));
  std::string Got, Err;
  ASSERT_EQ(readFrame(Fds[1], Got, Err), FrameStatus::Ok) << Err;
  EXPECT_EQ(Got, Payload);

  // Clean EOF when the peer closes between frames.
  ::close(Fds[0]);
  EXPECT_EQ(readFrame(Fds[1], Got, Err), FrameStatus::Eof);
  ::close(Fds[1]);

  // An oversized length prefix is a protocol error, not an allocation.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  unsigned char Huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(Fds[0], Huge, 4), 4);
  EXPECT_EQ(readFrame(Fds[1], Got, Err), FrameStatus::Error);
  ::close(Fds[0]);
  ::close(Fds[1]);
}
