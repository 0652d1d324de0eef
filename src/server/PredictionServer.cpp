//===- server/PredictionServer.cpp ----------------------------------------===//

#include "server/PredictionServer.h"

#include "harness/Fleet.h"
#include "support/Format.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace evm;
using namespace evm::server;

namespace {

/// See setLaneHoldHook.
std::atomic<LaneHoldHook> HoldHook{nullptr};

} // namespace

void server::setLaneHoldHook(LaneHoldHook Hook) { HoldHook.store(Hook); }

//===----------------------------------------------------------------------===//
// ClientConn
//===----------------------------------------------------------------------===//

ClientConn::~ClientConn() {
  if (Fd >= 0)
    ::close(Fd);
}

bool ClientConn::send(const std::string &Payload) {
  std::lock_guard<std::mutex> L(WriteMutex);
  return writeFrame(Fd, Payload);
}

void ClientConn::shutdownBoth() { ::shutdown(Fd, SHUT_RDWR); }

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

PredictionServer::PredictionServer(ServerConfig C) : C(std::move(C)) {}

PredictionServer::~PredictionServer() {
  if (!Drained.load())
    drainAndWait();
}

bool PredictionServer::start() {
  if (C.SocketPath.empty()) {
    Err = "no socket path configured";
    return false;
  }
  // requestDrain writes a byte here to wake the accept loop; drainAndWait
  // closes both ends.
  if (::pipe(WakePipe) != 0) {
    Err = formatString("pipe: %s", std::strerror(errno));
    return false;
  }
  Gateway = std::make_unique<StoreGateway>(C.StoreDir);
  if (!C.StoreDir.empty() && Gateway->dir().empty()) {
    Err = "cannot create store directory " + C.StoreDir;
    return false;
  }

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = formatString("socket: %s", std::strerror(errno));
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (C.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long: " + C.SocketPath;
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  std::memcpy(Addr.sun_path, C.SocketPath.c_str(), C.SocketPath.size());
  ::unlink(C.SocketPath.c_str()); // stale socket from a previous daemon
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Err = formatString("bind %s: %s", C.SocketPath.c_str(),
                       std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) != 0) {
    Err = formatString("listen: %s", std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  RejectLedger.setEnabled(C.CaptureDecisions);
  Running = true;
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void PredictionServer::requestDrain() {
  // Only the first call writes, so no write can race drainAndWait's close.
  if (!Draining.exchange(true) && WakePipe[1] >= 0) {
    char Byte = 0;
    while (::write(WakePipe[1], &Byte, 1) < 0 && errno == EINTR) {
    }
  }
}

int PredictionServer::drainAndWait() {
  if (Drained.load())
    return 0;
  requestDrain();

  // 1. Stop accepting.  requestDrain has woken the accept loop.
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(C.SocketPath.c_str());
  }
  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }

  // 2. Stop admission.  Readers push onto a lane, or create one, only under
  // LanesMutex and only while Draining is unset, so once the lanes are
  // collected here no request reaches a lane.  New frames keep arriving on
  // live connections; readers answer "draining".
  std::vector<Lane *> All;
  {
    std::lock_guard<std::mutex> L(LanesMutex);
    for (auto &P : Lanes)
      All.push_back(P.get());
  }

  // 3. Let every lane finish its queue and publish its final checkpoint.
  for (Lane *L : All) {
    {
      std::lock_guard<std::mutex> QL(L->M);
      L->Stop = true;
    }
    L->CV.notify_all();
    if (L->Thread.joinable())
      L->Thread.join();
  }

  // 4. Final fold: the global stores `evm-store validate` must accept.
  size_t FoldFailures = Gateway ? Gateway->foldAll() : 0;

  // 5. Unblock and join the readers (all admitted requests are answered
  // by now, so closing cannot lose a response).
  {
    std::lock_guard<std::mutex> CL(ConnMutex);
    for (auto &Conn : Conns)
      Conn->shutdownBoth();
  }
  std::vector<std::thread> Rs;
  {
    std::lock_guard<std::mutex> CL(ConnMutex);
    Rs.swap(Readers);
  }
  for (std::thread &T : Rs)
    if (T.joinable())
      T.join();
  {
    std::lock_guard<std::mutex> CL(ConnMutex);
    Conns.clear();
  }

  Metrics.setGauge("server.inflight.peak",
                   static_cast<double>(PeakInFlight.load()));
  {
    std::lock_guard<std::mutex> L(LanesMutex);
    Metrics.setGauge("server.lanes", static_cast<double>(Lanes.size()));
  }
  Running = false;
  Drained = true;
  return FoldFailures ? 3 : 0;
}

std::vector<DecisionRecord> PredictionServer::decisions() const {
  std::vector<DecisionRecord> Out;
  {
    std::lock_guard<std::mutex> L(LanesMutex);
    for (const auto &P : Lanes)
      for (DecisionRecord &R : P->Ledger.exportOrder())
        Out.push_back(std::move(R));
  }
  {
    std::lock_guard<std::mutex> L(RejectMutex);
    for (DecisionRecord &R : RejectLedger.exportOrder())
      Out.push_back(std::move(R));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Accept / read path
//===----------------------------------------------------------------------===//

void PredictionServer::acceptLoop() {
  pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakePipe[0], POLLIN, 0}};
  while (!Draining.load()) {
    // No timeout: a connection or requestDrain's byte wakes the poll.
    int R = ::poll(P, 2, -1);
    if (R < 0 && errno != EINTR)
      break;
    // Re-checked before accept, so accept never blocks once drain has begun.
    if (R <= 0 || !(P[0].revents & POLLIN) || Draining.load())
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto Conn = std::make_shared<ClientConn>(Fd);
    Metrics.add("server.connections");
    std::lock_guard<std::mutex> L(ConnMutex);
    Conns.push_back(Conn);
    Readers.emplace_back([this, Conn] { serveClient(Conn); });
  }
}

void PredictionServer::serveClient(std::shared_ptr<ClientConn> Conn) {
  while (true) {
    std::string Payload, FrameErr;
    FrameStatus S = readFrame(Conn->fd(), Payload, FrameErr);
    if (S == FrameStatus::Eof)
      break;
    if (S == FrameStatus::Error) {
      // Covers genuine protocol garbage and the drain-time shutdown that
      // unblocks this reader; either way the stream is unusable.
      Metrics.add("server.frames.bad");
      break;
    }
    handleRequest(Conn, Payload);
  }
}

void PredictionServer::reject(const std::shared_ptr<ClientConn> &Conn,
                              uint64_t Id, const std::string &App,
                              const char *Reason) {
  Metrics.add(std::string("server.rejected.") + Reason);
  Conn->send(renderRejectedResponse(Id, Reason));
  if (C.CaptureDecisions) {
    // The overload satellite: rejected requests leave a ledger line with
    // the `rejected` verdict (reason in Guard) so evm-explain can report
    // per-app drop rates.
    DecisionRecord R;
    R.App = App;
    R.Guard = Reason;
    R.Rejected = true;
    std::lock_guard<std::mutex> L(RejectMutex);
    RejectLedger.record(std::move(R));
  }
}

void PredictionServer::handleRequest(const std::shared_ptr<ClientConn> &Conn,
                                     const std::string &Payload) {
  std::string ParseErr;
  std::optional<Request> Req = parseRequest(Payload, ParseErr);
  if (!Req) {
    Metrics.add("server.requests.bad");
    Conn->send(renderErrorResponse(0, ParseErr));
    return;
  }

  switch (Req->TheOp) {
  case Request::Op::Ping:
    Metrics.add("server.requests.ping");
    Conn->send(renderPongResponse(Req->Id));
    return;
  case Request::Op::Stats:
    Metrics.add("server.requests.stats");
    Conn->send(
        renderStatsResponse(Req->Id, Metrics.snapshot().renderJson()));
    return;
  case Request::Op::Run:
    break;
  }

  Metrics.add("server.requests.run");
  std::string App = Req->Run.App;

  // A typo'd app is an error, not a drop: validate the base workload name
  // before admission so drop rates only count genuine load shedding.
  std::string Base = App.substr(0, App.find(':'));
  const std::vector<std::string> &Known = wl::workloadNames();
  if (Base != "route" &&
      std::find(Known.begin(), Known.end(), Base) == Known.end()) {
    Metrics.add("server.requests.bad");
    Conn->send(renderErrorResponse(
        Req->Id, formatString("unknown app '%s'", Base.c_str())));
    return;
  }

  QueuedRequest Item;
  Item.Req = std::move(Req->Run);
  Item.Id = Req->Id;
  Item.Client = Conn;
  Item.Enqueued = std::chrono::steady_clock::now();
  // Rejections answer immediately — the socket never stalls under
  // overload.
  if (const char *Reason = admit(Item))
    reject(Conn, Req->Id, App, Reason);
}

//===----------------------------------------------------------------------===//
// Admission and lanes
//===----------------------------------------------------------------------===//

const char *PredictionServer::admit(QueuedRequest &Item) {
  // Drain sets Draining before it collects the lanes under this mutex, so
  // a request admitted here is on its lane's FIFO before drain stops and
  // joins that lane, and no lane is created after the collection.
  std::lock_guard<std::mutex> LG(LanesMutex);
  // Cheapest check first.
  if (Draining.load())
    return "draining";
  if (InFlight.load() >= C.MaxQueue)
    return "overload";
  if (Item.Client->Inflight.load() >= C.MaxInflightPerClient)
    return "client_inflight";
  Lane *L = laneFor(Item.Req.App);
  if (!L)
    return "lanes";

  size_t Cur = InFlight.fetch_add(1) + 1;
  Item.Client->Inflight.fetch_add(1);
  PeakInFlight.store(std::max(PeakInFlight.load(), Cur));
  {
    std::lock_guard<std::mutex> QL(L->M);
    L->Queue.push_back(std::move(Item));
  }
  // Notify after every push: a lane that misses a wakeup would strand its
  // last request, since no later request comes to wake it.
  L->CV.notify_all();
  return nullptr;
}

PredictionServer::Lane *PredictionServer::laneFor(const std::string &App) {
  auto It = LaneByApp.find(App);
  if (It != LaneByApp.end())
    return It->second;
  if (Lanes.size() >= C.MaxLanes)
    return nullptr;
  auto NewLane = std::make_unique<Lane>();
  NewLane->App = App;
  NewLane->WorkloadName = App.substr(0, App.find(':'));
  NewLane->Index = Lanes.size();
  Lane *Ptr = NewLane.get();
  Lanes.push_back(std::move(NewLane));
  LaneByApp[App] = Ptr;
  Ptr->Thread = std::thread([this, Ptr] { laneMain(*Ptr); });
  return Ptr;
}

void PredictionServer::finishItem(const QueuedRequest &Item) {
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Item.Enqueued)
                .count();
  Metrics.observe("server.latency.us", static_cast<double>(Us));
  InFlight.fetch_sub(1);
  Item.Client->Inflight.fetch_sub(1);
}

void PredictionServer::laneMain(Lane &L) {
  // The lane's persistent EvolvableVM: exactly the fleet tenant recipe
  // (buildFleetWorkload + makeEvolveConfig), so a serial request stream
  // reproduces batch-mode behaviour byte-for-byte.
  wl::Workload W = harness::buildFleetWorkload(L.WorkloadName, C.Seed);
  xicl::XFMethodRegistry Registry;
  W.registerMethods(Registry);
  xicl::FileStore Files;
  W.populateFileStore(Files);
  evolve::EvolvableVM VM(W.Module, W.XiclSpec, &Registry, &Files,
                         harness::makeEvolveConfig(C.Experiment));
  if (C.CaptureDecisions) {
    L.Ledger.setEnabled(true);
    VM.setLedger(&L.Ledger, L.App);
  }
  {
    // Warm start from the published snapshot.  The shared_ptr keeps the
    // document alive and immutable regardless of concurrent publishes.
    StoreGateway::Snapshot Snap = Gateway->snapshot(L.App);
    VM.warmStart(*Snap);
  }
  Metrics.add("server.lanes.created");

  uint64_t Launch = 0;
  size_t RunsSince = 0;
  auto Publish = [&] {
    ++Launch;
    // Fleet-style generation striping by lane index: concurrent lanes'
    // checkpoints merge under a total order.
    uint64_t Gen =
        (L.Index + 1) * harness::FleetRunner::GenerationStride + Launch;
    store::KnowledgeStore KS = VM.checkpoint(Gen);
    KS.Header.App = L.App;
    if (Gateway->publish(L.App, L.Index, KS))
      Metrics.add("server.checkpoints.published");
    else
      Metrics.add("server.checkpoints.failed");
  };

  while (true) {
    QueuedRequest Item;
    {
      std::unique_lock<std::mutex> QL(L.M);
      L.CV.wait(QL, [&] { return L.Stop || !L.Queue.empty(); });
      if (L.Queue.empty())
        break; // Stop requested and the queue is drained
      Item = std::move(L.Queue.front());
      L.Queue.pop_front();
    }
    if (LaneHoldHook Hold = HoldHook.load())
      Hold();

    std::string Response;
    bool Ok = false;
    if (Item.Req.HasInput && Item.Req.Input >= W.Inputs.size()) {
      Response = renderErrorResponse(
          Item.Id,
          formatString("input %llu out of range (%zu inputs)",
                       static_cast<unsigned long long>(Item.Req.Input),
                       W.Inputs.size()));
    } else {
      const std::string &Cmd = Item.Req.HasInput
                                   ? W.Inputs[Item.Req.Input].CommandLine
                                   : Item.Req.CommandLine;
      const std::vector<bc::Value> &Args =
          Item.Req.HasInput ? W.Inputs[Item.Req.Input].VmArgs
                            : Item.Req.Args;
      auto Record = VM.runOnce(Cmd, Args);
      if (!Record) {
        Response =
            renderErrorResponse(Item.Id, Record.getError().message());
      } else {
        Response = renderRunResponse(Item.Id, L.App, VM.numRuns(), *Record);
        Ok = true;
      }
    }
    // Release the request's admission slots before the reply goes out: a
    // client that sends its next request the moment it reads this reply
    // must find its slot free.
    Metrics.add(Ok ? "server.responses.ok" : "server.responses.error");
    finishItem(Item);
    Item.Client->send(Response);

    if (Ok) {
      ++RunsSince;
      if (C.CheckpointEvery && RunsSince >= C.CheckpointEvery) {
        Publish();
        RunsSince = 0;
      }
    }
  }

  // Final checkpoint at drain — the knowledge the fold persists.
  if (VM.numRuns() != 0)
    Publish();
}
