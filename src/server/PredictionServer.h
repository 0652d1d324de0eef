//===- server/PredictionServer.h - The online prediction service ----------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon that promotes EvolvableVM from batch launches to a
/// long-running online service (the ROADMAP's "heavy traffic" north star):
///
///   clients ──unix socket──> reader threads ──admission──> per-app lane
///        FIFOs (persistent EvolvableVM) ──checkpoints──> StoreGateway
///        snapshots ──fold──> global stores
///
///   - One reader thread per connection parses frames (server/Protocol.h)
///     and applies admission control *before* queueing: a global in-flight
///     bound (explicit "overload" rejections — shed load, never stall the
///     socket), a per-client in-flight cap ("client_inflight"), and a lane
///     cap ("lanes").  Rejections are answered immediately and recorded in
///     the decision ledger with the `rejected` verdict so evm-explain can
///     report drop rates per app.  An admitted request goes straight onto
///     its lane's FIFO, and the reader creates the lane on demand.
///   - Each lane owns one persistent EvolvableVM for its app id
///     ("workload[:instance]"), warm-started from the StoreGateway's
///     snapshot at lane creation, executing its queue strictly FIFO — so a
///     serial single-client stream is *deterministic*: byte-identical to
///     the equivalent batch runEvolveLaunches (the pin in
///     tests/test_server.cpp).  Lanes publish checkpoints every
///     CheckpointEvery runs (0 = only at drain) under fleet-style striped
///     generations.
///   - Graceful drain (SIGTERM in tools/evm-served): stop accepting, answer
///     new frames with "draining", let every lane finish its queue, publish
///     final checkpoints, fold all global stores (the final checkpoint
///     `evm-store validate` must accept), then unblock and join the
///     readers.  Every admitted request is either on a lane's FIFO before
///     drain stops that lane, or answered "draining".
///
/// Observability: server.* metrics in a thread-safe MetricsRegistry —
/// request/response counters, rejection counters by reason, and a
/// request-latency histogram (host microseconds, from admission until the
/// response is ready to send; P50/P99 via the registry's percentile
/// summaries).  Like fleet mode, engine-level trace recording stays
/// detached on the serving hot path: concurrent lanes interleaving into one
/// recorder would destroy append-order determinism.  Latencies are host
/// time and therefore live only in metrics, never in response payloads —
/// responses stay pure functions of the run records.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SERVER_PREDICTIONSERVER_H
#define EVM_SERVER_PREDICTIONSERVER_H

#include "harness/Scenario.h"
#include "server/Protocol.h"
#include "server/StoreGateway.h"
#include "support/DecisionLedger.h"
#include "support/Metrics.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace evm {
namespace server {

/// One accepted connection: the reader thread parses its frames; lanes
/// answer through send() (serialized by the write mutex, so concurrent
/// lanes never interleave bytes of two frames).
class ClientConn {
public:
  explicit ClientConn(int Fd) : Fd(Fd) {}
  ~ClientConn();
  ClientConn(const ClientConn &) = delete;
  ClientConn &operator=(const ClientConn &) = delete;

  /// Writes one frame (thread-safe).  False once the peer is gone.
  bool send(const std::string &Payload);

  /// Unblocks a reader stuck in readFrame (drain teardown).
  void shutdownBoth();

  int fd() const { return Fd; }

  /// Requests admitted but not yet answered (the per-client cap).
  std::atomic<size_t> Inflight{0};

private:
  int Fd;
  std::mutex WriteMutex;
};

/// One admitted run request on its lane's FIFO: what to run, whom to
/// answer, and when it was admitted (the latency histogram measures from
/// admission until the response is ready to send).
struct QueuedRequest {
  RunRequest Req;
  uint64_t Id = 0;
  std::shared_ptr<ClientConn> Client;
  std::chrono::steady_clock::time_point Enqueued;
};

/// Test-only: when a hook is installed, every lane calls it before it runs
/// each request, so a test can keep admitted requests queued until it
/// releases the hook.  Production code never installs one.  Install
/// nullptr to restore normal behaviour.
using LaneHoldHook = void (*)();
void setLaneHoldHook(LaneHoldHook Hook);

/// Serving knobs.  The determinism pin holds for any values as long as the
/// request stream is serial; the admission knobs only shape concurrency
/// behaviour.
struct ServerConfig {
  std::string SocketPath;
  /// Shard + global store directory (empty = nothing persists).
  std::string StoreDir;
  /// Workload build seed (the fleet's Seed knob).
  uint64_t Seed = 1;
  /// Cap on distinct app lanes ("lanes" rejections beyond it).
  size_t MaxLanes = 8;
  /// Global bound on admitted-but-unanswered requests ("overload").
  size_t MaxQueue = 256;
  /// Per-client bound ("client_inflight").
  size_t MaxInflightPerClient = 64;
  /// Publish lane checkpoints every N runs; 0 = only at drain.  Note that
  /// periodic publication feeds *later-created* lanes' warm starts — fresh
  /// knowledge at the price of creation-time dependence; the determinism
  /// pin uses a single lane, where cadence is invisible.
  size_t CheckpointEvery = 0;
  /// Per-lane decision ledgers + rejected-request records.
  bool CaptureDecisions = false;
  /// Scenario knobs shared with batch mode (harness::makeEvolveConfig).
  harness::ExperimentConfig Experiment;
};

class PredictionServer {
public:
  explicit PredictionServer(ServerConfig C);
  ~PredictionServer();

  /// Binds the socket and starts the accept thread.  False on failure (see
  /// error()).  The socket file appears at bind, before this returns, and
  /// is the daemon's readiness signal.
  bool start();

  /// Begins drain: stop accepting connections, reject new run requests
  /// with "draining".  Cheap and idempotent; the heavy lifting happens in
  /// drainAndWait().
  void requestDrain();

  /// Completes the drain: stops admission, lets every lane finish its
  /// queue and publish its final checkpoint, folds all global stores, and
  /// joins every thread.  Returns 0 on success, 3 when any final store
  /// fold failed (the daemon's exit code).
  int drainAndWait();

  bool running() const { return Running.load(); }
  const std::string &error() const { return Err; }
  const ServerConfig &config() const { return C; }
  const StoreGateway &gateway() const { return *Gateway; }

  /// Point-in-time server.* metrics.
  MetricsSnapshot metricsSnapshot() const { return Metrics.snapshot(); }

  /// Decision records: per-lane ledgers in lane-creation order, then the
  /// admission-rejection stream.  Call after drainAndWait() for the
  /// complete picture.
  std::vector<DecisionRecord> decisions() const;

private:
  struct Lane {
    std::string App;          ///< full lane id ("route:1")
    std::string WorkloadName; ///< base workload ("route")
    size_t Index = 0;         ///< generation stripe + shard file index
    std::thread Thread;
    std::mutex M;
    std::condition_variable CV;
    std::deque<QueuedRequest> Queue;
    bool Stop = false;
    DecisionLedger Ledger{size_t(1) << 16};
  };

  void acceptLoop();
  void serveClient(std::shared_ptr<ClientConn> Conn);
  void handleRequest(const std::shared_ptr<ClientConn> &Conn,
                     const std::string &Payload);
  void reject(const std::shared_ptr<ClientConn> &Conn, uint64_t Id,
              const std::string &App, const char *Reason);
  /// Admission control: pushes \p Item onto its lane's FIFO and returns
  /// null, or returns the rejection reason.
  const char *admit(QueuedRequest &Item);
  /// Caller holds LanesMutex.  Creates on demand; null at cap.
  Lane *laneFor(const std::string &App);
  void laneMain(Lane &L);
  void finishItem(const QueuedRequest &Item);

  ServerConfig C;
  std::string Err;
  int ListenFd = -1;
  /// Self-pipe that wakes the accept loop's poll on drain.
  int WakePipe[2] = {-1, -1};
  std::atomic<bool> Running{false};
  std::atomic<bool> Draining{false};
  std::atomic<bool> Drained{false};
  std::thread AcceptThread;
  std::unique_ptr<StoreGateway> Gateway;
  MetricsRegistry Metrics;

  std::atomic<size_t> InFlight{0};
  std::atomic<size_t> PeakInFlight{0};

  mutable std::mutex ConnMutex;
  std::vector<std::shared_ptr<ClientConn>> Conns;
  std::vector<std::thread> Readers;

  mutable std::mutex LanesMutex;
  std::vector<std::unique_ptr<Lane>> Lanes; ///< creation order
  std::map<std::string, Lane *> LaneByApp;

  mutable std::mutex RejectMutex;
  DecisionLedger RejectLedger{size_t(1) << 16};
};

} // namespace server
} // namespace evm

#endif // EVM_SERVER_PREDICTIONSERVER_H
