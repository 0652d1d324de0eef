//===- vm/CompileWorker.h - Background compile workers --------------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompileWorkerPool: the background compilation pipeline modeled on Jikes
/// RVM's dedicated compilation thread.  The workers are *virtual*: a
/// deterministic scheduler on the execution thread decides which worker
/// takes a request and when the finished code becomes installable:
///
///   StartCycle   = max(RequestCycle + CompileQueueDelayCycles,
///                      WorkerFreeCycle[w])      (w = earliest-free worker,
///                                                lowest index on ties)
///   ReadyAtCycle = StartCycle + CostCycles
///   WorkerFreeCycle[w] = ReadyAtCycle
///
/// The code itself is compiled on the execution thread when takeReady()
/// hands it out.  jit::compileAtLevel is pure and its host time never
/// reaches the virtual clock, so two runs with the same seed and worker
/// count produce bit-identical clocks.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_COMPILEWORKER_H
#define EVM_VM_COMPILEWORKER_H

#include "bytecode/Module.h"
#include "support/Trace.h"
#include "vm/Timing.h"
#include "vm/jit/Compiler.h"

#include <memory>
#include <vector>

namespace evm {
namespace vm {

/// One background compilation request, scheduled on the virtual timeline
/// by CompileWorkerPool::request.
struct CompileRequest {
  bc::MethodId Method = 0;
  OptLevel Level = OptLevel::O0;
  uint64_t SeqNo = 0;        ///< enqueue order; deterministic install tiebreak
  uint64_t RequestCycle = 0; ///< virtual cycle the request was issued
  uint64_t StartCycle = 0;   ///< virtual cycle the assigned worker begins
  uint64_t ReadyAtCycle = 0; ///< virtual cycle the code becomes installable
  uint64_t CostCycles = 0;   ///< modeled compile cost (worker-timeline time)
  unsigned Worker = 0;       ///< virtual worker index
};

/// A finished background compilation: the request plus the compiled code.
struct CompileResult {
  CompileRequest Request;
  std::shared_ptr<const jit::CompiledFunction> Code;
};

/// A pool of virtual background compile workers for one module.
class CompileWorkerPool {
public:
  /// Models TM.NumCompileWorkers workers (at least one; a pool is only
  /// created when the model is asynchronous).
  CompileWorkerPool(const bc::Module &M, const TimingModel &TM);

  /// Enqueues a background compile of \p Id at \p L issued at virtual cycle
  /// \p NowCycles with modeled cost \p CostCycles.  Returns false when the
  /// request was dropped: a compile of \p Id at >= \p L is already in
  /// flight (coalescing), or TM.CompileQueueCapacity requests are already
  /// in flight (checked against the virtual in-flight set so the decision
  /// is deterministic).
  bool request(bc::MethodId Id, OptLevel L, uint64_t NowCycles,
               uint64_t CostCycles);

  /// True when a compile of \p Id at a level >= \p L is in flight.
  bool hasPending(bc::MethodId Id, OptLevel L) const;

  /// Removes every request whose ReadyAtCycle <= \p NowCycles, compiles
  /// each one, and returns them ordered by (ReadyAtCycle, SeqNo).
  std::vector<CompileResult> takeReady(uint64_t NowCycles);

  /// Virtual cycles until the earliest virtual worker frees up (0 when one
  /// is idle): the queue-delay term the cost-benefit model prices.
  uint64_t backlogCycles(uint64_t NowCycles) const;

  /// Discards every in-flight request uncompiled and rewinds the virtual
  /// timelines.  Called by the engine between runs.
  void reset();

  /// Virtual cycles spent compiling on worker timelines since the last
  /// reset (installed or not).
  uint64_t overlappedCycles() const { return OverlappedCycles; }

  /// Requests dropped because the bounded queue was full, since the last
  /// reset.  Coalesced duplicates are not counted.
  uint64_t droppedRequests() const { return DroppedRequests; }

  unsigned numWorkers() const {
    return static_cast<unsigned>(WorkerFreeCycle.size());
  }

  /// Points the pool at the engine's recorder (may be null).  Queue events
  /// (enqueue/start/ready/drop/coalesce) are emitted from the execution
  /// thread at request time — start/ready carry their *future* virtual
  /// timestamps, which the deterministic scheduler already knows.
  void setTracer(TraceRecorder *T) { Tracer = T; }

private:
  const bc::Module &M;
  const uint64_t Capacity;   ///< max in-flight (not yet installed) requests
  const uint64_t QueueDelay; ///< TM.CompileQueueDelayCycles

  std::vector<uint64_t> WorkerFreeCycle; ///< virtual timeline per worker
  std::vector<CompileRequest> InFlight;  ///< awaiting install, by SeqNo
  uint64_t NextSeqNo = 0;
  uint64_t OverlappedCycles = 0;
  uint64_t DroppedRequests = 0;
  TraceRecorder *Tracer = nullptr;
};

} // namespace vm
} // namespace evm

#endif // EVM_VM_COMPILEWORKER_H
