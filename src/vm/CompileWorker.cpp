//===- vm/CompileWorker.cpp -----------------------------------------------==//

#include "vm/CompileWorker.h"

#include <algorithm>
#include <cassert>

using namespace evm;
using namespace evm::vm;

CompileWorkerPool::CompileWorkerPool(const bc::Module &M,
                                     const TimingModel &TM)
    : M(M), Capacity(std::max<uint64_t>(1, TM.CompileQueueCapacity)),
      QueueDelay(TM.CompileQueueDelayCycles) {
  unsigned N = std::max<unsigned>(1, static_cast<unsigned>(TM.NumCompileWorkers));
  WorkerFreeCycle.assign(N, 0);
}

bool CompileWorkerPool::hasPending(bc::MethodId Id, OptLevel L) const {
  for (const CompileRequest &R : InFlight)
    if (R.Method == Id && levelIndex(R.Level) >= levelIndex(L))
      return true;
  return false;
}

bool CompileWorkerPool::request(bc::MethodId Id, OptLevel L,
                                uint64_t NowCycles, uint64_t CostCycles) {
  bool Tracing = Tracer && Tracer->enabled();
  if (hasPending(Id, L)) {
    // Coalesce: an equal-or-better compile is in flight.
    if (Tracing) {
      TraceEvent E;
      E.Kind = TraceEventKind::CompileCoalesce;
      E.Cycle = NowCycles;
      E.Method = Id;
      E.Level = static_cast<int8_t>(L);
      for (const CompileRequest &R : InFlight)
        if (R.Method == Id && levelIndex(R.Level) >= levelIndex(L)) {
          E.A = R.SeqNo;
          E.B = static_cast<uint64_t>(levelIndex(R.Level));
          break;
        }
      Tracer->record(E);
    }
    return false;
  }
  if (InFlight.size() >= Capacity) {
    ++DroppedRequests;
    if (Tracing) {
      TraceEvent E;
      E.Kind = TraceEventKind::CompileDrop;
      E.Cycle = NowCycles;
      E.Method = Id;
      E.Level = static_cast<int8_t>(L);
      E.A = InFlight.size();
      Tracer->record(E);
    }
    return false;
  }

  // Deterministic virtual scheduling: earliest-free worker, lowest index on
  // ties, FIFO within a worker.
  unsigned W = 0;
  for (unsigned I = 1; I != WorkerFreeCycle.size(); ++I)
    if (WorkerFreeCycle[I] < WorkerFreeCycle[W])
      W = I;

  CompileRequest R;
  R.Method = Id;
  R.Level = L;
  R.SeqNo = NextSeqNo;
  R.RequestCycle = NowCycles;
  R.CostCycles = CostCycles;
  R.Worker = W;
  R.StartCycle = std::max(NowCycles + QueueDelay, WorkerFreeCycle[W]);
  R.ReadyAtCycle = R.StartCycle + CostCycles;

  ++NextSeqNo;
  WorkerFreeCycle[W] = R.ReadyAtCycle;
  OverlappedCycles += CostCycles;
  InFlight.push_back(R);

  if (Tracing) {
    // All three pipeline stages are emitted here, at request time: the
    // virtual scheduler already fixed the start/ready cycles, so the
    // future-stamped events are exact.
    TraceEvent E;
    E.Method = Id;
    E.Level = static_cast<int8_t>(L);
    E.A = R.SeqNo;
    E.Kind = TraceEventKind::CompileEnqueue;
    E.Cycle = NowCycles;
    E.B = CostCycles;
    E.C = W;
    Tracer->record(E);
    E.Kind = TraceEventKind::CompileStart;
    E.Cycle = R.StartCycle;
    E.C = 0;
    E.Tid = static_cast<uint8_t>(1 + W);
    Tracer->record(E);
    E.Kind = TraceEventKind::CompileReady;
    E.Cycle = R.ReadyAtCycle;
    E.B = 0;
    Tracer->record(E);
  }
  return true;
}

std::vector<CompileResult>
CompileWorkerPool::takeReady(uint64_t NowCycles) {
  std::vector<CompileResult> Ready;
  if (InFlight.empty())
    return Ready;
  // Collect the requests whose virtual ready time has arrived...
  std::vector<CompileRequest> Due;
  for (size_t I = 0; I != InFlight.size();) {
    if (InFlight[I].ReadyAtCycle <= NowCycles) {
      Due.push_back(InFlight[I]);
      InFlight.erase(InFlight.begin() + static_cast<ptrdiff_t>(I));
    } else {
      ++I;
    }
  }
  // ...in deterministic install order, then compile each one.
  std::sort(Due.begin(), Due.end(),
            [](const CompileRequest &A, const CompileRequest &B) {
              return A.ReadyAtCycle != B.ReadyAtCycle
                         ? A.ReadyAtCycle < B.ReadyAtCycle
                         : A.SeqNo < B.SeqNo;
            });
  Ready.reserve(Due.size());
  for (const CompileRequest &R : Due)
    Ready.push_back({R, std::make_shared<jit::CompiledFunction>(
                            jit::compileAtLevel(M, R.Method, R.Level))});
  return Ready;
}

uint64_t CompileWorkerPool::backlogCycles(uint64_t NowCycles) const {
  uint64_t Earliest = WorkerFreeCycle[0];
  for (uint64_t Free : WorkerFreeCycle)
    Earliest = std::min(Earliest, Free);
  return Earliest > NowCycles ? Earliest - NowCycles : 0;
}

void CompileWorkerPool::reset() {
  InFlight.clear();
  std::fill(WorkerFreeCycle.begin(), WorkerFreeCycle.end(), 0);
  OverlappedCycles = 0;
  DroppedRequests = 0;
}
