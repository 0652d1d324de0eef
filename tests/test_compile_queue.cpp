//===- tests/test_compile_queue.cpp - Background pipeline unit tests ------==//
//
// Unit tests for the background compilation pipeline: CompileWorkerPool's
// deterministic virtual scheduler (worker assignment, start/ready cycles,
// backlog), duplicate-request coalescing and capacity drops, and the
// engine-level guarantees — with NumCompileWorkers=0 nothing changes
// versus the synchronous engine, and with workers > 0 the virtual clock is
// bit-identical across repeated runs and pinned to golden values.
//
//===----------------------------------------------------------------------===//

#include "vm/CompileWorker.h"
#include "vm/Engine.h"
#include "vm/AOS.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace evm;
using namespace evm::vm;
using evm::test::assemble;

namespace {

bc::Module hotLoopModule() {
  // A module whose helper gets hot enough for the adaptive policy to
  // recompile it several times.
  return assemble(test::programCorpus()[5].second); // helper_calls
}

bc::Module threeFuncModule() {
  return assemble("func main(1)\n  load_local 0\n  ret\nend\n"
                  "func f1(1)\n  load_local 0\n  ret\nend\n"
                  "func f2(1)\n  load_local 0\n  ret\nend\n");
}

/// Workers with CompileQueueDelayCycles zeroed: scheduling arithmetic in
/// the tests below then reads directly as start = max(now, worker-free).
TimingModel asyncModel(uint64_t Workers, uint64_t QueueDelay = 0) {
  TimingModel TM;
  TM.NumCompileWorkers = Workers;
  TM.CompileQueueDelayCycles = QueueDelay;
  return TM;
}

} // namespace

//===----------------------------------------------------------------------===//
// CompileWorkerPool: virtual scheduling
//===----------------------------------------------------------------------===//

TEST(CompileWorkerPool, ReadyAtRequestPlusCostWhenIdle) {
  bc::Module M = hotLoopModule();
  CompileWorkerPool Pool(M, asyncModel(1));
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, /*Now=*/1000, /*Cost=*/500));
  // Not ready a cycle early.
  EXPECT_TRUE(Pool.takeReady(1499).empty());
  auto Ready = Pool.takeReady(1500);
  ASSERT_EQ(Ready.size(), 1u);
  EXPECT_EQ(Ready[0].Request.StartCycle, 1000u);
  EXPECT_EQ(Ready[0].Request.ReadyAtCycle, 1500u);
  EXPECT_EQ(Ready[0].Request.Worker, 0u);
  ASSERT_TRUE(Ready[0].Code);
  EXPECT_EQ(Ready[0].Code->Level, OptLevel::O1);
  EXPECT_EQ(Pool.overlappedCycles(), 500u);
}

TEST(CompileWorkerPool, QueueDelayShiftsStartCycle) {
  bc::Module M = hotLoopModule();
  CompileWorkerPool Pool(M, asyncModel(1, /*QueueDelay=*/200));
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, /*Now=*/1000, /*Cost=*/500));
  EXPECT_TRUE(Pool.takeReady(1699).empty());
  auto Ready = Pool.takeReady(1700);
  ASSERT_EQ(Ready.size(), 1u);
  EXPECT_EQ(Ready[0].Request.RequestCycle, 1000u);
  EXPECT_EQ(Ready[0].Request.StartCycle, 1200u);
  EXPECT_EQ(Ready[0].Request.ReadyAtCycle, 1700u);
}

TEST(CompileWorkerPool, SingleWorkerSerializesRequests) {
  bc::Module M = hotLoopModule();
  CompileWorkerPool Pool(M, asyncModel(1));
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, 100, 400));
  ASSERT_TRUE(Pool.request(1, OptLevel::O1, 150, 300));
  // The second request waits for the worker: starts at 500, ready at 800.
  auto Ready = Pool.takeReady(800);
  ASSERT_EQ(Ready.size(), 2u);
  EXPECT_EQ(Ready[0].Request.Method, 0u);
  EXPECT_EQ(Ready[0].Request.ReadyAtCycle, 500u);
  EXPECT_EQ(Ready[1].Request.Method, 1u);
  EXPECT_EQ(Ready[1].Request.StartCycle, 500u);
  EXPECT_EQ(Ready[1].Request.ReadyAtCycle, 800u);
  EXPECT_EQ(Pool.overlappedCycles(), 700u);
}

TEST(CompileWorkerPool, TwoWorkersRunInParallelVirtualTime) {
  bc::Module M = hotLoopModule();
  CompileWorkerPool Pool(M, asyncModel(2));
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, 100, 400));
  ASSERT_TRUE(Pool.request(1, OptLevel::O1, 100, 400));
  auto Ready = Pool.takeReady(500);
  ASSERT_EQ(Ready.size(), 2u);
  // Same ready cycle on distinct workers; SeqNo breaks the install tie.
  EXPECT_EQ(Ready[0].Request.ReadyAtCycle, 500u);
  EXPECT_EQ(Ready[1].Request.ReadyAtCycle, 500u);
  EXPECT_EQ(Ready[0].Request.Worker, 0u);
  EXPECT_EQ(Ready[1].Request.Worker, 1u);
  EXPECT_LT(Ready[0].Request.SeqNo, Ready[1].Request.SeqNo);
}

TEST(CompileWorkerPool, BacklogCyclesTracksEarliestFreeWorker) {
  bc::Module M = threeFuncModule();
  CompileWorkerPool Pool(M, asyncModel(2));
  EXPECT_EQ(Pool.backlogCycles(0), 0u);
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, 0, 1000));
  EXPECT_EQ(Pool.backlogCycles(0), 0u); // worker 1 still idle
  ASSERT_TRUE(Pool.request(1, OptLevel::O1, 0, 600));
  EXPECT_EQ(Pool.backlogCycles(0), 600u);  // earliest free is worker 1
  EXPECT_EQ(Pool.backlogCycles(250), 350u);
  EXPECT_EQ(Pool.backlogCycles(600), 0u);
  // Draining installs does not rewind worker timelines: a request issued at
  // 700 lands on worker 1 (free at 600) and runs 700..800.
  (void)Pool.takeReady(1000);
  ASSERT_TRUE(Pool.request(2, OptLevel::O1, 700, 100));
  EXPECT_TRUE(Pool.takeReady(799).empty());
  auto Ready = Pool.takeReady(800);
  ASSERT_EQ(Ready.size(), 1u);
  EXPECT_EQ(Ready[0].Request.Worker, 1u);
  EXPECT_EQ(Ready[0].Request.StartCycle, 700u);
  // ...but reset() does rewind them.
  Pool.reset();
  EXPECT_EQ(Pool.backlogCycles(0), 0u);
  EXPECT_EQ(Pool.overlappedCycles(), 0u);
}

TEST(CompileWorkerPool, CoalescesDuplicateAndLowerRequests) {
  bc::Module M = hotLoopModule();
  CompileWorkerPool Pool(M, asyncModel(1));
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, 0, 100));
  // Same or lower level for the same method coalesces into the in-flight
  // request; a *higher* level is new work.
  EXPECT_FALSE(Pool.request(0, OptLevel::O1, 10, 100));
  EXPECT_FALSE(Pool.request(0, OptLevel::O0, 10, 100));
  EXPECT_TRUE(Pool.hasPending(0, OptLevel::O0));
  EXPECT_TRUE(Pool.hasPending(0, OptLevel::O1));
  EXPECT_FALSE(Pool.hasPending(0, OptLevel::O2));
  EXPECT_TRUE(Pool.request(0, OptLevel::O2, 10, 200));
  // Coalesced requests are not "drops".
  EXPECT_EQ(Pool.droppedRequests(), 0u);
  // After installing, the method can be requested again.
  (void)Pool.takeReady(100000);
  EXPECT_FALSE(Pool.hasPending(0, OptLevel::O0));
  EXPECT_TRUE(Pool.request(0, OptLevel::O1, 500, 100));
}

TEST(CompileWorkerPool, DropsBeyondCapacityDeterministically) {
  bc::Module M = threeFuncModule();
  TimingModel TM = asyncModel(1);
  TM.CompileQueueCapacity = 2;
  CompileWorkerPool Pool(M, TM);
  ASSERT_TRUE(Pool.request(0, OptLevel::O1, 0, 100));
  ASSERT_TRUE(Pool.request(1, OptLevel::O1, 0, 100));
  // The bound is on the virtual in-flight set: two requests not yet
  // installed fill it.
  EXPECT_FALSE(Pool.request(2, OptLevel::O1, 0, 100));
  EXPECT_EQ(Pool.droppedRequests(), 1u);
  (void)Pool.takeReady(100000); // install both -> capacity is free again
  EXPECT_TRUE(Pool.request(2, OptLevel::O1, 300, 100));
}

//===----------------------------------------------------------------------===//
// Engine integration
//===----------------------------------------------------------------------===//

TEST(BackgroundCompilation, ZeroWorkersMatchesSynchronousEngine) {
  bc::Module M = hotLoopModule();
  // NumCompileWorkers defaults to 0; an explicit 0 must behave identically
  // to a model that never heard of the async pipeline (same object layout,
  // no pool, stall accounting only).
  TimingModel TM;
  AdaptivePolicy P1(TM), P2(TM);
  ExecutionEngine Sync(M, TM, &P1);
  auto A = Sync.run({bc::Value::makeInt(20000)}, 2000000000ULL);
  ExecutionEngine AlsoSync(M, TM, &P2);
  auto B = AlsoSync.run({bc::Value::makeInt(20000)}, 2000000000ULL);
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(A->Cycles, B->Cycles);
  EXPECT_EQ(A->compileCycles(), B->compileCycles());
  EXPECT_EQ(A->overlappedCompileCycles(), 0u);
  EXPECT_EQ(A->droppedCompiles(), 0u);
  EXPECT_EQ(A->stallCompileCycles(), A->compileCycles());
  for (const CompileEvent &E : A->Compiles)
    EXPECT_FALSE(E.Background);
}

TEST(BackgroundCompilation, AsyncRunsAreBitIdenticalAcrossRepeats) {
  bc::Module M = hotLoopModule();
  TimingModel TM = asyncModel(2, /*QueueDelay=*/200);
  // Golden values recorded when each compile still ran on its own host
  // thread: compiling on the execution thread at install time must give
  // the same virtual results.
  struct GoldenCompile {
    bc::MethodId Method;
    OptLevel Level;
    uint64_t AtCycle;
    uint64_t RequestedAtCycle;
  };
  const GoldenCompile Golden[] = {
      {0, OptLevel::Baseline, 110, 0},
      {1, OptLevel::Baseline, 306, 238},
      {0, OptLevel::O0, 33200, 25000},
      {0, OptLevel::O1, 113202, 75002},
      {1, OptLevel::O0, 129004, 125004},
      {1, OptLevel::O1, 342210, 325010},
      {0, OptLevel::O2, 375201, 225001},
      {1, OptLevel::O2, 491201, 425001},
  };
  // Repeat several times: the virtual clock must never vary.
  for (int Rep = 0; Rep != 5; ++Rep) {
    SCOPED_TRACE("repeat " + std::to_string(Rep));
    AdaptivePolicy Policy(TM);
    ExecutionEngine Engine(M, TM, &Policy);
    auto R = Engine.run({bc::Value::makeInt(20000)}, 2000000000ULL);
    ASSERT_TRUE(static_cast<bool>(R));
    ASSERT_TRUE(R->ReturnValue.isInt());
    EXPECT_EQ(R->ReturnValue.asInt(), 2666466690000);
    EXPECT_EQ(R->Cycles, 2749546u);
    EXPECT_EQ(R->stallCompileCycles(), 178u);
    EXPECT_EQ(R->overlappedCompileCycles(), 282800u);
    EXPECT_EQ(R->droppedCompiles(), 0u);
    ASSERT_EQ(R->Compiles.size(), std::size(Golden));
    for (size_t I = 0; I != std::size(Golden); ++I) {
      const CompileEvent &E = R->Compiles[I];
      EXPECT_EQ(E.Method, Golden[I].Method) << "compile " << I;
      EXPECT_EQ(E.Level, Golden[I].Level) << "compile " << I;
      EXPECT_EQ(E.AtCycle, Golden[I].AtCycle) << "compile " << I;
      EXPECT_EQ(E.RequestedAtCycle, Golden[I].RequestedAtCycle)
          << "compile " << I;
    }
  }
}

TEST(BackgroundCompilation, BackgroundInstallsAtModeledCycle) {
  bc::Module M = hotLoopModule();
  TimingModel TM = asyncModel(1, /*QueueDelay=*/200);
  AdaptivePolicy Policy(TM);
  ExecutionEngine Engine(M, TM, &Policy);
  auto R = Engine.run({bc::Value::makeInt(20000)}, 2000000000ULL);
  ASSERT_TRUE(static_cast<bool>(R));
  bool SawBackground = false;
  for (const CompileEvent &E : R->Compiles) {
    if (!E.Background)
      continue; // baseline compiles stay synchronous
    SawBackground = true;
    // Install happens once the modeled pipeline is done: request cycle plus
    // queue delay plus compile cost is a lower bound (exact when the worker
    // was idle), and installs never precede requests.
    EXPECT_GE(E.AtCycle,
              E.RequestedAtCycle + TM.CompileQueueDelayCycles + E.CostCycles)
        << "method " << E.Method;
    EXPECT_GT(E.AtCycle, E.RequestedAtCycle);
  }
  EXPECT_TRUE(SawBackground);
  EXPECT_GT(R->overlappedCompileCycles(), 0u);
}

TEST(BackgroundCompilation, AsyncTotalCyclesBeatSynchronousStall) {
  // The point of the pipeline: overlapping compilation with execution
  // lowers total virtual time on a compile-heavy workload.
  bc::Module M = hotLoopModule();
  auto cyclesWith = [&](uint64_t Workers) {
    TimingModel TM = asyncModel(Workers, /*QueueDelay=*/200);
    AdaptivePolicy Policy(TM);
    ExecutionEngine Engine(M, TM, &Policy);
    auto R = Engine.run({bc::Value::makeInt(20000)}, 2000000000ULL);
    EXPECT_TRUE(static_cast<bool>(R));
    return R->Cycles;
  };
  EXPECT_LT(cyclesWith(1), cyclesWith(0));
}
