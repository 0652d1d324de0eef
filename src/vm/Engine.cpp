//===- vm/Engine.cpp ------------------------------------------------------==//

#include "vm/Engine.h"

#include "vm/Eval.h"

#include <cassert>

using namespace evm;
using namespace evm::vm;
using bc::Instr;
using bc::MethodId;
using bc::Opcode;
using bc::Value;

CompilationPolicy::~CompilationPolicy() = default;

namespace {

/// Execution cost of one IR instruction (dispatch excluded).
uint64_t irInstrCost(const jit::IRInstr &I) {
  switch (I.Op) {
  case jit::IROp::Binary:
  case jit::IROp::Unary:
    return scalarOpCost(I.ScalarOp);
  case jit::IROp::NewArr:
    return scalarOpCost(Opcode::NewArr);
  case jit::IROp::HLoad:
    return scalarOpCost(Opcode::HLoad);
  case jit::IROp::HStore:
    return scalarOpCost(Opcode::HStore);
  case jit::IROp::Call:
    return 4;
  default:
    return 1; // MovImm/Mov/Jump/CondJump/Ret
  }
}

/// Phase-frame names per optimizing level (stable string literals).
const char *jitExecPhase(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "jit:o0";
  case OptLevel::O1:
    return "jit:o1";
  default:
    return "jit:o2";
  }
}

const char *compilePhase(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "jit/compile/o0";
  case OptLevel::O1:
    return "jit/compile/o1";
  default:
    return "jit/compile/o2";
  }
}

/// Splits a compile-cost lump already attributed to the *current* scope
/// (the jit/compile/oN node) across the pipeline's passes, proportional to
/// recorded pass work.  Integer shares; the rounding remainder stays on
/// the compile node itself.
void splitPassCycles(PhaseProfiler &P, const jit::CompiledFunction &Code,
                     uint64_t Cost) {
  uint64_t TotalWork = 0;
  for (const jit::PassWork &PW : Code.Passes)
    TotalWork += PW.Work;
  if (!TotalWork)
    return;
  for (const jit::PassWork &PW : Code.Passes)
    P.splitToChild(PW.Name, Cost * PW.Work / TotalWork, PW.Runs);
}

} // namespace

ExecutionEngine::ExecutionEngine(const bc::Module &M, const TimingModel &TM,
                                 CompilationPolicy *Policy)
    : M(M), TM(TM), Policy(Policy) {}

OptLevel ExecutionEngine::methodLevel(MethodId Id) const {
  assert(Id < Methods.size() && "method id out of range (before run?)");
  return Methods[Id].Level;
}

void ExecutionEngine::setCodeOverride(
    MethodId Id, std::shared_ptr<const jit::CompiledFunction> Code) {
  assert(Id < M.numFunctions() && "method id out of range");
  if (CodeOverrides.size() < M.numFunctions())
    CodeOverrides.resize(M.numFunctions());
  CodeOverrides[Id] = std::move(Code);
}

void ExecutionEngine::setTrap(TrapKind Kind, MethodId Method,
                              size_t Location) {
  // First trap wins; later ones are consequences of unwinding.
  if (PendingTrap == TrapKind::None) {
    PendingTrap = Kind;
    TrapMethod = Method;
    TrapLocation = Location;
  }
}

void ExecutionEngine::charge(uint64_t N) {
  Cycles += N;
  if (Prof)
    Prof->charge(N);
  if (Cycles > MaxCycles)
    setTrap(TrapKind::FuelExhausted, CallStack.empty() ? 0 : CallStack.back(),
            0);
  if (!CallStack.empty()) {
    MethodState &State = Methods[CallStack.back()];
    State.Stats.CyclesByLevel[levelIndex(State.Level)] += N;
  }
  while (Cycles >= NextSampleAt) {
    NextSampleAt += TM.SampleIntervalCycles;
    sampleTick();
  }
}

void ExecutionEngine::sampleTick() {
  if (CallStack.empty())
    return; // time outside any method (compiler setup, VM machinery)
  // The sample itself is free (the paper's profiler rides the timer
  // interrupt); any recompilation the policy triggers charges under this
  // frame, which is exactly the "AOS decided here" attribution.
  PROF_SCOPE("aos/sample");
  MethodId Current = CallStack.back();
  MethodState &State = Methods[Current];
  ++State.Stats.Samples;

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::ProfileSample;
    E.Cycle = Cycles;
    E.Method = Current;
    E.Level = static_cast<int8_t>(State.Level);
    E.A = State.Stats.Samples;
    Tracer->record(E);
  }

  if (!Policy || InSamplingHook)
    return;
  InSamplingHook = true;
  MethodRuntimeInfo Info;
  Info.Id = Current;
  Info.Samples = State.Stats.Samples;
  Info.Invocations = State.Stats.Invocations;
  Info.Level = State.Level;
  Info.BytecodeSize = M.function(Current).Code.size();
  Info.NowCycles = Cycles;
  if (std::optional<OptLevel> L = Policy->onSample(Info))
    installLevel(Current, *L);
  InSamplingHook = false;
}

void ExecutionEngine::installLevel(MethodId Id, OptLevel L) {
  MethodState &State = Methods[Id];
  if (levelIndex(L) <= levelIndex(State.Level))
    return;
  assert(L != OptLevel::Baseline && "cannot install baseline");

  uint64_t Cost = TM.compileCost(L, M.function(Id).Code.size());
  CompileCycles += Cost;
  // Compile before charging so the pass-work breakdown exists when the
  // cost lump is attributed; compileAtLevel is pure, so the reorder is
  // unobservable outside the profiler.
  auto Code = std::make_shared<jit::CompiledFunction>(
      jit::compileAtLevel(M, Id, L));
  {
    ScopedPhase CompileScope(compilePhase(L));
    charge(Cost);
    if (Prof)
      splitPassCycles(*Prof, *Code, Cost);
  }
  OptLevel OldLevel = State.Level;
  State.Code = std::move(Code);
  State.Level = L;
  State.Stats.FinalLevel = L;
  ++State.Stats.NumCompiles;
  Compiles.push_back(CompileEvent{Id, L, Cost});
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(L);
    E.Kind = TraceEventKind::CompileInstall;
    E.B = Cost;
    Tracer->record(E);
    E.Kind = TraceEventKind::LevelTransition;
    E.A = static_cast<uint64_t>(levelIndex(OldLevel));
    E.B = static_cast<uint64_t>(State.Stats.NumCompiles);
    Tracer->record(E);
  }
}

void ExecutionEngine::ensureBaseline(MethodId Id) {
  MethodState &State = Methods[Id];
  if (State.BaselineCompiled)
    return;
  State.BaselineCompiled = true;
  uint64_t Cost =
      TM.compileCost(OptLevel::Baseline, M.function(Id).Code.size());
  CompileCycles += Cost;
  {
    PROF_SCOPE("jit/compile/baseline");
    charge(Cost);
  }
  ++State.Stats.NumCompiles;
  Compiles.push_back(CompileEvent{Id, OptLevel::Baseline, Cost});
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::CompileInstall;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(OptLevel::Baseline);
    E.B = Cost;
    Tracer->record(E);
  }

  // The paper's Evolve scheme issues a recompilation event right after the
  // first-time (baseline) compilation.
  if (Policy) {
    MethodRuntimeInfo Info;
    Info.Id = Id;
    Info.Samples = 0;
    Info.Invocations = 0;
    Info.Level = OptLevel::Baseline;
    Info.BytecodeSize = M.function(Id).Code.size();
    Info.NowCycles = Cycles;
    if (std::optional<OptLevel> L = Policy->onFirstInvocation(Info))
      installLevel(Id, *L);
  }
}

void ExecutionEngine::chargeOverhead(uint64_t N) {
  OverheadCycles += N;
  charge(N);
}

std::optional<Value> ExecutionEngine::invoke(MethodId Id,
                                             const std::vector<Value> &Args,
                                             int Depth) {
  if (Depth > MaxCallDepth) {
    setTrap(TrapKind::CallDepthExceeded, Id, 0);
    return std::nullopt;
  }
  // One phase frame per guest method, named after it, so profiles read as
  // call trees; a first-encounter baseline compile of the callee lands
  // under the callee's own frame.
  ScopedPhase MethodScope(M.function(Id).Name);
  ensureBaseline(Id);
  if (PendingTrap != TrapKind::None)
    return std::nullopt;

  MethodState &State = Methods[Id];
  ++State.Stats.Invocations;
  ++Invocations;
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::MethodInvoke;
    E.Cycle = Cycles;
    E.Method = Id;
    E.Level = static_cast<int8_t>(State.Level);
    E.A = State.Stats.Invocations;
    E.B = static_cast<uint64_t>(Depth);
    Tracer->record(E);
  }
  CallStack.push_back(Id);

  std::optional<Value> Result;
  if (State.Level == OptLevel::Baseline) {
    Result = interpret(Id, Args, Depth);
  } else {
    // Hold a reference so a mid-execution recompilation cannot free the
    // code this frame is running.
    std::shared_ptr<const jit::CompiledFunction> Code = State.Code;
    Result = executeCompiled(Id, *Code, Args, Depth);
  }

  CallStack.pop_back();
  return Result;
}

std::optional<Value>
ExecutionEngine::interpret(MethodId Id, const std::vector<Value> &Args,
                           int Depth) {
  const bc::Function &F = M.function(Id);
  assert(Args.size() == F.NumParams && "arity mismatch");

  PROF_SCOPE("interp");
  charge(TM.InterpCallOverhead);
  std::vector<Value> Locals(F.NumLocals, Value::makeInt(0));
  for (size_t K = 0; K != Args.size(); ++K)
    Locals[K] = Args[K];
  std::vector<Value> Stack;
  Stack.reserve(16);

  size_t Pc = 0;
  while (true) {
    if (PendingTrap != TrapKind::None)
      return std::nullopt;
    assert(Pc < F.Code.size() && "pc out of range (verifier?)");
    const Instr &I = F.Code[Pc];
    charge(TM.InterpDispatchCycles + scalarOpCost(I.Op));

    switch (I.Op) {
    case Opcode::ConstInt:
      Stack.push_back(Value::makeInt(I.Operand));
      ++Pc;
      break;
    case Opcode::ConstFloat:
      Stack.push_back(Value::makeFloat(I.floatOperand()));
      ++Pc;
      break;
    case Opcode::Pop:
      Stack.pop_back();
      ++Pc;
      break;
    case Opcode::Dup:
      Stack.push_back(Stack.back());
      ++Pc;
      break;
    case Opcode::Swap:
      std::swap(Stack[Stack.size() - 1], Stack[Stack.size() - 2]);
      ++Pc;
      break;
    case Opcode::LoadLocal:
      Stack.push_back(Locals[static_cast<size_t>(I.Operand)]);
      ++Pc;
      break;
    case Opcode::StoreLocal:
      Locals[static_cast<size_t>(I.Operand)] = Stack.back();
      Stack.pop_back();
      ++Pc;
      break;
    case Opcode::Br:
      Pc = static_cast<size_t>(I.Operand);
      break;
    case Opcode::BrTrue:
    case Opcode::BrFalse: {
      bool Truthy = Stack.back().isTruthy();
      Stack.pop_back();
      if (Truthy == (I.Op == Opcode::BrTrue))
        Pc = static_cast<size_t>(I.Operand);
      else
        ++Pc;
      break;
    }
    case Opcode::Call: {
      MethodId Callee = static_cast<MethodId>(I.Operand);
      uint32_t Arity = M.function(Callee).NumParams;
      std::vector<Value> CallArgs(Stack.end() - Arity, Stack.end());
      Stack.resize(Stack.size() - Arity);
      std::optional<Value> R = invoke(Callee, CallArgs, Depth + 1);
      if (!R)
        return std::nullopt;
      Stack.push_back(*R);
      ++Pc;
      break;
    }
    case Opcode::Ret: {
      Value Result = Stack.back();
      return Result;
    }
    case Opcode::NewArr: {
      TrapKind Trap = TrapKind::None;
      int64_t Count = Stack.back().isInt()
                          ? Stack.back().asInt()
                          : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      auto Base = TheHeap.alloc(Count, Trap);
      if (!Base) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      Stack.push_back(Value::makeInt(*Base));
      ++Pc;
      break;
    }
    case Opcode::HLoad: {
      TrapKind Trap = TrapKind::None;
      int64_t Addr = Stack.back().isInt()
                         ? Stack.back().asInt()
                         : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      auto Loaded = TheHeap.load(Addr, Trap);
      if (!Loaded) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      Stack.push_back(*Loaded);
      ++Pc;
      break;
    }
    case Opcode::HStore: {
      TrapKind Trap = TrapKind::None;
      Value V = Stack.back();
      Stack.pop_back();
      int64_t Addr = Stack.back().isInt()
                         ? Stack.back().asInt()
                         : static_cast<int64_t>(Stack.back().toDouble());
      Stack.pop_back();
      if (!TheHeap.store(Addr, V, Trap)) {
        setTrap(Trap, Id, Pc);
        return std::nullopt;
      }
      ++Pc;
      break;
    }
    case Opcode::Nop:
      ++Pc;
      break;
    default: {
      TrapKind Trap = TrapKind::None;
      if (isBinaryOp(I.Op)) {
        Value B = Stack.back();
        Stack.pop_back();
        Value A = Stack.back();
        Stack.pop_back();
        auto R = evalBinary(I.Op, A, B, Trap);
        if (!R) {
          setTrap(Trap, Id, Pc);
          return std::nullopt;
        }
        Stack.push_back(*R);
      } else {
        assert(isUnaryOp(I.Op) && "unhandled opcode in interpreter");
        Value A = Stack.back();
        Stack.pop_back();
        auto R = evalUnary(I.Op, A, Trap);
        if (!R) {
          setTrap(Trap, Id, Pc);
          return std::nullopt;
        }
        Stack.push_back(*R);
      }
      ++Pc;
      break;
    }
    }
  }
}

std::optional<Value> ExecutionEngine::executeCompiled(
    MethodId Id, const jit::CompiledFunction &Code,
    const std::vector<Value> &Args, int Depth) {
  const jit::IRFunction &F = Code.IR;
  assert(Args.size() == F.NumParams && "arity mismatch");

  ScopedPhase TierScope(jitExecPhase(Code.Level));
  charge(TM.CompiledCallOverhead);
  std::vector<Value> Regs(F.NumRegs, Value::makeInt(0));
  for (size_t K = 0; K != Args.size(); ++K)
    Regs[K] = Args[K];

  jit::BlockId Block = 0;
  size_t K = 0;
  while (true) {
    if (PendingTrap != TrapKind::None)
      return std::nullopt;
    const jit::IRInstr &I = F.Blocks[Block].Instrs[K];
    charge(TM.CompiledDispatchCycles + irInstrCost(I));

    switch (I.Op) {
    case jit::IROp::MovImm:
      Regs[I.Dest] = I.Imm;
      ++K;
      break;
    case jit::IROp::Mov:
      Regs[I.Dest] = Regs[I.A];
      ++K;
      break;
    case jit::IROp::Binary: {
      TrapKind Trap = TrapKind::None;
      auto R = evalBinary(I.ScalarOp, Regs[I.A], Regs[I.B], Trap);
      if (!R) {
        setTrap(Trap, Id, Block);
        return std::nullopt;
      }
      Regs[I.Dest] = *R;
      ++K;
      break;
    }
    case jit::IROp::Unary: {
      TrapKind Trap = TrapKind::None;
      auto R = evalUnary(I.ScalarOp, Regs[I.A], Trap);
      if (!R) {
        setTrap(Trap, Id, Block);
        return std::nullopt;
      }
      Regs[I.Dest] = *R;
      ++K;
      break;
    }
    case jit::IROp::Call: {
      std::vector<Value> CallArgs;
      CallArgs.reserve(I.Args.size());
      for (jit::Reg R : I.Args)
        CallArgs.push_back(Regs[R]);
      std::optional<Value> R = invoke(I.Callee, CallArgs, Depth + 1);
      if (!R)
        return std::nullopt;
      Regs[I.Dest] = *R;
      ++K;
      break;
    }
    case jit::IROp::NewArr: {
      TrapKind Trap = TrapKind::None;
      int64_t Count = Regs[I.A].isInt()
                          ? Regs[I.A].asInt()
                          : static_cast<int64_t>(Regs[I.A].toDouble());
      auto Base = TheHeap.alloc(Count, Trap);
      if (!Base) {
        setTrap(Trap, Id, Block);
        return std::nullopt;
      }
      Regs[I.Dest] = Value::makeInt(*Base);
      ++K;
      break;
    }
    case jit::IROp::HLoad: {
      TrapKind Trap = TrapKind::None;
      int64_t Addr = Regs[I.A].isInt()
                         ? Regs[I.A].asInt()
                         : static_cast<int64_t>(Regs[I.A].toDouble());
      auto Loaded = TheHeap.load(Addr, Trap);
      if (!Loaded) {
        setTrap(Trap, Id, Block);
        return std::nullopt;
      }
      Regs[I.Dest] = *Loaded;
      ++K;
      break;
    }
    case jit::IROp::HStore: {
      TrapKind Trap = TrapKind::None;
      int64_t Addr = Regs[I.A].isInt()
                         ? Regs[I.A].asInt()
                         : static_cast<int64_t>(Regs[I.A].toDouble());
      if (!TheHeap.store(Addr, Regs[I.B], Trap)) {
        setTrap(Trap, Id, Block);
        return std::nullopt;
      }
      ++K;
      break;
    }
    case jit::IROp::Jump:
      Block = I.Target;
      K = 0;
      break;
    case jit::IROp::CondJump:
      Block = Regs[I.A].isTruthy() ? I.Target : I.Target2;
      K = 0;
      break;
    case jit::IROp::Ret:
      return Regs[I.A];
    }
  }
}

ErrorOr<RunResult> ExecutionEngine::run(const std::vector<Value> &Args,
                                        uint64_t MaxCyclesIn,
                                        uint64_t PreRunOverheadCycles,
                                        uint64_t SamplePhaseCycles) {
  // Reset per-run state so one engine can model repeated launches.
  TheHeap.reset();
  Methods.assign(M.numFunctions(), MethodState());
  for (size_t Id = 0; Id != CodeOverrides.size(); ++Id) {
    if (!CodeOverrides[Id])
      continue;
    MethodState &State = Methods[Id];
    State.Code = CodeOverrides[Id];
    State.Level = CodeOverrides[Id]->Level;
    State.BaselineCompiled = true; // pinned code needs no baseline compile
    State.Stats.FinalLevel = State.Level;
  }
  CallStack.clear();
  Cycles = 0;
  CompileCycles = 0;
  OverheadCycles = 0;
  Invocations = 0;
  Compiles.clear();
  NextSampleAt = TM.SampleIntervalCycles / 2 +
                 SamplePhaseCycles % std::max<uint64_t>(
                                         1, TM.SampleIntervalCycles);
  MaxCycles = MaxCyclesIn;
  PendingTrap = TrapKind::None;
  InSamplingHook = false;
  Prof = PhaseProfiler::current();
  // Everything charged to this run's clock lands under the "run" root; the
  // profiler accumulates across run()s of a persistent engine, so
  // totalUnder("run") tracks the sum of RunResult::Cycles.
  ScopedPhase RunScope("run");

  ++RunOrdinal;
  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::RunBegin;
    E.Cycle = 0;
    E.A = RunOrdinal;
    E.B = PreRunOverheadCycles;
    Tracer->record(E);
  }

  if (PreRunOverheadCycles) {
    // The evolvable VM refines this lump into xicl/ml shares post-run via
    // PhaseProfiler::attributeChild.
    PROF_SCOPE("overhead");
    chargeOverhead(PreRunOverheadCycles);
  }

  auto MainId = M.findFunction("main");
  if (!MainId)
    return makeError("module has no 'main' function");
  if (Args.size() != M.function(*MainId).NumParams)
    return makeError("main expects %u arguments, got %zu",
                     M.function(*MainId).NumParams, Args.size());

  std::optional<Value> Result = invoke(*MainId, Args, 0);
  if (!Result)
    return makeError("trap in method '%s' (%s)",
                     M.function(TrapMethod).Name.c_str(),
                     trapKindName(PendingTrap));

  RunResult Run;
  Run.ReturnValue = *Result;
  Run.Cycles = Cycles;
  Run.PerMethod.reserve(Methods.size());
  for (const MethodState &State : Methods)
    Run.PerMethod.push_back(State.Stats);
  Run.Compiles = Compiles;

  // Fold the run's accounting into the structured metrics snapshot.  Hot
  // counters accumulate in plain members during the run; only this one fold
  // per run touches the string-keyed registry.
  MetricsRegistry Reg;
  Reg.add("engine.cycles.total", Cycles);
  Reg.add("engine.cycles.stall_compile", CompileCycles);
  Reg.add("engine.cycles.overhead", OverheadCycles);
  Reg.add("engine.compiles.total", Compiles.size());
  Reg.add("engine.invocations.total", Invocations);
  Reg.add("engine.samples.total", Run.totalSamples());
  for (const CompileEvent &CE : Compiles) {
    if (CE.Level != OptLevel::Baseline) {
      Reg.add("engine.compiles.optimizing");
      Reg.observe("engine.compile.cost_cycles",
                  static_cast<double>(CE.CostCycles));
    }
  }
  Run.Metrics = Reg.snapshot();

  if (Tracer && Tracer->enabled()) {
    TraceEvent E;
    E.Kind = TraceEventKind::RunEnd;
    E.Cycle = Cycles;
    E.A = RunOrdinal;
    E.B = Run.totalSamples();
    E.C = CompileCycles;
    Tracer->record(E);
  }
  return Run;
}
