//===- vm/Engine.cpp ------------------------------------------------------==//

#include "vm/Engine.h"

#include "vm/Eval.h"

#include <algorithm>
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

/// Dispatch codes of the compiled-code executor.  Binary and Unary slots
/// dispatch on their bc::Opcode; the other IR operations take the codes
/// after it.  The fused codes follow: a slot whose next slot in the same
/// block consumes its result takes one, and its case runs the next slot
/// too when that slot's own cost takes the fast path (see fusedCode).
enum SlotCode : uint8_t {
  SlotMovImm = bc::NumOpcodes,
  SlotMov,
  SlotCall,
  SlotNewArr,
  SlotHLoad,
  SlotHStore,
  SlotJump,
  SlotCondJump,
  SlotRet,
  SlotMovJump,  ///< a Mov, then the block's closing Jump
  SlotAddHLoad, ///< an Add, then an HLoad of its result
  /// An operator, then a Mov of its result (and the block's closing Jump).
#define EVM_FUSED_CODES(OP) Slot##OP##Mov, Slot##OP##MovJump,
  EVM_BINARY_OPS(EVM_FUSED_CODES) EVM_UNARY_OPS(EVM_FUSED_CODES)
#undef EVM_FUSED_CODES
  /// A compare, then a CondJump on its result.
#define EVM_FUSED_CODES(OP) Slot##OP##CondJump,
  EVM_COMPARE_OPS(EVM_FUSED_CODES)
#undef EVM_FUSED_CODES
};

/// The dispatch code of IR instruction \p X, whose own code is \p Own, when
/// \p Y and then \p Z follow it in its block (null past the block's end).
/// X fuses with Y when Y consumes X's result (Y.A == X.Dest): an operator
/// with a Mov (and the Jump closing the block after it), a compare with a
/// CondJump, an Add with an HLoad; and a Mov fuses with the closing Jump.
/// Both slots lie in one block, so no jump lands between them.  A Call
/// never fuses: its callee's cycles land between it and the next slot.
uint8_t fusedCode(uint8_t Own, const jit::IRInstr &X, const jit::IRInstr *Y,
                  const jit::IRInstr *Z) {
  using jit::IROp;
  if (!Y)
    return Own;
  if (X.Op == IROp::Mov && Y->Op == IROp::Jump)
    return SlotMovJump;
  if ((X.Op != IROp::Binary && X.Op != IROp::Unary) || Y->A != X.Dest)
    return Own;
  bool ThenJump = Z && Z->Op == IROp::Jump;
  switch (Y->Op) {
  case IROp::Mov:
    switch (X.ScalarOp) {
#define EVM_FUSED_CASE(OP)                                                   \
  case Opcode::OP:                                                           \
    return ThenJump ? Slot##OP##MovJump : Slot##OP##Mov;
      EVM_BINARY_OPS(EVM_FUSED_CASE)
      EVM_UNARY_OPS(EVM_FUSED_CASE)
#undef EVM_FUSED_CASE
    default:
      return Own;
    }
  case IROp::CondJump:
    switch (X.ScalarOp) {
#define EVM_FUSED_CASE(OP)                                                   \
  case Opcode::OP:                                                           \
    return Slot##OP##CondJump;
      EVM_COMPARE_OPS(EVM_FUSED_CASE)
#undef EVM_FUSED_CASE
    default:
      return Own;
    }
  case IROp::HLoad:
    if (X.ScalarOp == Opcode::Add)
      return SlotAddHLoad;
    return Own;
  default:
    return Own;
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
void splitPassCycles(PhaseProfiler &P,
                     const std::vector<jit::PassWork> &Passes,
                     uint64_t Cost) {
  uint64_t TotalWork = 0;
  for (const jit::PassWork &PW : Passes)
    TotalWork += PW.Work;
  if (!TotalWork)
    return;
  for (const jit::PassWork &PW : Passes)
    P.splitToChild(PW.Name, Cost * PW.Work / TotalWork, PW.Runs);
}

} // namespace

/// One IR instruction, predecoded.  Operand fields are register indices
/// unless noted.
struct ExecutionEngine::Slot {
  uint64_t Cost; ///< CompiledDispatchCycles + irInstrCost, charged first
  uint32_t Dest;
  uint32_t A; ///< MovImm: index into Imms; Jump: target slot;
              ///< Call: first index into ArgRegs
  uint32_t B; ///< Call: argument count; CondJump: target when A is truthy
  uint32_t C; ///< Call: callee; CondJump: target otherwise
  uint8_t Code; ///< a bc::Opcode or a SlotCode
};

struct ExecutionEngine::LoweredCode {
  OptLevel Level = OptLevel::O0;
  uint32_t NumParams = 0;
  uint32_t NumRegs = 0;
  /// The widest call's argument count: arena room past the frame.
  uint32_t MaxCallArgs = 0;
  std::vector<Slot> Slots; ///< Slots[0] is the entry
  std::vector<jit::Reg> ArgRegs; ///< every call's argument registers
  std::vector<Value> Imms;       ///< MovImm constants
  /// The compile's pass work (empty for pinned code), for splitPassCycles.
  std::vector<jit::PassWork> Passes;
};

std::shared_ptr<const ExecutionEngine::LoweredCode>
ExecutionEngine::lower(const jit::CompiledFunction &Code,
                       std::vector<jit::PassWork> Passes,
                       const TimingModel &TM) {
  const jit::IRFunction &F = Code.IR;
  auto L = std::make_shared<LoweredCode>();
  L->Level = Code.Level;
  L->Passes = std::move(Passes);
  L->NumParams = F.NumParams;
  L->NumRegs = F.NumRegs;
  // Blocks are laid out in order, so a block starts at the slot count of
  // the blocks before it.
  std::vector<uint32_t> BlockStart;
  uint32_t NumSlots = 0;
  for (const jit::IRBlock &B : F.Blocks) {
    BlockStart.push_back(NumSlots);
    NumSlots += static_cast<uint32_t>(B.Instrs.size());
  }
  L->Slots.reserve(NumSlots);
  for (const jit::IRBlock &B : F.Blocks) {
    const size_t N = B.Instrs.size();
    for (size_t K = 0; K != N; ++K) {
      const jit::IRInstr &I = B.Instrs[K];
      Slot S{TM.CompiledDispatchCycles + irInstrCost(I), I.Dest, I.A, I.B, 0,
             0};
      switch (I.Op) {
      case jit::IROp::Binary:
      case jit::IROp::Unary:
        S.Code = static_cast<uint8_t>(I.ScalarOp);
        break;
      case jit::IROp::MovImm:
        S.Code = SlotMovImm;
        S.A = static_cast<uint32_t>(L->Imms.size());
        L->Imms.push_back(I.Imm);
        break;
      case jit::IROp::Mov:
        S.Code = SlotMov;
        break;
      case jit::IROp::Call:
        S.Code = SlotCall;
        S.A = static_cast<uint32_t>(L->ArgRegs.size());
        S.B = static_cast<uint32_t>(I.Args.size());
        S.C = I.Callee;
        L->ArgRegs.insert(L->ArgRegs.end(), I.Args.begin(), I.Args.end());
        L->MaxCallArgs = std::max(L->MaxCallArgs, S.B);
        break;
      case jit::IROp::NewArr:
        S.Code = SlotNewArr;
        break;
      case jit::IROp::HLoad:
        S.Code = SlotHLoad;
        break;
      case jit::IROp::HStore:
        S.Code = SlotHStore;
        break;
      case jit::IROp::Jump:
        S.Code = SlotJump;
        S.A = BlockStart[I.Target];
        break;
      case jit::IROp::CondJump:
        S.Code = SlotCondJump;
        S.B = BlockStart[I.Target];
        S.C = BlockStart[I.Target2];
        break;
      case jit::IROp::Ret:
        S.Code = SlotRet;
        break;
      }
      S.Code = fusedCode(S.Code, I, K + 1 < N ? &B.Instrs[K + 1] : nullptr,
                         K + 2 < N ? &B.Instrs[K + 2] : nullptr);
      L->Slots.push_back(S);
    }
  }
  return L;
}

ExecutionEngine::ExecutionEngine(const bc::Module &M, const TimingModel &TM,
                                 CompilationPolicy *Policy)
    : M(M), TM(TM), Policy(Policy), Lowered(3 * M.numFunctions()) {}

OptLevel ExecutionEngine::methodLevel(MethodId Id) const {
  assert(Id < Methods.size() && "method id out of range (before run?)");
  return Methods[Id].Level;
}

void ExecutionEngine::setCodeOverride(
    MethodId Id, std::shared_ptr<const jit::CompiledFunction> Code) {
  assert(Id < M.numFunctions() && "method id out of range");
  if (CodeOverrides.size() < M.numFunctions())
    CodeOverrides.resize(M.numFunctions());
  CodeOverrides[Id] = Code ? lower(*Code, {}, TM) : nullptr;
}

void ExecutionEngine::setTrap(TrapKind Kind, MethodId Method) {
  // First trap wins; later ones are consequences of unwinding.
  if (PendingTrap == TrapKind::None) {
    PendingTrap = Kind;
    TrapMethod = Method;
  }
}

void ExecutionEngine::charge(uint64_t N) {
  Cycles += N;
  if (Prof)
    Prof->charge(N);
  if (Cycles > MaxCycles)
    setTrap(TrapKind::FuelExhausted, CallStack.empty() ? 0 : CallStack.back());
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
  // The first install of (Id, L) compiles and lowers; every later one, in
  // any run, reuses that code and charges the same (compileAtLevel and
  // lower are pure, and M and TM are fixed for the engine's life).  Build
  // before charging, so the pass-work breakdown exists when the cost lump
  // is attributed and installs nested in the charge keep their order.
  std::shared_ptr<const LoweredCode> &Entry =
      Lowered[Id * 3 + levelIndex(L) - 1];
  if (!Entry) {
    jit::CompiledFunction Compiled = jit::compileAtLevel(M, Id, L);
    Entry = lower(Compiled, std::move(Compiled.Passes), TM);
  }
  // Our own reference: the charge below may run nested installs.
  std::shared_ptr<const LoweredCode> Code = Entry;
  {
    ScopedPhase CompileScope(compilePhase(L));
    charge(Cost);
    if (Prof)
      splitPassCycles(*Prof, Code->Passes, Cost);
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

std::optional<Value> ExecutionEngine::invoke(MethodId Id, const Value *Args,
                                             int Depth) {
  if (Depth > MaxCallDepth) {
    setTrap(TrapKind::CallDepthExceeded, Id);
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
    std::shared_ptr<const LoweredCode> Code = State.Code;
    Result = executeCompiled(Id, *Code, Args, Depth);
  }

  CallStack.pop_back();
  return Result;
}

std::optional<Value> ExecutionEngine::interpret(MethodId Id,
                                                const Value *Args,
                                                int Depth) {
  const bc::Function &F = M.function(Id);

  PROF_SCOPE("interp");
  charge(TM.InterpCallOverhead);
  std::vector<Value> Locals(F.NumLocals, Value::makeInt(0));
  std::copy(Args, Args + F.NumParams, Locals.begin());
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
      std::optional<Value> R =
          invoke(Callee, Stack.data() + Stack.size() - Arity, Depth + 1);
      if (!R)
        return std::nullopt;
      Stack.resize(Stack.size() - Arity);
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
      int64_t Count = toInt64(Stack.back());
      Stack.pop_back();
      auto Base = TheHeap.alloc(Count, Trap);
      if (!Base) {
        setTrap(Trap, Id);
        return std::nullopt;
      }
      Stack.push_back(Value::makeInt(*Base));
      ++Pc;
      break;
    }
    case Opcode::HLoad: {
      TrapKind Trap = TrapKind::None;
      int64_t Addr = toInt64(Stack.back());
      Stack.pop_back();
      auto Loaded = TheHeap.load(Addr, Trap);
      if (!Loaded) {
        setTrap(Trap, Id);
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
      int64_t Addr = toInt64(Stack.back());
      Stack.pop_back();
      if (!TheHeap.store(Addr, V, Trap)) {
        setTrap(Trap, Id);
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
          setTrap(Trap, Id);
          return std::nullopt;
        }
        Stack.push_back(*R);
      } else {
        assert(isUnaryOp(I.Op) && "unhandled opcode in interpreter");
        Value A = Stack.back();
        Stack.pop_back();
        auto R = evalUnary(I.Op, A, Trap);
        if (!R) {
          setTrap(Trap, Id);
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

std::optional<Value> ExecutionEngine::executeCompiled(MethodId Id,
                                                      const LoweredCode &Code,
                                                      const Value *Args,
                                                      int Depth) {
  ScopedPhase TierScope(jitExecPhase(Code.Level));
  charge(TM.CompiledCallOverhead);

  // The frame is Arena[Base, Top); a compiled caller already wrote the
  // arguments at Base.  Calls write theirs at Top.
  const size_t Base = ArenaTop;
  const size_t Top = Base + Code.NumRegs;
  if (Arena.size() < Top + Code.MaxCallArgs) {
    bool ArgsInArena = Args == Arena.data() + Base;
    Arena.resize(Top + Code.MaxCallArgs);
    if (ArgsInArena)
      Args = Arena.data() + Base;
  }
  Value *R = Arena.data() + Base;
  if (Args != R)
    std::copy(Args, Args + Code.NumParams, R);
  // IR may read a register before writing it.
  std::fill(R + Code.NumParams, R + Code.NumRegs, Value::makeInt(0));
  ArenaTop = Top;

  // Fast charge.  While a slot's cost lands before the next sample tick and
  // within the fuel budget, charge() would only add it to the clock, to the
  // running level's CyclesByLevel and to the profiler's current node, this
  // frame's jit:oN.  The fast path adds it to the local clock Now; Settle()
  // bills the cycles since Mark to all three before anything can observe
  // them or change where they belong: a slow charge, a call, or leaving the
  // frame.  Both a slow charge and a callee can recompile this method or
  // move the sample tick, so Resync() re-reads Limit after them.  Limit is
  // 0 while a trap is pending: the next slot takes the slow path, which
  // leaves the frame, so a trap set by a slot's charge still lets that slot
  // run.
  const uint64_t FuelEnd = MaxCycles == UINT64_MAX ? UINT64_MAX : MaxCycles + 1;
  uint64_t Now = 0, Mark = 0, Limit = 0;
  auto Resync = [&] {
    Now = Mark = Cycles;
    Limit = PendingTrap != TrapKind::None ? 0
                                          : std::min(NextSampleAt, FuelEnd);
  };
  auto Settle = [&] {
    Cycles = Now;
    MethodState &State = Methods[Id];
    State.Stats.CyclesByLevel[levelIndex(State.Level)] += Now - Mark;
    if (Prof)
      Prof->charge(Now - Mark);
    Mark = Now;
  };
  auto Leave = [&](std::optional<Value> Result) {
    Settle();
    ArenaTop = Base;
    return Result;
  };
  auto Trapped = [&](TrapKind Trap) {
    setTrap(Trap, Id);
    return Leave(std::nullopt);
  };
  Resync();

  const Slot *const Slots = Code.Slots.data();
  const Slot *S = Slots;
  TrapKind Trap = TrapKind::None;
  while (true) {
    if (Now + S->Cost < Limit) {
      Now += S->Cost;
    } else {
      Settle();
      if (PendingTrap != TrapKind::None)
        return Leave(std::nullopt);
      charge(S->Cost);
      Resync();
    }

    switch (S->Code) {
      // Each operator has its own case and fused cases, each evaluating
      // with a constant opcode into V.  A fused case runs its first slot
      // as the operator's own case does, then each later slot only when
      // that slot's own cost takes the fast path; otherwise it goes back
      // to the loop top, which repeats the test on the same Now and Limit
      // and so charges that slot the slow way, exactly as without fusion.
      // The later slots read the first slot's result from V.
#define EVM_EVAL_FIRST(EVAL)                                                 \
  std::optional<Value> V = EVAL;                                             \
  if (!V)                                                                    \
    return Trapped(Trap);                                                    \
  R[S->Dest] = *V;                                                           \
  ++S
#define EVM_FAST_CHARGE_OR_BREAK                                             \
  if (Now + S->Cost < Limit)                                                 \
    Now += S->Cost;                                                          \
  else                                                                       \
    break
#define EVM_EVAL_CASES(OP, EVAL)                                             \
  case static_cast<uint8_t>(Opcode::OP): {                                   \
    EVM_EVAL_FIRST(EVAL);                                                    \
    break;                                                                   \
  }                                                                          \
  case Slot##OP##Mov: {                                                      \
    EVM_EVAL_FIRST(EVAL);                                                    \
    EVM_FAST_CHARGE_OR_BREAK;                                                \
    R[S->Dest] = *V;                                                         \
    ++S;                                                                     \
    break;                                                                   \
  }                                                                          \
  case Slot##OP##MovJump: {                                                  \
    EVM_EVAL_FIRST(EVAL);                                                    \
    EVM_FAST_CHARGE_OR_BREAK;                                                \
    R[S->Dest] = *V;                                                         \
    ++S;                                                                     \
    EVM_FAST_CHARGE_OR_BREAK;                                                \
    S = Slots + S->A;                                                        \
    break;                                                                   \
  }
#define EVM_BINARY_CASES(OP)                                                 \
  EVM_EVAL_CASES(OP, evalBinary(Opcode::OP, R[S->A], R[S->B], Trap))
#define EVM_UNARY_CASES(OP)                                                  \
  EVM_EVAL_CASES(OP, evalUnary(Opcode::OP, R[S->A], Trap))
#define EVM_COMPARE_CASE(OP)                                                 \
  case Slot##OP##CondJump: {                                                 \
    EVM_EVAL_FIRST(evalBinary(Opcode::OP, R[S->A], R[S->B], Trap));          \
    EVM_FAST_CHARGE_OR_BREAK;                                                \
    S = Slots + (V->isTruthy() ? S->B : S->C);                               \
    break;                                                                   \
  }
      EVM_BINARY_OPS(EVM_BINARY_CASES)
      EVM_UNARY_OPS(EVM_UNARY_CASES)
      EVM_COMPARE_OPS(EVM_COMPARE_CASE)
    case SlotAddHLoad: {
      EVM_EVAL_FIRST(evalBinary(Opcode::Add, R[S->A], R[S->B], Trap));
      EVM_FAST_CHARGE_OR_BREAK;
      std::optional<Value> Loaded = TheHeap.load(toInt64(*V), Trap);
      if (!Loaded)
        return Trapped(Trap);
      R[S->Dest] = *Loaded;
      ++S;
      break;
    }
    case SlotMovJump:
      R[S->Dest] = R[S->A];
      ++S;
      EVM_FAST_CHARGE_OR_BREAK;
      S = Slots + S->A;
      break;
#undef EVM_COMPARE_CASE
#undef EVM_UNARY_CASES
#undef EVM_BINARY_CASES
#undef EVM_EVAL_CASES
#undef EVM_FAST_CHARGE_OR_BREAK
#undef EVM_EVAL_FIRST
    case SlotMovImm:
      R[S->Dest] = Code.Imms[S->A];
      ++S;
      break;
    case SlotMov:
      R[S->Dest] = R[S->A];
      ++S;
      break;
    case SlotCall: {
      Value *Out = R + Code.NumRegs;
      const jit::Reg *ArgReg = Code.ArgRegs.data() + S->A;
      for (uint32_t K = 0; K != S->B; ++K)
        Out[K] = R[ArgReg[K]];
      Settle();
      std::optional<Value> V = invoke(S->C, Out, Depth + 1);
      R = Arena.data() + Base; // the callee may have grown the arena
      Resync();
      if (!V)
        return Leave(std::nullopt);
      R[S->Dest] = *V;
      ++S;
      break;
    }
    case SlotNewArr: {
      std::optional<int64_t> Addr = TheHeap.alloc(toInt64(R[S->A]), Trap);
      if (!Addr)
        return Trapped(Trap);
      R[S->Dest] = Value::makeInt(*Addr);
      ++S;
      break;
    }
    case SlotHLoad: {
      std::optional<Value> V = TheHeap.load(toInt64(R[S->A]), Trap);
      if (!V)
        return Trapped(Trap);
      R[S->Dest] = *V;
      ++S;
      break;
    }
    case SlotHStore:
      if (!TheHeap.store(toInt64(R[S->A]), R[S->B], Trap))
        return Trapped(Trap);
      ++S;
      break;
    case SlotJump:
      S = Slots + S->A;
      break;
    case SlotCondJump:
      S = Slots + (R[S->A].isTruthy() ? S->B : S->C);
      break;
    case SlotRet:
      return Leave(R[S->A]);
    default:
      assert(false && "invalid slot code");
      return Leave(std::nullopt);
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
  ArenaTop = 0;
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

  std::optional<Value> Result = invoke(*MainId, Args.data(), 0);
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
