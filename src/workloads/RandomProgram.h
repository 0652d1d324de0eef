//===- workloads/RandomProgram.h - Seeded random MiniVM program core ------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random-but-well-formed MiniVM modules for property testing and
/// for the open-world workload generator: programs are built from
/// *statements* (assignments, heap loads/stores, bounded loops, if/else,
/// helper calls), so the evaluation stack is empty at every branch edge by
/// construction — exactly the verifier's empty-stack block-boundary
/// discipline — and every loop runs on a dedicated bounded counter, so all
/// generated programs terminate.
///
/// Two op regimes, selected by RandomProgramOptions::AllowTraps:
///
///   * Traps allowed (the differential fuzzer's mode): integer division by
///     zero and bitwise ops on floats may occur; trap behavior is part of
///     the equivalence property being tested.
///   * Trap-free (the workload generator's mode): expressions stay in
///     integer arithmetic drawn from a pool with no trapping combination,
///     so generated *workloads* always run to completion (the scenario
///     harness treats a trap as a hard failure).
///
/// Heap addresses are folded into the module's own array via
/// `abs(x mod size)`, so heap traffic is heavy but in-bounds; main finishes
/// with a checksum loop over the array so heap effects feed the returned
/// value.
///
/// This header lives in src/workloads (not tests/) because the open-world
/// generator builds on the same statement machinery; the differential
/// fuzzer and the pass property tests include it directly.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_WORKLOADS_RANDOMPROGRAM_H
#define EVM_WORKLOADS_RANDOMPROGRAM_H

#include "bytecode/Builder.h"
#include "bytecode/Module.h"
#include "support/Rng.h"

#include <vector>

namespace evm {
namespace wl {

struct RandomProgramOptions {
  int NumHelpers = 2;      ///< leaf helper functions callable from main
  int NumScratchLocals = 4;
  int MaxStmtsPerBlock = 5;
  int MaxBlockDepth = 2;   ///< nesting of if/while statements
  int MaxExprDepth = 3;
  int64_t MaxLoopBound = 25;
  int64_t HeapSize = 16;   ///< array allocated by main; all addresses land
                           ///< inside it
  /// Whether trapping ops (Div/Mod/bitwise on floats, float constants) may
  /// appear.  The differential fuzzer wants them; generated workloads must
  /// not trap, so the open-world generator turns them off.
  bool AllowTraps = true;
};

namespace rpdetail {

/// Emits a random expression tree that leaves exactly one value on the
/// stack.  \p Readable lists the local slots the expression may load.
inline void emitExpr(bc::FunctionBuilder &F, Rng &R,
                     const std::vector<uint32_t> &Readable, int Depth,
                     const RandomProgramOptions &O) {
  using bc::Opcode;
  // Leaves: small constants (biased to ints) and local reads.
  if (Depth <= 0 || R.nextBool(0.35)) {
    switch (R.nextInt(0, 3)) {
    case 0:
      F.constInt(R.nextInt(-8, 8));
      break;
    case 1:
      if (O.AllowTraps)
        F.constFloat(static_cast<double>(R.nextInt(-40, 40)) / 8.0);
      else
        F.constInt(R.nextInt(-40, 40));
      break;
    default:
      F.loadLocal(Readable[static_cast<size_t>(R.next() % Readable.size())]);
      break;
    }
    return;
  }
  if (R.nextBool(0.25)) {
    // Unary.
    emitExpr(F, R, Readable, Depth - 1, O);
    static const Opcode Unaries[] = {Opcode::Neg, Opcode::Not, Opcode::Abs,
                                     Opcode::I2F, Opcode::F2I, Opcode::Sqrt,
                                     Opcode::Sin, Opcode::Cos, Opcode::Floor};
    // The trap-free pool keeps values integral: no I2F (floats would then
    // flow into bitwise ops) and no Sqrt (irrational floats).
    static const Opcode SafeUnaries[] = {Opcode::Neg, Opcode::Not,
                                         Opcode::Abs};
    if (O.AllowTraps)
      F.emit(Unaries[R.next() % (sizeof(Unaries) / sizeof(Unaries[0]))]);
    else
      F.emit(SafeUnaries[R.next() %
                         (sizeof(SafeUnaries) / sizeof(SafeUnaries[0]))]);
    return;
  }
  // Binary.  Weights favor non-trapping arithmetic; division, modulo and
  // the integer-only bitwise ops appear occasionally so trap parity between
  // the tiers stays covered.
  emitExpr(F, R, Readable, Depth - 1, O);
  emitExpr(F, R, Readable, Depth - 1, O);
  static const Opcode Common[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                  Opcode::Min, Opcode::Max, Opcode::Eq,
                                  Opcode::Ne,  Opcode::Lt,  Opcode::Le,
                                  Opcode::Gt,  Opcode::Ge};
  static const Opcode Rare[] = {Opcode::Div, Opcode::Mod, Opcode::And,
                                Opcode::Or,  Opcode::Xor, Opcode::Shl,
                                Opcode::Shr};
  // With traps disabled every operand is an integer, so the bitwise ops are
  // safe; Div/Mod (by a possibly-zero expression) and shifts are not drawn.
  static const Opcode SafeRare[] = {Opcode::And, Opcode::Or, Opcode::Xor};
  if (R.nextBool(0.85))
    F.emit(Common[R.next() % (sizeof(Common) / sizeof(Common[0]))]);
  else if (O.AllowTraps)
    F.emit(Rare[R.next() % (sizeof(Rare) / sizeof(Rare[0]))]);
  else
    F.emit(SafeRare[R.next() % (sizeof(SafeRare) / sizeof(SafeRare[0]))]);
}

/// Emits `abs(expr mod HeapSize) + base` — an always-in-bounds heap address.
inline void emitHeapAddr(bc::FunctionBuilder &F, Rng &R,
                         const std::vector<uint32_t> &Readable,
                         uint32_t BaseLocal, const RandomProgramOptions &O) {
  emitExpr(F, R, Readable, 1, O);
  F.constInt(O.HeapSize);
  F.emit(bc::Opcode::Mod);
  F.emit(bc::Opcode::Abs);
  F.emit(bc::Opcode::Floor);
  F.loadLocal(BaseLocal);
  F.emit(bc::Opcode::Add);
}

struct StmtContext {
  std::vector<uint32_t> Scratch;  ///< writable locals
  std::vector<uint32_t> Readable; ///< Scratch + params
  uint32_t HeapBaseLocal = 0;     ///< 0 means "no heap access here"
  bool HasHeap = false;
  std::vector<std::pair<bc::MethodId, uint32_t>> Callees; ///< (id, arity)
};

inline void emitStmts(bc::FunctionBuilder &F, Rng &R, const StmtContext &Ctx,
                      const RandomProgramOptions &O, int Depth);

/// One random statement; the stack is empty before and after.
inline void emitStmt(bc::FunctionBuilder &F, Rng &R, const StmtContext &Ctx,
                     const RandomProgramOptions &O, int Depth) {
  uint32_t Target =
      Ctx.Scratch[static_cast<size_t>(R.next() % Ctx.Scratch.size())];
  int Kind = static_cast<int>(R.nextInt(0, 9));
  // Nested control flow and heap traffic only where allowed.
  if (Depth >= O.MaxBlockDepth && Kind >= 6)
    Kind = static_cast<int>(R.nextInt(0, 5));
  if (!Ctx.HasHeap && (Kind == 4 || Kind == 5))
    Kind = 0;
  if (Ctx.Callees.empty() && Kind == 3)
    Kind = 1;

  switch (Kind) {
  case 0:
  case 1:
  case 2: { // local = expr
    emitExpr(F, R, Ctx.Readable, O.MaxExprDepth, O);
    F.storeLocal(Target);
    break;
  }
  case 3: { // local = helper(args...)
    const auto &[Callee, Arity] =
        Ctx.Callees[static_cast<size_t>(R.next() % Ctx.Callees.size())];
    for (uint32_t A = 0; A != Arity; ++A)
      emitExpr(F, R, Ctx.Readable, 2, O);
    F.call(Callee);
    F.storeLocal(Target);
    break;
  }
  case 4: { // heap[addr] = expr
    emitHeapAddr(F, R, Ctx.Readable, Ctx.HeapBaseLocal, O);
    emitExpr(F, R, Ctx.Readable, 2, O);
    F.emit(bc::Opcode::HStore);
    break;
  }
  case 5: { // local = heap[addr]
    emitHeapAddr(F, R, Ctx.Readable, Ctx.HeapBaseLocal, O);
    F.emit(bc::Opcode::HLoad);
    F.storeLocal(Target);
    break;
  }
  case 6:
  case 7: { // if (expr) { ... } [else { ... }]
    emitExpr(F, R, Ctx.Readable, 2, O);
    bc::FunctionBuilder::Label Else = F.makeLabel();
    bc::FunctionBuilder::Label End = F.makeLabel();
    F.brFalse(Else);
    emitStmts(F, R, Ctx, O, Depth + 1);
    F.br(End);
    F.bind(Else);
    if (R.nextBool(0.6))
      emitStmts(F, R, Ctx, O, Depth + 1);
    F.bind(End);
    break;
  }
  default: { // bounded counting loop
    uint32_t Counter = F.allocLocal();
    int64_t Bound = R.nextInt(1, O.MaxLoopBound);
    F.constInt(0);
    F.storeLocal(Counter);
    bc::FunctionBuilder::Label Head = F.makeLabel();
    bc::FunctionBuilder::Label Exit = F.makeLabel();
    F.bind(Head);
    F.loadLocal(Counter);
    F.constInt(Bound);
    F.emit(bc::Opcode::Lt);
    F.brFalse(Exit);
    emitStmts(F, R, Ctx, O, Depth + 1);
    F.incrementLocal(Counter, 1);
    F.br(Head);
    F.bind(Exit);
    break;
  }
  }
}

inline void emitStmts(bc::FunctionBuilder &F, Rng &R, const StmtContext &Ctx,
                      const RandomProgramOptions &O, int Depth) {
  int N = static_cast<int>(R.nextInt(1, O.MaxStmtsPerBlock));
  for (int I = 0; I != N; ++I)
    emitStmt(F, R, Ctx, O, Depth);
}

} // namespace rpdetail

/// Generates a random module: `main(1)` (heap array + statements + a heap
/// checksum loop feeding the return value) plus NumHelpers leaf functions.
/// The module builder verifies the result; generation is deterministic in
/// \p Seed.
inline ErrorOr<bc::Module>
generateRandomProgram(uint64_t Seed,
                      const RandomProgramOptions &O = RandomProgramOptions()) {
  Rng R(Seed);
  bc::ModuleBuilder MB;
  bc::MethodId MainId = MB.declareFunction("main", 1);
  std::vector<std::pair<bc::MethodId, uint32_t>> Helpers;
  for (int H = 0; H != O.NumHelpers; ++H) {
    uint32_t Arity = static_cast<uint32_t>(R.nextInt(1, 2));
    Helpers.push_back(
        {MB.declareFunction("helper" + std::to_string(H), Arity), Arity});
  }

  // Leaf helpers: pure arithmetic over params and scratch locals (no heap,
  // no calls — termination and verifier-cleanliness by construction).
  for (const auto &[Id, Arity] : Helpers) {
    bc::FunctionBuilder &F = MB.functionBuilder(Id);
    rpdetail::StmtContext Ctx;
    for (uint32_t P = 0; P != Arity; ++P)
      Ctx.Readable.push_back(P);
    for (int S = 0; S != 2; ++S) {
      uint32_t L = F.allocLocal();
      Ctx.Scratch.push_back(L);
      Ctx.Readable.push_back(L);
    }
    RandomProgramOptions HelperOpts = O;
    HelperOpts.MaxBlockDepth = 1; // ifs, no loops: keep helpers cheap
    rpdetail::emitStmts(F, R, Ctx, HelperOpts, /*Depth=*/1);
    rpdetail::emitExpr(F, R, Ctx.Readable, O.MaxExprDepth, O);
    F.ret();
  }

  {
    bc::FunctionBuilder &F = MB.functionBuilder(MainId);
    rpdetail::StmtContext Ctx;
    Ctx.Readable.push_back(0); // the input parameter
    for (int S = 0; S != O.NumScratchLocals; ++S) {
      uint32_t L = F.allocLocal();
      Ctx.Scratch.push_back(L);
      Ctx.Readable.push_back(L);
    }
    uint32_t Base = F.allocLocal();
    F.constInt(O.HeapSize);
    F.emit(bc::Opcode::NewArr);
    F.storeLocal(Base);
    Ctx.HeapBaseLocal = Base;
    Ctx.HasHeap = true;
    Ctx.Callees = Helpers;

    rpdetail::emitStmts(F, R, Ctx, O, /*Depth=*/0);

    // Checksum loop: acc = sum(heap[base + i]) so every heap store above is
    // observable in the returned value.
    uint32_t Acc = F.allocLocal();
    uint32_t I = F.allocLocal();
    F.constInt(0);
    F.storeLocal(Acc);
    F.constInt(0);
    F.storeLocal(I);
    bc::FunctionBuilder::Label Head = F.makeLabel();
    bc::FunctionBuilder::Label Exit = F.makeLabel();
    F.bind(Head);
    F.loadLocal(I);
    F.constInt(O.HeapSize);
    F.emit(bc::Opcode::Lt);
    F.brFalse(Exit);
    F.loadLocal(Acc);
    F.loadLocal(Base);
    F.loadLocal(I);
    F.emit(bc::Opcode::Add);
    F.emit(bc::Opcode::HLoad);
    F.emit(bc::Opcode::Add);
    F.storeLocal(Acc);
    F.incrementLocal(I, 1);
    F.br(Head);
    F.bind(Exit);

    // result = checksum combined with one last expression over the locals.
    F.loadLocal(Acc);
    rpdetail::emitExpr(F, R, Ctx.Readable, 2, O);
    F.emit(bc::Opcode::Add);
    F.ret();
  }

  return MB.build();
}

} // namespace wl
} // namespace evm

#endif // EVM_WORKLOADS_RANDOMPROGRAM_H
