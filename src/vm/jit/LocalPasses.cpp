//===- vm/jit/LocalPasses.cpp - Block-local optimizations -----------------==//
//
// Constant folding, copy propagation, and value-numbering CSE.  All three
// share the same structure: one forward scan per block with a map that is
// invalidated on redefinition.  Non-SSA discipline: locals can be written
// many times; temporaries are written once per block by lowering (passes
// still invalidate defensively rather than relying on that).
//
//===----------------------------------------------------------------------===//

#include "vm/jit/Passes.h"

#include "vm/Eval.h"

#include <map>
#include <optional>
#include <unordered_map>

using namespace evm;
using namespace evm::vm;
using namespace evm::vm::jit;
using bc::Value;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

bool jit::foldConstantsLocal(IRFunction &F) {
  bool Changed = false;
  for (IRBlock &Block : F.Blocks) {
    std::unordered_map<Reg, Value> Consts;
    // By value: Invalidate(I.Dest) erases the entry when Dest is also a
    // source, so a pointer into Consts would dangle.
    auto Lookup = [&](Reg R) -> std::optional<Value> {
      auto It = Consts.find(R);
      if (It == Consts.end())
        return std::nullopt;
      return It->second;
    };
    auto Invalidate = [&](Reg R) { Consts.erase(R); };

    for (IRInstr &I : Block.Instrs) {
      switch (I.Op) {
      case IROp::MovImm:
        Invalidate(I.Dest);
        Consts.emplace(I.Dest, I.Imm);
        break;
      case IROp::Mov:
        if (std::optional<Value> V = Lookup(I.A)) {
          I.Op = IROp::MovImm;
          I.Imm = *V;
          Invalidate(I.Dest);
          Consts.emplace(I.Dest, *V);
          Changed = true;
        } else {
          Invalidate(I.Dest);
        }
        break;
      case IROp::Binary: {
        std::optional<Value> A = Lookup(I.A), B = Lookup(I.B);
        Invalidate(I.Dest);
        if (A && B) {
          TrapKind Trap;
          if (auto Result = evalBinary(I.ScalarOp, *A, *B, Trap)) {
            I.Op = IROp::MovImm;
            I.Imm = *Result;
            Consts.emplace(I.Dest, *Result);
            Changed = true;
          }
          // A folding-time trap stays in the code and traps at run time.
        }
        break;
      }
      case IROp::Unary: {
        std::optional<Value> A = Lookup(I.A);
        Invalidate(I.Dest);
        if (A) {
          TrapKind Trap;
          if (auto Result = evalUnary(I.ScalarOp, *A, Trap)) {
            I.Op = IROp::MovImm;
            I.Imm = *Result;
            Consts.emplace(I.Dest, *Result);
            Changed = true;
          }
        }
        break;
      }
      case IROp::CondJump:
        if (std::optional<Value> V = Lookup(I.A)) {
          BlockId Target = V->isTruthy() ? I.Target : I.Target2;
          I.Op = IROp::Jump;
          I.Target = Target;
          I.Target2 = 0;
          I.A = 0;
          Changed = true;
        }
        break;
      default:
        if (I.hasDest())
          Invalidate(I.Dest);
        break;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Copy propagation
//===----------------------------------------------------------------------===//

bool jit::propagateCopiesLocal(IRFunction &F) {
  bool Changed = false;
  for (IRBlock &Block : F.Blocks) {
    std::unordered_map<Reg, Reg> CopyOf; // dest -> source of a live copy

    auto Resolve = [&](Reg R) {
      // Chains are short; follow to the root.
      while (true) {
        auto It = CopyOf.find(R);
        if (It == CopyOf.end())
          return R;
        R = It->second;
      }
    };
    auto InvalidateWritesTo = [&](Reg R) {
      CopyOf.erase(R);
      for (auto It = CopyOf.begin(); It != CopyOf.end();) {
        if (It->second == R)
          It = CopyOf.erase(It);
        else
          ++It;
      }
    };
    auto RewriteUse = [&](Reg &R) {
      Reg Root = Resolve(R);
      if (Root != R) {
        R = Root;
        Changed = true;
      }
    };

    for (IRInstr &I : Block.Instrs) {
      switch (I.Op) {
      case IROp::Mov:
        RewriteUse(I.A);
        break;
      case IROp::Binary:
      case IROp::HStore:
        RewriteUse(I.A);
        RewriteUse(I.B);
        break;
      case IROp::Unary:
      case IROp::NewArr:
      case IROp::HLoad:
      case IROp::Ret:
      case IROp::CondJump:
        RewriteUse(I.A);
        break;
      case IROp::Call:
        for (Reg &R : I.Args)
          RewriteUse(R);
        break;
      case IROp::MovImm:
      case IROp::Jump:
        break;
      }

      if (I.hasDest())
        InvalidateWritesTo(I.Dest);
      if (I.Op == IROp::Mov && I.Dest != I.A)
        CopyOf.emplace(I.Dest, I.A);
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local CSE via value numbering
//===----------------------------------------------------------------------===//

namespace {

/// Expression key for the value-numbering table.
struct ExprKey {
  IROp Op;
  bc::Opcode ScalarOp;
  uint64_t A; ///< value number or immediate bits
  uint64_t B;

  bool operator<(const ExprKey &O) const {
    if (Op != O.Op)
      return Op < O.Op;
    if (ScalarOp != O.ScalarOp)
      return ScalarOp < O.ScalarOp;
    if (A != O.A)
      return A < O.A;
    return B < O.B;
  }
};

bool isCommutative(bc::Opcode Op) {
  switch (Op) {
  case bc::Opcode::Add:
  case bc::Opcode::Mul:
  case bc::Opcode::And:
  case bc::Opcode::Or:
  case bc::Opcode::Xor:
  case bc::Opcode::Eq:
  case bc::Opcode::Ne:
  case bc::Opcode::Min:
  case bc::Opcode::Max:
    return true;
  default:
    return false;
  }
}

} // namespace

bool jit::eliminateCommonSubexprsLocal(IRFunction &F) {
  bool Changed = false;
  for (IRBlock &Block : F.Blocks) {
    uint64_t NextVN = 1;
    std::unordered_map<Reg, uint64_t> RegVN;
    std::map<ExprKey, std::pair<uint64_t, Reg>> Table; // key -> (vn, holder)

    auto VNOf = [&](Reg R) {
      auto It = RegVN.find(R);
      if (It != RegVN.end())
        return It->second;
      uint64_t VN = NextVN++;
      RegVN.emplace(R, VN);
      return VN;
    };

    for (IRInstr &I : Block.Instrs) {
      switch (I.Op) {
      case IROp::MovImm: {
        ExprKey Key{IROp::MovImm, bc::Opcode::Nop,
                    static_cast<uint64_t>(
                        I.Imm.isInt() ? I.Imm.asInt()
                                      : bc::Instr::encodeFloat(I.Imm.asFloat())),
                    I.Imm.isInt() ? 0ull : 1ull};
        auto It = Table.find(Key);
        if (It != Table.end() && VNOf(It->second.second) == It->second.first) {
          Reg Holder = It->second.second;
          I.Op = IROp::Mov;
          I.A = Holder;
          RegVN[I.Dest] = It->second.first;
          Changed = true;
        } else {
          uint64_t VN = NextVN++;
          RegVN[I.Dest] = VN;
          Table[Key] = {VN, I.Dest};
        }
        break;
      }
      case IROp::Mov:
        RegVN[I.Dest] = VNOf(I.A);
        break;
      case IROp::Binary:
      case IROp::Unary: {
        uint64_t VA = VNOf(I.A);
        uint64_t VB = I.Op == IROp::Binary ? VNOf(I.B) : 0;
        if (I.Op == IROp::Binary && isCommutative(I.ScalarOp) && VB < VA)
          std::swap(VA, VB);
        ExprKey Key{I.Op, I.ScalarOp, VA, VB};
        auto It = Table.find(Key);
        if (It != Table.end() && VNOf(It->second.second) == It->second.first) {
          // Reusing an identical prior computation is trap-equivalent: had
          // the first one trapped, we would not be here.
          Reg Holder = It->second.second;
          I.Op = IROp::Mov;
          I.ScalarOp = bc::Opcode::Nop;
          I.A = Holder;
          I.B = 0;
          RegVN[I.Dest] = It->second.first;
          Changed = true;
        } else {
          uint64_t VN = NextVN++;
          RegVN[I.Dest] = VN;
          Table[Key] = {VN, I.Dest};
        }
        break;
      }
      case IROp::Call:
      case IROp::NewArr:
      case IROp::HLoad:
        // Impure or heap-dependent: always a fresh value.
        RegVN[I.Dest] = NextVN++;
        break;
      default:
        break;
      }
    }
  }
  return Changed;
}
