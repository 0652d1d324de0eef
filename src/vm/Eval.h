//===- vm/Eval.h - Shared operator semantics ------------------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for MiniVM operator semantics.  The bytecode
/// interpreter, the JIT's constant folder, and the compiled-code executor
/// all call these helpers, which guarantees the tiers agree on every corner
/// case (promotion, division by zero, float-only intrinsics) by
/// construction — the invariant the JIT correctness property tests assert.
///
/// Everything is inline: the compiled-code executor has one case per
/// operator and calls evalBinary/evalUnary with a constant opcode, so the
/// compiler folds the operator switch away in each case.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_VM_EVAL_H
#define EVM_VM_EVAL_H

#include "bytecode/Opcode.h"
#include "bytecode/Value.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>

namespace evm {
namespace vm {

/// Why an evaluation trapped.
enum class TrapKind {
  None,
  DivisionByZero,
  IntegerOpOnFloat, ///< bitwise/shift applied to a float operand
  HeapOutOfBounds,
  HeapExhausted,
  CallDepthExceeded,
  FuelExhausted, ///< execution exceeded the configured cycle budget
};

/// Renders a trap kind for diagnostics.
const char *trapKindName(TrapKind Kind);

/// The operators evalBinary and evalUnary handle, as X-macro lists: the
/// predicates below and the compiled-code executor's per-operator cases
/// expand them.
#define EVM_BINARY_OPS(X)                                                    \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(And) X(Or) X(Xor) X(Shl) X(Shr)       \
  X(Eq) X(Ne) X(Lt) X(Le) X(Gt) X(Ge) X(Min) X(Max)
#define EVM_UNARY_OPS(X)                                                     \
  X(Neg) X(Not) X(I2F) X(F2I) X(Sqrt) X(Sin) X(Cos) X(Floor) X(Abs)

/// True when \p Op is handled by evalBinary.
inline bool isBinaryOp(bc::Opcode Op) {
  switch (Op) {
#define EVM_OP_CASE(OP) case bc::Opcode::OP:
    EVM_BINARY_OPS(EVM_OP_CASE)
#undef EVM_OP_CASE
    return true;
  default:
    return false;
  }
}

/// True when \p Op is handled by evalUnary.
inline bool isUnaryOp(bc::Opcode Op) {
  switch (Op) {
#define EVM_OP_CASE(OP) case bc::Opcode::OP:
    EVM_UNARY_OPS(EVM_OP_CASE)
#undef EVM_OP_CASE
    return true;
  default:
    return false;
  }
}

/// The integer view every tier takes of an operand used as a count or an
/// address (NewArr, HLoad, HStore) and that F2I produces: ints pass
/// through, doubles truncate toward zero.  NaN and doubles outside
/// [-2^63, 2^63) give INT64_MIN, which is what x86-64's cvttsd2si returns,
/// so the conversion is defined without moving any result.
inline int64_t toInt64(const bc::Value &V) {
  if (V.isInt())
    return V.asInt();
  double D = V.asFloat();
  if (!(D >= -0x1p63 && D < 0x1p63))
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

namespace detail {

/// Wrapping two's-complement arithmetic via unsigned casts (signed overflow
/// would be UB).
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

} // namespace detail

/// Evaluates a two-operand operator (\p Op in {Add..Ge, Min, Max}).  Returns
/// nullopt and sets \p Trap on a semantic trap.
inline std::optional<bc::Value> evalBinary(bc::Opcode Op, const bc::Value &A,
                                           const bc::Value &B,
                                           TrapKind &Trap) {
  using bc::Opcode;
  using bc::Value;
  Trap = TrapKind::None;
  bool BothInt = A.isInt() && B.isInt();

  switch (Op) {
  case Opcode::Add:
    if (BothInt)
      return Value::makeInt(detail::wrapAdd(A.asInt(), B.asInt()));
    return Value::makeFloat(A.toDouble() + B.toDouble());
  case Opcode::Sub:
    if (BothInt)
      return Value::makeInt(detail::wrapSub(A.asInt(), B.asInt()));
    return Value::makeFloat(A.toDouble() - B.toDouble());
  case Opcode::Mul:
    if (BothInt)
      return Value::makeInt(detail::wrapMul(A.asInt(), B.asInt()));
    return Value::makeFloat(A.toDouble() * B.toDouble());
  case Opcode::Div:
    if (BothInt) {
      if (B.asInt() == 0) {
        Trap = TrapKind::DivisionByZero;
        return std::nullopt;
      }
      // INT64_MIN / -1 overflows; wrap like Java's idiv does.
      if (A.asInt() == INT64_MIN && B.asInt() == -1)
        return Value::makeInt(INT64_MIN);
      return Value::makeInt(A.asInt() / B.asInt());
    }
    if (B.toDouble() == 0.0) {
      Trap = TrapKind::DivisionByZero;
      return std::nullopt;
    }
    return Value::makeFloat(A.toDouble() / B.toDouble());
  case Opcode::Mod:
    if (BothInt) {
      if (B.asInt() == 0) {
        Trap = TrapKind::DivisionByZero;
        return std::nullopt;
      }
      if (A.asInt() == INT64_MIN && B.asInt() == -1)
        return Value::makeInt(0);
      return Value::makeInt(A.asInt() % B.asInt());
    }
    if (B.toDouble() == 0.0) {
      Trap = TrapKind::DivisionByZero;
      return std::nullopt;
    }
    return Value::makeFloat(std::fmod(A.toDouble(), B.toDouble()));

  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr: {
    if (!BothInt) {
      Trap = TrapKind::IntegerOpOnFloat;
      return std::nullopt;
    }
    int64_t X = A.asInt(), Y = B.asInt();
    switch (Op) {
    case Opcode::And:
      return Value::makeInt(X & Y);
    case Opcode::Or:
      return Value::makeInt(X | Y);
    case Opcode::Xor:
      return Value::makeInt(X ^ Y);
    case Opcode::Shl:
      return Value::makeInt(static_cast<int64_t>(static_cast<uint64_t>(X)
                                                 << (Y & 63)));
    case Opcode::Shr:
      return Value::makeInt(X >> (Y & 63)); // arithmetic shift, Java-style
    default:
      break;
    }
    assert(false && "unhandled integer op");
    return std::nullopt;
  }

  case Opcode::Eq:
    return Value::makeInt(A.equals(B) ? 1 : 0);
  case Opcode::Ne:
    return Value::makeInt(A.equals(B) ? 0 : 1);
  case Opcode::Lt:
    if (BothInt)
      return Value::makeInt(A.asInt() < B.asInt() ? 1 : 0);
    return Value::makeInt(A.toDouble() < B.toDouble() ? 1 : 0);
  case Opcode::Le:
    if (BothInt)
      return Value::makeInt(A.asInt() <= B.asInt() ? 1 : 0);
    return Value::makeInt(A.toDouble() <= B.toDouble() ? 1 : 0);
  case Opcode::Gt:
    if (BothInt)
      return Value::makeInt(A.asInt() > B.asInt() ? 1 : 0);
    return Value::makeInt(A.toDouble() > B.toDouble() ? 1 : 0);
  case Opcode::Ge:
    if (BothInt)
      return Value::makeInt(A.asInt() >= B.asInt() ? 1 : 0);
    return Value::makeInt(A.toDouble() >= B.toDouble() ? 1 : 0);

  case Opcode::Min:
    if (BothInt)
      return Value::makeInt(std::min(A.asInt(), B.asInt()));
    return Value::makeFloat(std::min(A.toDouble(), B.toDouble()));
  case Opcode::Max:
    if (BothInt)
      return Value::makeInt(std::max(A.asInt(), B.asInt()));
    return Value::makeFloat(std::max(A.toDouble(), B.toDouble()));

  default:
    assert(false && "not a binary opcode");
    return std::nullopt;
  }
}

/// Evaluates a one-operand operator (\p Op in {Neg, Not, I2F..Abs}).
inline std::optional<bc::Value> evalUnary(bc::Opcode Op, const bc::Value &A,
                                          TrapKind &Trap) {
  using bc::Opcode;
  using bc::Value;
  Trap = TrapKind::None;
  switch (Op) {
  case Opcode::Neg:
    if (A.isInt())
      return Value::makeInt(detail::wrapSub(0, A.asInt()));
    return Value::makeFloat(-A.asFloat());
  case Opcode::Not:
    return Value::makeInt(A.isTruthy() ? 0 : 1);
  case Opcode::I2F:
    return Value::makeFloat(A.toDouble());
  case Opcode::F2I:
    return Value::makeInt(toInt64(A));
  case Opcode::Sqrt:
    return Value::makeFloat(std::sqrt(A.toDouble()));
  case Opcode::Sin:
    return Value::makeFloat(std::sin(A.toDouble()));
  case Opcode::Cos:
    return Value::makeFloat(std::cos(A.toDouble()));
  case Opcode::Floor:
    if (A.isInt())
      return A;
    return Value::makeFloat(std::floor(A.asFloat()));
  case Opcode::Abs:
    if (A.isInt())
      return Value::makeInt(A.asInt() < 0 ? detail::wrapSub(0, A.asInt())
                                          : A.asInt());
    return Value::makeFloat(std::fabs(A.asFloat()));
  default:
    assert(false && "not a unary opcode");
    return std::nullopt;
  }
}

} // namespace vm
} // namespace evm

#endif // EVM_VM_EVAL_H
