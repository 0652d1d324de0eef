//===- tests/test_interpreter.cpp - Baseline-tier semantics ---------------==//
//
// Exercises every opcode through small assembled programs, plus the shared
// evalBinary/evalUnary helpers directly (corner cases: division by zero,
// wrap-around, promotion, float-only traps).
//
//===----------------------------------------------------------------------===//

#include "vm/Engine.h"
#include "vm/Eval.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace evm;
using namespace evm::bc;
using namespace evm::vm;
using evm::test::assemble;
using evm::test::ForceLevelPolicy;
using evm::test::runProgram;

namespace {

/// Runs a one-expression program `main() { return <asm body> }`.
Value evalAsm(const std::string &Body) {
  bc::Module M = assemble("func main(0) locals 4\n" + Body + "  ret\nend\n");
  return runProgram(M);
}

} // namespace

//===----------------------------------------------------------------------===//
// Arithmetic and logic through the interpreter
//===----------------------------------------------------------------------===//

TEST(InterpArith, IntBasics) {
  EXPECT_EQ(evalAsm("  const_i 6\n  const_i 7\n  mul\n").asInt(), 42);
  EXPECT_EQ(evalAsm("  const_i 10\n  const_i 3\n  mod\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 10\n  const_i 3\n  div\n").asInt(), 3);
  EXPECT_EQ(evalAsm("  const_i 10\n  const_i 3\n  sub\n").asInt(), 7);
  EXPECT_EQ(evalAsm("  const_i 5\n  neg\n").asInt(), -5);
}

TEST(InterpArith, FloatPromotion) {
  Value V = evalAsm("  const_i 1\n  const_f 0.5\n  add\n");
  ASSERT_TRUE(V.isFloat());
  EXPECT_DOUBLE_EQ(V.asFloat(), 1.5);
}

TEST(InterpArith, Comparisons) {
  EXPECT_EQ(evalAsm("  const_i 2\n  const_i 3\n  lt\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 3\n  const_i 3\n  le\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 3\n  const_i 3\n  lt\n").asInt(), 0);
  EXPECT_EQ(evalAsm("  const_i 4\n  const_i 3\n  gt\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 4\n  const_i 4\n  ge\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 4\n  const_i 5\n  ne\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_f 2.0\n  const_i 2\n  eq\n").asInt(), 1);
}

TEST(InterpArith, BitwiseAndShifts) {
  EXPECT_EQ(evalAsm("  const_i 12\n  const_i 10\n  and\n").asInt(), 8);
  EXPECT_EQ(evalAsm("  const_i 12\n  const_i 10\n  or\n").asInt(), 14);
  EXPECT_EQ(evalAsm("  const_i 12\n  const_i 10\n  xor\n").asInt(), 6);
  EXPECT_EQ(evalAsm("  const_i 1\n  const_i 4\n  shl\n").asInt(), 16);
  EXPECT_EQ(evalAsm("  const_i -8\n  const_i 1\n  shr\n").asInt(), -4);
}

TEST(InterpArith, MathIntrinsics) {
  EXPECT_DOUBLE_EQ(evalAsm("  const_f 9.0\n  sqrt\n").asFloat(), 3.0);
  EXPECT_DOUBLE_EQ(evalAsm("  const_i -3\n  abs\n").toDouble(), 3.0);
  EXPECT_DOUBLE_EQ(evalAsm("  const_f -3.5\n  abs\n").asFloat(), 3.5);
  EXPECT_DOUBLE_EQ(evalAsm("  const_f 2.7\n  floor\n").asFloat(), 2.0);
  EXPECT_EQ(evalAsm("  const_i 3\n  const_i 8\n  min\n").asInt(), 3);
  EXPECT_EQ(evalAsm("  const_i 3\n  const_i 8\n  max\n").asInt(), 8);
  EXPECT_EQ(evalAsm("  const_f 2.9\n  f2i\n").asInt(), 2);
  EXPECT_TRUE(evalAsm("  const_i 2\n  i2f\n").isFloat());
}

TEST(InterpArith, NotTruthiness) {
  EXPECT_EQ(evalAsm("  const_i 0\n  not\n").asInt(), 1);
  EXPECT_EQ(evalAsm("  const_i 9\n  not\n").asInt(), 0);
  EXPECT_EQ(evalAsm("  const_f 0.0\n  not\n").asInt(), 1);
}

TEST(InterpStack, DupSwapPop) {
  EXPECT_EQ(evalAsm("  const_i 5\n  dup\n  add\n").asInt(), 10);
  EXPECT_EQ(evalAsm("  const_i 8\n  const_i 3\n  swap\n  sub\n").asInt(),
            -5);
  EXPECT_EQ(evalAsm("  const_i 1\n  const_i 2\n  pop\n").asInt(), 1);
}

//===----------------------------------------------------------------------===//
// Control flow, calls, heap
//===----------------------------------------------------------------------===//

TEST(InterpControl, CorpusProgramsProduceExpectedValues) {
  // sum_loop(10) = 45.
  bc::Module Sum = assemble(test::programCorpus()[0].second);
  EXPECT_EQ(runProgram(Sum, {Value::makeInt(10)}).asInt(), 45);
  // fib(10) = 55.
  bc::Module Fib = assemble(test::programCorpus()[1].second);
  EXPECT_EQ(runProgram(Fib, {Value::makeInt(10)}).asInt(), 55);
  // heap_fill_sum(5) = 0+1+4+9+16 = 30.
  bc::Module Heap = assemble(test::programCorpus()[2].second);
  EXPECT_EQ(runProgram(Heap, {Value::makeInt(5)}).asInt(), 30);
  // helper_calls(4) = sum (i*i + 1) for i<4 = 0+1+4+9 + 4 = 18.
  bc::Module Calls = assemble(test::programCorpus()[5].second);
  EXPECT_EQ(runProgram(Calls, {Value::makeInt(4)}).asInt(), 18);
}

TEST(InterpControl, BrFalseTakesFalsePath) {
  Value V = evalAsm("  const_i 0\n  br_false taken\n  const_i 111\n"
                    "  ret\ntaken:\n  const_i 222\n");
  EXPECT_EQ(V.asInt(), 222);
}

TEST(InterpHeap, AllocLoadStore) {
  Value V = evalAsm(R"(
  const_i 4
  newarr
  store_local 0
  load_local 0
  const_i 2
  add
  const_i 99
  hstore
  load_local 0
  const_i 2
  add
  hload
)");
  EXPECT_EQ(V.asInt(), 99);
}

TEST(InterpHeap, FreshCellsAreZero) {
  Value V = evalAsm("  const_i 3\n  newarr\n  hload\n");
  EXPECT_EQ(V.asInt(), 0);
}

//===----------------------------------------------------------------------===//
// Traps
//===----------------------------------------------------------------------===//

namespace {

std::string trapMessageOf(const std::string &Body,
                          std::vector<Value> Args = {}) {
  bc::Module M =
      assemble("func main(" + std::to_string(Args.size()) +
               ") locals 4\n" + Body + "  ret\nend\n");
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run(Args, 100000000ULL);
  EXPECT_FALSE(static_cast<bool>(R));
  return R ? std::string() : R.getError().message();
}

} // namespace

TEST(InterpTraps, DivisionByZero) {
  EXPECT_NE(trapMessageOf("  const_i 1\n  const_i 0\n  div\n")
                .find("division by zero"),
            std::string::npos);
  EXPECT_NE(trapMessageOf("  const_i 1\n  const_i 0\n  mod\n")
                .find("division by zero"),
            std::string::npos);
  EXPECT_NE(trapMessageOf("  const_f 1.0\n  const_f 0.0\n  div\n")
                .find("division by zero"),
            std::string::npos);
}

TEST(InterpTraps, IntegerOpOnFloat) {
  EXPECT_NE(trapMessageOf("  const_f 1.0\n  const_i 1\n  and\n")
                .find("integer operation"),
            std::string::npos);
  EXPECT_NE(trapMessageOf("  const_i 1\n  const_f 2.0\n  shl\n")
                .find("integer operation"),
            std::string::npos);
}

TEST(InterpTraps, HeapOutOfBounds) {
  EXPECT_NE(trapMessageOf("  const_i 1000000\n  hload\n")
                .find("out of bounds"),
            std::string::npos);
  EXPECT_NE(trapMessageOf("  const_i -1\n  const_i 5\n  hstore\n"
                          "  const_i 0\n")
                .find("out of bounds"),
            std::string::npos);
}

TEST(InterpTraps, FuelExhausted) {
  bc::Module M = assemble(R"(
func main(0) locals 1
loop:
  const_i 1
  br_true loop
  const_i 0
  ret
end
)");
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({}, /*MaxCycles=*/100000);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().message().find("cycle budget"),
            std::string::npos);
}

TEST(InterpTraps, CallDepthExceeded) {
  bc::Module M = assemble(R"(
func main(0) locals 1
  const_i 0
  call rec
  ret
end
func rec(1)
  load_local 0
  call rec
  ret
end
)");
  TimingModel TM;
  ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run({}, 1ULL << 40);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.getError().message().find("call depth"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Shared evaluator corner cases (direct)
//===----------------------------------------------------------------------===//

TEST(EvalCorners, WrappingArithmetic) {
  TrapKind Trap;
  auto V = evalBinary(Opcode::Add, Value::makeInt(INT64_MAX),
                      Value::makeInt(1), Trap);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt(), INT64_MIN); // two's-complement wrap, like Java
}

TEST(EvalCorners, IntMinDivMinusOne) {
  TrapKind Trap;
  auto V = evalBinary(Opcode::Div, Value::makeInt(INT64_MIN),
                      Value::makeInt(-1), Trap);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt(), INT64_MIN);
  auto R = evalBinary(Opcode::Mod, Value::makeInt(INT64_MIN),
                      Value::makeInt(-1), Trap);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 0);
}

TEST(EvalCorners, ShiftAmountMasked) {
  TrapKind Trap;
  auto V = evalBinary(Opcode::Shl, Value::makeInt(1), Value::makeInt(64 + 3),
                      Trap);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt(), 8); // 64-bit shifts mask the amount, Java-style
}

TEST(EvalCorners, FloatModUsesFmod) {
  TrapKind Trap;
  auto V = evalBinary(Opcode::Mod, Value::makeFloat(7.5),
                      Value::makeFloat(2.0), Trap);
  ASSERT_TRUE(V.has_value());
  EXPECT_DOUBLE_EQ(V->asFloat(), 1.5);
}

TEST(EvalCorners, FloorAndAbsPreserveIntKind) {
  TrapKind Trap;
  EXPECT_TRUE(evalUnary(Opcode::Floor, Value::makeInt(5), Trap)->isInt());
  EXPECT_TRUE(evalUnary(Opcode::Abs, Value::makeInt(-5), Trap)->isInt());
}

TEST(EvalCorners, ClassifierPredicates) {
  EXPECT_TRUE(isBinaryOp(Opcode::Add));
  EXPECT_TRUE(isBinaryOp(Opcode::Max));
  EXPECT_FALSE(isBinaryOp(Opcode::Neg));
  EXPECT_TRUE(isUnaryOp(Opcode::Sqrt));
  EXPECT_FALSE(isUnaryOp(Opcode::Call));
}

//===----------------------------------------------------------------------===//
// Float-to-int conversion: defined for every double, in every tier
//===----------------------------------------------------------------------===//

namespace {

/// Runs `main(x) { <Body> ret }` with the float \p X in the interpreter and
/// at O0-O2.  X arrives as an argument, so the compiled tiers convert it at
/// run time rather than in the constant folder.
std::vector<ErrorOr<RunResult>> runEveryTier(const std::string &Body,
                                             double X) {
  bc::Module M = assemble("func main(1) locals 1\n" + Body + "  ret\nend\n");
  std::vector<ErrorOr<RunResult>> Results;
  for (int L = 0; L != NumOptLevels; ++L) {
    TimingModel TM;
    ForceLevelPolicy Policy(levelFromIndex(L));
    ExecutionEngine Engine(M, TM, &Policy);
    Results.push_back(Engine.run({Value::makeFloat(X)}, 100000000ULL));
  }
  return Results;
}

const double Nan = std::numeric_limits<double>::quiet_NaN();
const double Inf = std::numeric_limits<double>::infinity();

} // namespace

TEST(FloatToInt, OutOfRangeGivesInt64MinInEveryTier) {
  for (double X : {Nan, Inf, -Inf, 1e300, -1e300, 0x1p63}) {
    SCOPED_TRACE("x=" + std::to_string(X));
    TrapKind Trap;
    EXPECT_EQ(evalUnary(Opcode::F2I, Value::makeFloat(X), Trap)->asInt(),
              INT64_MIN); // the constant folder's path
    for (const auto &R : runEveryTier("  load_local 0\n  f2i\n", X)) {
      ASSERT_TRUE(static_cast<bool>(R)) << R.getError().message();
      EXPECT_EQ(R->ReturnValue.asInt(), INT64_MIN);
    }
  }
}

TEST(FloatToInt, InRangeTruncatesTowardZeroInEveryTier) {
  for (auto [X, Want] : {std::pair<double, int64_t>{2.9, 2},
                         {-2.9, -2},
                         {-0x1p63, INT64_MIN}}) {
    SCOPED_TRACE("x=" + std::to_string(X));
    for (const auto &R : runEveryTier("  load_local 0\n  f2i\n", X)) {
      ASSERT_TRUE(static_cast<bool>(R)) << R.getError().message();
      EXPECT_EQ(R->ReturnValue.asInt(), Want);
    }
  }
}

TEST(FloatToInt, NonFiniteHeapAddressesTrapInEveryTier) {
  const std::string Alloc = "  const_i 4\n  newarr\n  pop\n";
  for (double X : {Nan, Inf, -Inf}) {
    SCOPED_TRACE("x=" + std::to_string(X));
    for (const std::string &Body :
         {Alloc + "  load_local 0\n  hload\n",
          Alloc + "  load_local 0\n  const_i 7\n  hstore\n  const_i 0\n"}) {
      for (const auto &R : runEveryTier(Body, X)) {
        ASSERT_FALSE(static_cast<bool>(R));
        EXPECT_NE(R.getError().message().find("heap access out of bounds"),
                  std::string::npos);
      }
    }
  }
  for (double X : {Nan, 1e300}) {
    SCOPED_TRACE("x=" + std::to_string(X));
    for (const auto &R : runEveryTier("  load_local 0\n  newarr\n", X)) {
      ASSERT_FALSE(static_cast<bool>(R));
      EXPECT_NE(R.getError().message().find("heap exhausted"),
                std::string::npos);
    }
  }
}
