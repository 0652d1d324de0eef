//===- tests/test_ir_lowering.cpp - Bytecode -> IR translation ------------==//

#include "vm/jit/Dominators.h"
#include "vm/jit/IR.h"
#include "vm/jit/Lowering.h"
#include "vm/jit/TypeInference.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::vm::jit;
using evm::test::assemble;

TEST(LoweringTest, StraightLineSingleBlock) {
  bc::Module M = assemble("func main(1)\n  load_local 0\n  const_i 2\n"
                          "  mul\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  EXPECT_EQ(F.Blocks.size(), 1u);
  EXPECT_TRUE(F.validate().empty());
  EXPECT_EQ(F.Blocks[0].terminator().Op, IROp::Ret);
  // load -> Mov, const -> MovImm, mul -> Binary, ret.
  EXPECT_EQ(F.Blocks[0].Instrs.size(), 4u);
}

TEST(LoweringTest, LocalsMapToFixedRegisters) {
  bc::Module M = assemble("func main(2) locals 3\n  load_local 1\n"
                          "  store_local 2\n  load_local 2\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  EXPECT_EQ(F.NumLocals, 3u);
  // First instruction reads local register 1 into a temp >= NumLocals.
  EXPECT_EQ(F.Blocks[0].Instrs[0].Op, IROp::Mov);
  EXPECT_EQ(F.Blocks[0].Instrs[0].A, 1u);
  EXPECT_GE(F.Blocks[0].Instrs[0].Dest, F.NumLocals);
  // store_local 2 writes register 2 exactly.
  EXPECT_EQ(F.Blocks[0].Instrs[1].Dest, 2u);
}

TEST(LoweringTest, BranchesSplitBlocks) {
  bc::Module M = assemble(R"(
func main(1)
  load_local 0
  br_true yes
  const_i 0
  ret
yes:
  const_i 1
  ret
end
)");
  IRFunction F = lowerToIR(M, 0);
  EXPECT_EQ(F.Blocks.size(), 3u);
  EXPECT_EQ(F.Blocks[0].terminator().Op, IROp::CondJump);
}

TEST(LoweringTest, BrFalseSwapsTargets) {
  bc::Module M = assemble(R"(
func main(1)
  load_local 0
  br_false skip
  const_i 1
  ret
skip:
  const_i 0
  ret
end
)");
  IRFunction F = lowerToIR(M, 0);
  const IRInstr &T = F.Blocks[0].terminator();
  ASSERT_EQ(T.Op, IROp::CondJump);
  // BrFalse: true-edge is the fallthrough, false-edge the label.
  EXPECT_EQ(T.Target, 1u);
  EXPECT_EQ(T.Target2, 2u);
}

TEST(LoweringTest, FallthroughGetsExplicitJump) {
  bc::Module M = assemble(R"(
func main(1) locals 2
  const_i 1
  store_local 1
loop:
  load_local 1
  br_false out
  const_i 0
  store_local 1
  br loop
out:
  load_local 1
  ret
end
)");
  IRFunction F = lowerToIR(M, 0);
  EXPECT_TRUE(F.validate().empty());
  // Entry block falls through into the loop header: must end in Jump.
  EXPECT_EQ(F.Blocks[0].terminator().Op, IROp::Jump);
}

TEST(LoweringTest, CallArgsPoppedInOrder) {
  bc::Module M = assemble(R"(
func main(0)
  const_i 10
  const_i 3
  call subtract
  ret
end
func subtract(2)
  load_local 0
  load_local 1
  sub
  ret
end
)");
  IRFunction F = lowerToIR(M, 0);
  const IRInstr *Call = nullptr;
  for (const IRInstr &I : F.Blocks[0].Instrs)
    if (I.Op == IROp::Call)
      Call = &I;
  ASSERT_NE(Call, nullptr);
  ASSERT_EQ(Call->Args.size(), 2u);
  // First pushed constant (10) must be the first argument.
  const IRInstr &First = F.Blocks[0].Instrs[0];
  EXPECT_EQ(First.Op, IROp::MovImm);
  EXPECT_EQ(Call->Args[0], First.Dest);
}

TEST(LoweringTest, DupReusesRegisterWithoutCopy) {
  bc::Module M = assemble("func main(1)\n  load_local 0\n  dup\n  mul\n"
                          "  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  const IRInstr &Mul = F.Blocks[0].Instrs[1];
  ASSERT_EQ(Mul.Op, IROp::Binary);
  EXPECT_EQ(Mul.A, Mul.B); // squared via the same temp
}

TEST(LoweringTest, CorpusValidates) {
  for (const auto &[Name, Source] : test::programCorpus()) {
    SCOPED_TRACE(Name);
    bc::Module M = assemble(Source);
    for (bc::MethodId Id = 0; Id != M.numFunctions(); ++Id) {
      IRFunction F = lowerToIR(M, Id);
      EXPECT_TRUE(F.validate().empty()) << F.validate();
    }
  }
}

//===----------------------------------------------------------------------===//
// Dominators and loops
//===----------------------------------------------------------------------===//

namespace {

/// Lowered loop program used by the analyses below.
IRFunction loweredLoop() {
  bc::Module M = test::assemble(test::programCorpus()[0].second); // sum_loop
  return lowerToIR(M, 0);
}

} // namespace

TEST(DominatorsTest, EntryDominatesEverything) {
  IRFunction F = loweredLoop();
  DominatorTree DT(F);
  for (BlockId B = 0; B != F.Blocks.size(); ++B)
    if (DT.isReachable(B)) {
      EXPECT_TRUE(DT.dominates(0, B));
    }
}

TEST(DominatorsTest, DominanceIsReflexiveAndAntisymmetric) {
  IRFunction F = loweredLoop();
  DominatorTree DT(F);
  for (BlockId A = 0; A != F.Blocks.size(); ++A) {
    EXPECT_TRUE(DT.dominates(A, A));
    for (BlockId B = 0; B != F.Blocks.size(); ++B)
      if (A != B && DT.isReachable(A) && DT.isReachable(B)) {
        EXPECT_FALSE(DT.dominates(A, B) && DT.dominates(B, A));
      }
  }
}

TEST(DominatorsTest, RpoStartsAtEntry) {
  IRFunction F = loweredLoop();
  DominatorTree DT(F);
  ASSERT_FALSE(DT.reversePostOrder().empty());
  EXPECT_EQ(DT.reversePostOrder().front(), 0u);
}

TEST(LoopsTest, FindsTheSumLoop) {
  IRFunction F = loweredLoop();
  DominatorTree DT(F);
  auto Loops = findNaturalLoops(F, DT);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_FALSE(Loops[0].Latches.empty());
  EXPECT_TRUE(Loops[0].contains(Loops[0].Header));
  // The header dominates the whole body (natural-loop property LICM uses).
  for (BlockId B : Loops[0].Body)
    EXPECT_TRUE(DT.dominates(Loops[0].Header, B));
}

TEST(LoopsTest, StraightLineHasNoLoops) {
  bc::Module M = assemble("func main(0)\n  const_i 1\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  DominatorTree DT(F);
  EXPECT_TRUE(findNaturalLoops(F, DT).empty());
}

TEST(LoopsTest, NestedLoopsFound) {
  bc::Module M = assemble(R"(
func main(1) locals 4
  const_i 0
  store_local 1
outer:
  load_local 1
  load_local 0
  lt
  br_false done
  const_i 0
  store_local 2
inner:
  load_local 2
  load_local 0
  lt
  br_false outer_next
  load_local 2
  const_i 1
  add
  store_local 2
  br inner
outer_next:
  load_local 1
  const_i 1
  add
  store_local 1
  br outer
done:
  load_local 1
  ret
end
)");
  IRFunction F = lowerToIR(M, 0);
  DominatorTree DT(F);
  auto Loops = findNaturalLoops(F, DT);
  EXPECT_EQ(Loops.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Type inference
//===----------------------------------------------------------------------===//

TEST(TypeInferenceTest, JoinLattice) {
  EXPECT_EQ(joinRegTypes(RegType::Unknown, RegType::Int), RegType::Int);
  EXPECT_EQ(joinRegTypes(RegType::Int, RegType::Int), RegType::Int);
  EXPECT_EQ(joinRegTypes(RegType::Int, RegType::Float), RegType::Mixed);
  EXPECT_EQ(joinRegTypes(RegType::Mixed, RegType::Int), RegType::Mixed);
}

TEST(TypeInferenceTest, ConstantsGiveExactTypes) {
  bc::Module M = assemble("func main(0) locals 2\n  const_i 1\n"
                          "  store_local 0\n  const_f 1.5\n  store_local 1\n"
                          "  load_local 0\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  auto Types = inferRegTypes(F);
  EXPECT_EQ(Types[0], RegType::Int);
  // Non-param locals start zero-initialized (Int), so a float-stored local
  // joins to Mixed — the sound answer for a zero-init + float-def register.
  EXPECT_EQ(Types[1], RegType::Mixed);
}

TEST(TypeInferenceTest, ParamsAreMixed) {
  bc::Module M = assemble("func main(1)\n  load_local 0\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  EXPECT_EQ(inferRegTypes(F)[0], RegType::Mixed);
}

TEST(TypeInferenceTest, ComparisonsAreInt) {
  bc::Module M = assemble("func main(1)\n  load_local 0\n  const_f 2.0\n"
                          "  lt\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  auto Types = inferRegTypes(F);
  const IRInstr &Cmp = F.Blocks[0].Instrs[2];
  ASSERT_EQ(Cmp.Op, IROp::Binary);
  EXPECT_EQ(Types[Cmp.Dest], RegType::Int);
}

TEST(TypeInferenceTest, FloatPropagatesThroughArith) {
  bc::Module M = assemble("func main(1)\n  load_local 0\n  const_f 2.0\n"
                          "  mul\n  ret\nend\n");
  IRFunction F = lowerToIR(M, 0);
  auto Types = inferRegTypes(F);
  const IRInstr &Mul = F.Blocks[0].Instrs[2];
  EXPECT_EQ(Types[Mul.Dest], RegType::Float);
}

TEST(TypeInferenceTest, LoopCarriedIntStaysInt) {
  bc::Module M = assemble(test::programCorpus()[0].second); // sum_loop
  IRFunction F = lowerToIR(M, 0);
  auto Types = inferRegTypes(F);
  // Local 2 (the induction variable) only ever holds int expressions.
  EXPECT_EQ(Types[2], RegType::Int);
}
