//===- tests/test_assembler.cpp - Textual assembler round trips -----------==//

#include "bytecode/Assembler.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace evm;
using namespace evm::bc;

TEST(AssemblerTest, MinimalProgram) {
  auto M = assembleModule("func main(0)\n  const_i 7\n  ret\nend\n");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_EQ(M->numFunctions(), 1u);
  EXPECT_EQ(M->function(0).Code.size(), 2u);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  auto M = assembleModule(R"(
# leading comment
func main(0)   # header comment

  const_i 1    # trailing
  ret
end
)");
  EXPECT_TRUE(static_cast<bool>(M));
}

TEST(AssemblerTest, LabelsResolve) {
  auto M = assembleModule(R"(
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
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_EQ(M->function(0).Code[1].Op, Opcode::BrTrue);
  EXPECT_EQ(M->function(0).Code[1].Operand, 4);
}

TEST(AssemblerTest, CallByNameAcrossFunctions) {
  auto M = assembleModule(R"(
func main(0)
  const_i 4
  call double_it
  ret
end
func double_it(1)
  load_local 0
  const_i 2
  mul
  ret
end
)");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_EQ(M->function(0).Code[1].Op, Opcode::Call);
  EXPECT_EQ(M->function(0).Code[1].Operand, 1);
}

TEST(AssemblerTest, FloatLiterals) {
  auto M = assembleModule("func main(0)\n  const_f 2.75\n  f2i\n  ret\nend\n");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_DOUBLE_EQ(M->function(0).Code[0].floatOperand(), 2.75);
}

TEST(AssemblerTest, DeclaredLocals) {
  auto M = assembleModule(
      "func main(0) locals 5\n  const_i 0\n  store_local 4\n"
      "  load_local 4\n  ret\nend\n");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_EQ(M->function(0).NumLocals, 5u);
}

TEST(AssemblerTest, InferredLocalsFromMaxIndex) {
  auto M = assembleModule(
      "func main(0)\n  const_i 1\n  store_local 3\n  load_local 3\n"
      "  ret\nend\n");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_EQ(M->function(0).NumLocals, 4u);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

namespace {

std::string diagnosticOf(std::string_view Source) {
  auto M = assembleModule(Source);
  EXPECT_FALSE(static_cast<bool>(M));
  return M ? std::string() : M.getError().message();
}

} // namespace

TEST(AssemblerDiagnostics, UnknownMnemonic) {
  EXPECT_NE(diagnosticOf("func main(0)\n  zork\n  ret\nend\n")
                .find("unknown mnemonic"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, UnknownLabel) {
  EXPECT_NE(diagnosticOf("func main(0)\n  br nowhere\nend\n")
                .find("unknown label"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, UnknownCallee) {
  EXPECT_NE(diagnosticOf("func main(0)\n  call ghost\n  ret\nend\n")
                .find("unknown function"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, DuplicateLabel) {
  EXPECT_NE(diagnosticOf(
                "func main(0)\nx:\nx:\n  const_i 1\n  ret\nend\n")
                .find("duplicate label"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, DuplicateFunction) {
  EXPECT_NE(diagnosticOf("func f(0)\n  const_i 1\n  ret\nend\n"
                         "func f(0)\n  const_i 1\n  ret\nend\n")
                .find("duplicate function"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, MissingEnd) {
  EXPECT_NE(diagnosticOf("func main(0)\n  const_i 1\n  ret\n")
                .find("missing 'end'"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, OperandArityErrors) {
  EXPECT_NE(diagnosticOf("func main(0)\n  const_i\n  ret\nend\n")
                .find("requires one operand"),
            std::string::npos);
  EXPECT_NE(diagnosticOf("func main(0)\n  const_i 1\n  add 3\n  ret\nend\n")
                .find("takes no operand"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, FunctionNamesMustBeIdentifiers) {
  // Names become profiler frames and trace labels: a '"' would break their
  // JSON, a ';' would split the collapsed stack.
  for (const char *Header : {"func ma\"in(0)", "func ma;in(0)",
                             "func 9main(0)"}) {
    std::string Msg = diagnosticOf("func f(0)\n  const_i 1\n  ret\nend\n" +
                                   std::string(Header) +
                                   "\n  const_i 1\n  ret\nend\n");
    EXPECT_NE(Msg.find("line 5: malformed function header"),
              std::string::npos)
        << Header << ": " << Msg;
  }
}

TEST(AssemblerDiagnostics, LineNumbersReported) {
  std::string Msg =
      diagnosticOf("func main(0)\n  const_i 1\n  frob\n  ret\nend\n");
  EXPECT_NE(Msg.find("line 3"), std::string::npos);
}

TEST(AssemblerDiagnostics, LocalBeyondDeclared) {
  EXPECT_NE(diagnosticOf("func main(0) locals 1\n  const_i 1\n"
                         "  store_local 5\n  const_i 0\n  ret\nend\n")
                .find("beyond declared"),
            std::string::npos);
}

TEST(AssemblerDiagnostics, VerifierRunsOnAssembledCode) {
  // Syntactically fine but stack-invalid: caught by the verifier.
  EXPECT_NE(diagnosticOf("func main(0)\n  pop\n  const_i 1\n  ret\nend\n")
                .find("underflow"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Disassembler round trip
//===----------------------------------------------------------------------===//

TEST(DisassemblerTest, RoundTripPreservesSemantics) {
  for (const auto &[Name, Source] : test::programCorpus()) {
    SCOPED_TRACE(Name);
    bc::Module M1 = test::assemble(Source);
    std::string Text = disassembleModule(M1);
    auto M2 = assembleModule(Text);
    ASSERT_TRUE(static_cast<bool>(M2)) << M2.getError().message();
    // Same output on the same input after a round trip.
    bc::Value R1 = test::runProgram(M1, {bc::Value::makeInt(25)});
    bc::Value R2 = test::runProgram(*M2, {bc::Value::makeInt(25)});
    EXPECT_TRUE(R1.equals(R2));
  }
}

TEST(DisassemblerTest, EmitsLabelsAndCallNames) {
  bc::Module M = test::assemble(R"(
func main(1)
  load_local 0
  call helper
  ret
end
func helper(1)
  load_local 0
  ret
end
)");
  std::string Text = disassembleModule(M);
  EXPECT_NE(Text.find("call helper"), std::string::npos);
  EXPECT_NE(Text.find("func main(1)"), std::string::npos);
}
