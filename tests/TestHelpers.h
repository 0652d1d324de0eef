//===- tests/TestHelpers.h - Shared fixtures for the test suite -----------==//

#ifndef EVM_TESTS_TESTHELPERS_H
#define EVM_TESTS_TESTHELPERS_H

#include "bytecode/Assembler.h"
#include "bytecode/Module.h"
#include "vm/Engine.h"

#include <gtest/gtest.h>

namespace evm {
namespace test {

/// Assembles \p Source, failing the test on a diagnostic.
inline bc::Module assemble(std::string_view Source) {
  auto M = bc::assembleModule(Source);
  EXPECT_TRUE(static_cast<bool>(M))
      << (M ? "" : M.getError().message());
  return M ? M.takeValue() : bc::Module();
}

/// Pins every method at one level on first invocation (Baseline: leaves
/// every method interpreted).
class ForceLevelPolicy : public vm::CompilationPolicy {
public:
  explicit ForceLevelPolicy(vm::OptLevel L) : Level(L) {}
  std::optional<vm::OptLevel>
  onFirstInvocation(const vm::MethodRuntimeInfo &) override {
    if (Level == vm::OptLevel::Baseline)
      return std::nullopt;
    return Level;
  }

private:
  vm::OptLevel Level;
};

/// Runs main(Args) without any recompilation policy; fails on traps.
inline bc::Value runProgram(const bc::Module &M,
                            std::vector<bc::Value> Args = {},
                            uint64_t MaxCycles = 500000000ULL) {
  vm::TimingModel TM;
  vm::ExecutionEngine Engine(M, TM, nullptr);
  auto R = Engine.run(Args, MaxCycles);
  EXPECT_TRUE(static_cast<bool>(R)) << (R ? "" : R.getError().message());
  return R ? R->ReturnValue : bc::Value();
}

/// Small corpus of semantically interesting programs used by the JIT
/// property suite: loops, calls, conditionals, heap traffic, floats,
/// recursion.  Each takes one integer parameter.
inline const std::vector<std::pair<const char *, const char *>> &
programCorpus() {
  static const std::vector<std::pair<const char *, const char *>> Corpus = {
      {"sum_loop", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
)"},
      {"fib_recursive", R"(
func main(1) locals 1
  load_local 0
  call fib
  ret
end
func fib(1) locals 1
  load_local 0
  const_i 2
  lt
  br_false rec
  load_local 0
  ret
rec:
  load_local 0
  const_i 1
  sub
  call fib
  load_local 0
  const_i 2
  sub
  call fib
  add
  ret
end
)"},
      {"heap_fill_sum", R"(
func main(1) locals 4
  load_local 0
  newarr
  store_local 1
  const_i 0
  store_local 2
fill:
  load_local 2
  load_local 0
  lt
  br_false sum_init
  load_local 1
  load_local 2
  add
  load_local 2
  load_local 2
  mul
  hstore
  load_local 2
  const_i 1
  add
  store_local 2
  br fill
sum_init:
  const_i 0
  store_local 2
  const_i 0
  store_local 3
sum:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 3
  load_local 1
  load_local 2
  add
  hload
  add
  store_local 3
  load_local 2
  const_i 1
  add
  store_local 2
  br sum
done:
  load_local 3
  ret
end
)"},
      {"float_math", R"(
func main(1) locals 3
  const_i 0
  store_local 2
  const_f 0.0
  store_local 1
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  const_f 0.1
  mul
  sin
  load_local 2
  const_i 1
  add
  sqrt
  mul
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  const_f 1000.0
  mul
  f2i
  ret
end
)"},
      {"branchy_mix", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 2
  const_i 3
  mod
  br_true odd
  load_local 1
  load_local 2
  const_i 2
  mul
  add
  store_local 1
  br next
odd:
  load_local 1
  load_local 2
  const_i 7
  and
  sub
  store_local 1
next:
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
)"},
      {"helper_calls", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  call square_plus_one
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
func square_plus_one(1) locals 1
  load_local 0
  load_local 0
  mul
  const_i 1
  add
  ret
end
)"},
      // Chunked driver: main is invoked once (so it stays at baseline — the
      // VM has no on-stack replacement) but the hot loop lives in a method
      // invoked once per chunk, the shape real workloads have.
      {"chunked_work", R"(
func main(1) locals 3
  const_i 0
  store_local 1
  const_i 0
  store_local 2
loop:
  load_local 2
  load_local 0
  lt
  br_false done
  load_local 1
  load_local 2
  call work
  add
  store_local 1
  load_local 2
  const_i 1
  add
  store_local 2
  br loop
done:
  load_local 1
  ret
end
func work(1) locals 4
  const_i 0
  store_local 1
  const_f 0.0
  store_local 2
inner:
  load_local 1
  const_i 200
  lt
  br_false out
  load_local 2
  load_local 0
  const_f 0.01
  mul
  sin
  load_local 1
  const_i 1
  add
  sqrt
  mul
  add
  store_local 2
  load_local 1
  const_i 1
  add
  store_local 1
  br inner
out:
  load_local 2
  const_f 100.0
  mul
  f2i
  ret
end
)"},
  };
  return Corpus;
}

} // namespace test
} // namespace evm

#endif // EVM_TESTS_TESTHELPERS_H
