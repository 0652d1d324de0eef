//===- vm/Eval.cpp --------------------------------------------------------==//

#include "vm/Eval.h"

using namespace evm;
using namespace evm::vm;

const char *vm::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::DivisionByZero:
    return "division by zero";
  case TrapKind::IntegerOpOnFloat:
    return "integer operation on float operand";
  case TrapKind::HeapOutOfBounds:
    return "heap access out of bounds";
  case TrapKind::HeapExhausted:
    return "heap exhausted";
  case TrapKind::CallDepthExceeded:
    return "call depth exceeded";
  case TrapKind::FuelExhausted:
    return "cycle budget exhausted";
  }
  return "unknown";
}
