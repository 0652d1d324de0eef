//===- bytecode/Assembler.h - Textual bytecode front end ------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small textual assembly format for MiniVM modules, used by examples and
/// tests (workloads use the builder API instead).  Syntax:
///
/// \code
///   # shortest-path kernel
///   func main(2) locals 4
///     const_i 0
///     store_local 2
///   loop:
///     load_local 2
///     load_local 0
///     lt
///     br_false done
///     call helper        # calls may use names or indices
///     pop
///     ...
///     br loop
///   done:
///     load_local 3
///     ret
///   end
/// \endcode
///
/// Function names are identifiers ([A-Za-z_][A-Za-z0-9_]*).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_BYTECODE_ASSEMBLER_H
#define EVM_BYTECODE_ASSEMBLER_H

#include "bytecode/Module.h"
#include "support/Error.h"

#include <string_view>

namespace evm {
namespace bc {

/// Parses \p Source into a verified Module.  Diagnostics carry 1-based line
/// numbers.
ErrorOr<Module> assembleModule(std::string_view Source);

/// Renders \p M back to assembly text accepted by assembleModule.
std::string disassembleModule(const Module &M);

/// Renders a single function (used in tests and debug dumps).
std::string disassembleFunction(const Module &M, MethodId Id);

} // namespace bc
} // namespace evm

#endif // EVM_BYTECODE_ASSEMBLER_H
