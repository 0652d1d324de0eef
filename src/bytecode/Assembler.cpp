//===- bytecode/Assembler.cpp ---------------------------------------------==//

#include "bytecode/Assembler.h"
#include "bytecode/Verifier.h"

#include "support/Format.h"
#include "support/StringUtils.h"

#include <cassert>
#include <unordered_map>

using namespace evm;
using namespace evm::bc;

namespace {

/// One body line awaiting operand/label resolution.
struct PendingInstr {
  Opcode Op;
  std::string OperandToken; ///< raw text; empty when absent
  int Line;
};

struct PendingFunction {
  std::string Name;
  uint32_t NumParams = 0;
  std::optional<uint32_t> DeclaredLocals;
  int Line = 0;
  std::vector<PendingInstr> Body;
  std::unordered_map<std::string, size_t> Labels; ///< label -> instr index
};

/// Strips a trailing '#' comment (not inside quotes; the asm has no strings).
std::string stripComment(const std::string &Line) {
  size_t Pos = Line.find('#');
  if (Pos == std::string::npos)
    return Line;
  return Line.substr(0, Pos);
}

/// True for names matching [A-Za-z_][A-Za-z0-9_]*.  Function names become
/// profiler frames and trace labels, which must not contain ';' or '"'.
bool isIdentifier(const std::string &Name) {
  auto IsAlpha = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
  };
  if (Name.empty() || !IsAlpha(Name[0]))
    return false;
  for (char C : Name)
    if (!IsAlpha(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

/// Parses "func name(N)" headers; returns false on malformed syntax or a
/// name that is not an identifier.
bool parseHeader(const std::string &Rest, std::string &Name,
                 uint32_t &NumParams, std::optional<uint32_t> &Locals) {
  std::vector<std::string> Words = splitWhitespace(Rest);
  if (Words.empty())
    return false;
  const std::string &Sig = Words[0];
  size_t Open = Sig.find('(');
  size_t Close = Sig.find(')');
  if (Open == std::string::npos || Close == std::string::npos || Close < Open)
    return false;
  Name = Sig.substr(0, Open);
  auto Params = parseInteger(Sig.substr(Open + 1, Close - Open - 1));
  if (!isIdentifier(Name) || !Params || *Params < 0)
    return false;
  NumParams = static_cast<uint32_t>(*Params);
  Locals = std::nullopt;
  if (Words.size() == 1)
    return true;
  if (Words.size() != 3 || Words[1] != "locals")
    return false;
  auto L = parseInteger(Words[2]);
  if (!L || *L < 0)
    return false;
  Locals = static_cast<uint32_t>(*L);
  return true;
}

} // namespace

ErrorOr<Module> bc::assembleModule(std::string_view Source) {
  std::vector<PendingFunction> Pending;
  std::unordered_map<std::string, MethodId> FunctionIds;

  PendingFunction *Current = nullptr;
  int LineNo = 0;
  for (const std::string &RawLine : splitString(Source, '\n')) {
    ++LineNo;
    std::string Line = trimString(stripComment(RawLine));
    if (Line.empty())
      continue;

    if (startsWith(Line, "func ")) {
      if (Current)
        return makeError("line %d: 'func' inside another function", LineNo);
      PendingFunction F;
      F.Line = LineNo;
      if (!parseHeader(trimString(Line.substr(5)), F.Name, F.NumParams,
                       F.DeclaredLocals))
        return makeError("line %d: malformed function header", LineNo);
      if (FunctionIds.count(F.Name))
        return makeError("line %d: duplicate function '%s'", LineNo,
                         F.Name.c_str());
      FunctionIds.emplace(F.Name, static_cast<MethodId>(Pending.size()));
      Pending.push_back(std::move(F));
      Current = &Pending.back();
      continue;
    }

    if (Line == "end") {
      if (!Current)
        return makeError("line %d: 'end' outside a function", LineNo);
      Current = nullptr;
      continue;
    }

    if (!Current)
      return makeError("line %d: instruction outside a function", LineNo);

    if (endsWith(Line, ":")) {
      std::string Label = trimString(Line.substr(0, Line.size() - 1));
      if (Label.empty())
        return makeError("line %d: empty label", LineNo);
      if (Current->Labels.count(Label))
        return makeError("line %d: duplicate label '%s'", LineNo,
                         Label.c_str());
      Current->Labels.emplace(Label, Current->Body.size());
      continue;
    }

    std::vector<std::string> Words = splitWhitespace(Line);
    assert(!Words.empty() && "blank lines were filtered above");
    auto Op = parseOpcodeMnemonic(Words[0]);
    if (!Op)
      return makeError("line %d: unknown mnemonic '%s'", LineNo,
                       Words[0].c_str());
    const OpcodeInfo &Info = getOpcodeInfo(*Op);
    if (Info.HasOperand && Words.size() != 2)
      return makeError("line %d: '%s' requires one operand", LineNo,
                       Words[0].c_str());
    if (!Info.HasOperand && Words.size() != 1)
      return makeError("line %d: '%s' takes no operand", LineNo,
                       Words[0].c_str());
    Current->Body.push_back(
        PendingInstr{*Op, Words.size() == 2 ? Words[1] : std::string(),
                     LineNo});
  }
  if (Current)
    return makeError("line %d: missing 'end' for function '%s'", LineNo,
                     Current->Name.c_str());

  // Resolution pass: labels and call names are now all known.
  Module M;
  for (PendingFunction &PF : Pending) {
    Function F;
    F.Name = PF.Name;
    F.NumParams = PF.NumParams;
    uint32_t MaxLocal = PF.NumParams;
    for (const PendingInstr &PI : PF.Body) {
      Instr I;
      I.Op = PI.Op;
      switch (PI.Op) {
      case Opcode::Br:
      case Opcode::BrTrue:
      case Opcode::BrFalse: {
        auto It = PF.Labels.find(PI.OperandToken);
        if (It == PF.Labels.end())
          return makeError("line %d: unknown label '%s'", PI.Line,
                           PI.OperandToken.c_str());
        I.Operand = static_cast<int64_t>(It->second);
        break;
      }
      case Opcode::Call: {
        if (auto Index = parseInteger(PI.OperandToken)) {
          I.Operand = *Index;
        } else {
          auto It = FunctionIds.find(PI.OperandToken);
          if (It == FunctionIds.end())
            return makeError("line %d: unknown function '%s'", PI.Line,
                             PI.OperandToken.c_str());
          I.Operand = static_cast<int64_t>(It->second);
        }
        break;
      }
      case Opcode::ConstFloat: {
        auto V = parseDouble(PI.OperandToken);
        if (!V)
          return makeError("line %d: malformed float literal '%s'", PI.Line,
                           PI.OperandToken.c_str());
        I.Operand = Instr::encodeFloat(*V);
        break;
      }
      default: {
        if (getOpcodeInfo(PI.Op).HasOperand) {
          auto V = parseInteger(PI.OperandToken);
          if (!V)
            return makeError("line %d: malformed integer operand '%s'",
                             PI.Line, PI.OperandToken.c_str());
          I.Operand = *V;
          if (PI.Op == Opcode::LoadLocal || PI.Op == Opcode::StoreLocal)
            MaxLocal = std::max(MaxLocal, static_cast<uint32_t>(*V) + 1);
        }
        break;
      }
      }
      F.Code.push_back(I);
    }
    F.NumLocals = PF.DeclaredLocals ? *PF.DeclaredLocals : MaxLocal;
    if (F.NumLocals < MaxLocal)
      return makeError("line %d: function '%s' uses local beyond declared "
                       "'locals %u'",
                       PF.Line, PF.Name.c_str(), F.NumLocals);
    M.addFunction(std::move(F));
  }

  if (Error Err = verifyModule(M); !Err.message().empty())
    return Err;
  return M;
}

std::string bc::disassembleFunction(const Module &M, MethodId Id) {
  const Function &F = M.function(Id);

  // Branch targets get labels "L<index>".
  std::unordered_map<size_t, std::string> Labels;
  for (const Instr &I : F.Code)
    if (getOpcodeInfo(I.Op).IsBranch)
      Labels.emplace(static_cast<size_t>(I.Operand),
                     formatString("L%zu", static_cast<size_t>(I.Operand)));

  std::string Out = formatString("func %s(%u) locals %u\n", F.Name.c_str(),
                                 F.NumParams, F.NumLocals);
  for (size_t Pc = 0; Pc != F.Code.size(); ++Pc) {
    if (auto It = Labels.find(Pc); It != Labels.end())
      Out += It->second + ":\n";
    const Instr &I = F.Code[Pc];
    const OpcodeInfo &Info = getOpcodeInfo(I.Op);
    Out += "  ";
    Out += Info.Mnemonic;
    if (Info.IsBranch) {
      Out += " " + Labels[static_cast<size_t>(I.Operand)];
    } else if (I.Op == Opcode::Call) {
      Out += " " + M.function(static_cast<MethodId>(I.Operand)).Name;
    } else if (I.Op == Opcode::ConstFloat) {
      Out += formatString(" %g", I.floatOperand());
    } else if (Info.HasOperand) {
      Out += formatString(" %lld", static_cast<long long>(I.Operand));
    }
    Out += "\n";
  }
  Out += "end\n";
  return Out;
}

std::string bc::disassembleModule(const Module &M) {
  std::string Out;
  for (MethodId Id = 0; Id != M.numFunctions(); ++Id) {
    if (Id != 0)
      Out += "\n";
    Out += disassembleFunction(M, Id);
  }
  return Out;
}
