//===- xicl/Translator.cpp ------------------------------------------------==//

#include "xicl/Translator.h"

#include "support/Format.h"
#include "support/Profiler.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <cmath>
#include <map>

using namespace evm;
using namespace evm::xicl;

int FeatureVector::indexOf(const std::string &Name) const {
  for (size_t I = 0; I != Features.size(); ++I)
    if (Features[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

namespace {

/// Non-finite numbers (an "inf" or "nan" argument, a range sum that
/// overflowed) read 0, like an unparsable value: features stay finite, so
/// the knowledge store can write them as JSON and tree induction can sort
/// them.
void keepFinite(Feature &F) {
  if (F.isNumeric() && !std::isfinite(F.Num))
    F.Num = 0;
}

} // namespace

void FeatureVector::updateV(const std::string &Name, Feature F) {
  F.Name = Name;
  keepFinite(F);
  int Index = indexOf(Name);
  if (Index < 0)
    Features.push_back(std::move(F));
  else
    Features[static_cast<size_t>(Index)] = std::move(F);
}

std::string FeatureVector::str() const {
  std::string Out;
  for (size_t I = 0; I != Features.size(); ++I) {
    const Feature &F = Features[I];
    if (I != 0)
      Out += ", ";
    if (F.isNumeric())
      Out += formatString("%s=%g", F.Name.c_str(), F.Num);
    else
      Out += formatString("%s=%s", F.Name.c_str(), F.Cat.c_str());
  }
  return Out;
}

uint64_t FeatureVector::hash() const {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : str()) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

XICLTranslator::XICLTranslator(Spec TheSpec, const XFMethodRegistry *Registry,
                               const FileStore *Files)
    : TheSpec(std::move(TheSpec)), Registry(Registry), Files(Files) {
  assert(Registry && "translator needs a method registry");
}

namespace {

/// Feature-name prefix for an operand spec.
std::string operandPrefix(const OperandSpec &Op) {
  if (Op.PosStart == Op.PosEnd)
    return formatString("operand%d", Op.PosStart);
  if (Op.PosEnd < 0)
    return formatString("operands%d_$", Op.PosStart);
  return formatString("operands%d_%d", Op.PosStart, Op.PosEnd);
}

} // namespace

ErrorOr<FeatureVector> XICLTranslator::buildFVector(
    std::string_view CommandLine) {
  // Entered once per characterization; the modeled cost is charged to the
  // engine's clock by the evolvable VM (run;overhead;xicl/characterize),
  // so this frame carries entry counts only.
  PROF_SCOPE("xicl/characterize");
  Stats = TranslationStats();
  std::vector<std::string> Tokens = tokenizeCommandLine(CommandLine);
  Stats.TokensScanned = Tokens.size();
  if (Tokens.empty())
    return makeError("empty command line");

  // Scan pass: split the line into option values and positional operands.
  std::map<size_t, std::string> OptionValues; // option index -> raw value
  std::vector<std::string> OperandTokens;
  for (size_t T = 1; T < Tokens.size(); ++T) {
    const std::string &Token = Tokens[T];
    if (Token.size() >= 2 && Token[0] == '-' &&
        !(Token.size() > 1 && (std::isdigit(static_cast<unsigned char>(
                                  Token[1])) ||
                              Token[1] == '.'))) {
      size_t Index = TheSpec.Options.size();
      for (size_t K = 0; K != TheSpec.Options.size(); ++K)
        if (TheSpec.Options[K].matches(Token)) {
          Index = K;
          break;
        }
      if (Index == TheSpec.Options.size())
        return makeError("unknown option '%s'", Token.c_str());
      const OptionSpec &Opt = TheSpec.Options[Index];
      if (Opt.HasArg) {
        if (T + 1 >= Tokens.size())
          return makeError("option '%s' requires an argument",
                           Token.c_str());
        OptionValues[Index] = Tokens[++T];
      } else {
        // assign(1, '1') rather than = "1": GCC 12 raises a false
        // -Wrestrict inside std::string for the latter (GCC bug 105329).
        OptionValues[Index].assign(1, '1'); // presence of a flag
      }
      continue;
    }
    OperandTokens.push_back(Token);
  }

  // Extraction pass, in specification order so the schema is stable.
  FeatureVector FV;
  auto Extract = [&](const std::string &AttrName, const std::string &Raw,
                     ComponentType Type,
                     const std::string &Prefix) -> ErrorOr<bool> {
    const XFMethod *Method = Registry->getMethod(AttrName);
    if (!Method)
      return makeError("unresolved feature-extraction method '%s'",
                       AttrName.c_str());
    ExtractionContext Ctx;
    Ctx.Files = Files;
    Ctx.Type = Type;
    Ctx.FeatureNamePrefix = Prefix;
    if (Type == ComponentType::File)
      ++Stats.FileLookups;
    std::vector<Feature> Extracted = (*Method)(Raw, Ctx);
    Stats.FeaturesExtracted += Extracted.size();
    for (Feature &F : Extracted)
      FV.append(std::move(F));
    return true;
  };

  for (size_t K = 0; K != TheSpec.Options.size(); ++K) {
    const OptionSpec &Opt = TheSpec.Options[K];
    auto It = OptionValues.find(K);
    const std::string &Raw = It != OptionValues.end() ? It->second
                                                      : Opt.Default;
    for (const std::string &Attr : Opt.Attrs)
      if (auto R = Extract(Attr, Raw, Opt.Type, Opt.primaryName()); !R)
        return R.getError();
  }

  for (const OperandSpec &Op : TheSpec.Operands) {
    std::string Prefix = operandPrefix(Op);

    if (Op.PosStart == Op.PosEnd) {
      // Single position: extract directly (empty raw when absent).
      size_t Index = static_cast<size_t>(Op.PosStart - 1);
      std::string Raw =
          Index < OperandTokens.size() ? OperandTokens[Index] : "";
      for (const std::string &Attr : Op.Attrs)
        if (auto R = Extract(Attr, Raw, Op.Type, Prefix); !R)
          return R.getError();
      continue;
    }

    // Range: emit a count feature plus per-attr aggregates (numeric
    // features sum; categorical features take the first operand's value).
    std::vector<std::string> Covered;
    for (size_t Index = 0; Index != OperandTokens.size(); ++Index)
      if (Op.coversPosition(static_cast<int>(Index) + 1))
        Covered.push_back(OperandTokens[Index]);
    FV.append(Feature::numeric(Prefix + ".count",
                               static_cast<double>(Covered.size())));
    ++Stats.FeaturesExtracted;

    for (const std::string &Attr : Op.Attrs) {
      const XFMethod *Method = Registry->getMethod(Attr);
      if (!Method)
        return makeError("unresolved feature-extraction method '%s'",
                         Attr.c_str());
      ExtractionContext Ctx;
      Ctx.Files = Files;
      Ctx.Type = Op.Type;
      Ctx.FeatureNamePrefix = Prefix;
      std::map<std::string, Feature> Aggregated;
      std::vector<std::string> Order;
      // Run the extractor on "" when no operands are covered so the
      // feature names (and schema) still materialize.
      std::vector<std::string> Sources =
          Covered.empty() ? std::vector<std::string>{""} : Covered;
      for (const std::string &Raw : Sources) {
        if (Op.Type == ComponentType::File)
          ++Stats.FileLookups;
        for (Feature &F : (*Method)(Raw, Ctx)) {
          ++Stats.FeaturesExtracted;
          auto It = Aggregated.find(F.Name);
          if (It == Aggregated.end()) {
            Order.push_back(F.Name);
            Aggregated.emplace(F.Name, std::move(F));
          } else if (It->second.isNumeric() && F.isNumeric()) {
            It->second.Num += F.Num;
          }
          // Categorical aggregate: keep the first value.
        }
      }
      for (const std::string &Name : Order)
        FV.append(Aggregated.at(Name));
    }
  }

  for (Feature &F : FV.Features)
    keepFinite(F);
  return FV;
}

std::vector<std::string> XICLTranslator::schemaFeatureNames() const {
  // Dry-run extraction against an empty input; extraction methods must
  // produce the same feature names for every input (contract documented in
  // XFMethod.h).
  XICLTranslator Dry(TheSpec, Registry, Files);
  std::string Line = "app";
  auto FV = Dry.buildFVector(Line);
  std::vector<std::string> Names;
  if (FV)
    for (const Feature &F : FV->Features)
      Names.push_back(F.Name);
  return Names;
}
