//===- support/DecisionLedger.cpp -----------------------------------------===//

#include "support/DecisionLedger.h"

#include "support/Format.h"

#include <cstdlib>
#include <cstring>

using namespace evm;

DecisionLedger::DecisionLedger(size_t MaxRecords)
    : MaxRecords(MaxRecords ? MaxRecords : 1) {}

void DecisionLedger::record(DecisionRecord R) {
  if (!enabled())
    return;
  if (Ring.size() < MaxRecords) {
    Ring.push_back(std::move(R));
    return;
  }
  // Full: overwrite the oldest slot.  Next always points at the oldest
  // record once the ring has wrapped.
  Ring[Next] = std::move(R);
  Next = (Next + 1) % MaxRecords;
  ++Dropped;
}

void DecisionLedger::annotateBaseline(uint64_t BaselineCycles) {
  if (!enabled() || Ring.empty())
    return;
  size_t Newest = Ring.size() < MaxRecords
                      ? Ring.size() - 1
                      : (Next + MaxRecords - 1) % MaxRecords;
  Ring[Newest].BaselineCycles = BaselineCycles;
}

size_t DecisionLedger::size() const { return Ring.size(); }

uint64_t DecisionLedger::droppedRecords() const { return Dropped; }

std::vector<DecisionRecord> DecisionLedger::exportOrder() const {
  std::vector<DecisionRecord> Out;
  Out.reserve(Ring.size());
  // Before wrapping, Ring is already oldest-first; after, the oldest
  // record sits at Next.
  size_t Start = Ring.size() < MaxRecords ? 0 : Next;
  for (size_t I = 0; I != Ring.size(); ++I)
    Out.push_back(Ring[(Start + I) % Ring.size()]);
  return Out;
}

void DecisionLedger::clear() {
  Ring.clear();
  Next = 0;
  Dropped = 0;
}

//===----------------------------------------------------------------------===//
// JSONL rendering
//===----------------------------------------------------------------------===//

namespace {

std::string escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += formatString("\\u%04x", Ch);
      continue;
    }
    Out += Ch;
  }
  return Out;
}

std::string unescapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    char Next = S[++I];
    if (Next == 'u' && I + 4 < S.size()) {
      Out += static_cast<char>(
          std::strtoul(S.substr(I + 1, 4).c_str(), nullptr, 16));
      I += 4;
    } else {
      Out += Next; // covers \" and \\ (nothing else is ever emitted)
    }
  }
  return Out;
}

} // namespace

std::string
evm::renderJsonlDecisions(const std::vector<DecisionRecord> &Records,
                          const LedgerProvenance *Provenance) {
  std::string Out;
  Out.reserve(Records.size() * 192);
  if (Provenance)
    Out += formatString(
        "{\"kind\":\"provenance\",\"git_sha\":\"%s\",\"compiler\":\"%s\","
        "\"compiler_version\":\"%s\",\"build_type\":\"%s\"}\n",
        escapeJson(Provenance->GitSha).c_str(),
        escapeJson(Provenance->Compiler).c_str(),
        escapeJson(Provenance->CompilerVersion).c_str(),
        escapeJson(Provenance->BuildType).c_str());
  for (const DecisionRecord &R : Records) {
    Out += formatString(
        "{\"kind\":\"run\",\"app\":\"%s\",\"tenant\":%lld,\"run\":%llu,"
        "\"fv\":\"%s\",\"fvhash\":%llu,\"guard\":\"%s\",\"open\":%d,"
        "\"used\":%d,\"had\":%d,\"conf_before\":%.17g,\"conf_after\":%.17g,"
        "\"cv\":%.17g,\"thr\":%.17g,\"acc\":%.17g,\"cycles\":%llu,"
        "\"baseline\":%llu",
        escapeJson(R.App).c_str(), static_cast<long long>(R.Tenant),
        static_cast<unsigned long long>(R.Run),
        escapeJson(R.Features).c_str(),
        static_cast<unsigned long long>(R.FvHash),
        escapeJson(R.Guard).c_str(), R.GuardOpen ? 1 : 0, R.Used ? 1 : 0,
        R.Had ? 1 : 0, R.ConfBefore, R.ConfAfter, R.CvConf, R.Threshold,
        R.Accuracy, static_cast<unsigned long long>(R.Cycles),
        static_cast<unsigned long long>(R.BaselineCycles));
    // Only rejected records carry the extra field, keeping ordinary run
    // lines byte-identical to the pre-serving JSONL format.
    if (R.Rejected)
      Out += ",\"rejected\":1";
    Out += "}\n";
    for (const MethodDecision &M : R.Methods)
      Out += formatString(
          "{\"kind\":\"method\",\"app\":\"%s\",\"tenant\":%lld,\"run\":%llu,"
          "\"method\":%u,\"pred\":%d,\"ideal\":%d,\"agree\":%d,\"const\":%d,"
          "\"rescues\":%u,\"path\":\"%s\"}\n",
          escapeJson(R.App).c_str(), static_cast<long long>(R.Tenant),
          static_cast<unsigned long long>(R.Run), M.Method, M.Pred, M.Ideal,
          M.Agree ? 1 : 0, M.Constant ? 1 : 0, M.Rescues,
          escapeJson(M.Path).c_str());
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSONL parsing
//===----------------------------------------------------------------------===//

namespace {

/// Finds `"Key":` in \p Line and returns the offset just past the colon,
/// or npos.  Keys are fixed and never appear inside our escaped string
/// values with the surrounding quote+colon frame, so plain search is safe.
size_t fieldOffset(const std::string &Line, const char *Key) {
  std::string Needle = formatString("\"%s\":", Key);
  size_t At = Line.find(Needle);
  return At == std::string::npos ? std::string::npos : At + Needle.size();
}

bool stringField(const std::string &Line, const char *Key, std::string &Out) {
  size_t At = fieldOffset(Line, Key);
  if (At == std::string::npos || At >= Line.size() || Line[At] != '"')
    return false;
  // Scan to the closing quote, honoring escapes.
  size_t End = At + 1;
  while (End < Line.size()) {
    if (Line[End] == '\\')
      End += 2;
    else if (Line[End] == '"')
      break;
    else
      ++End;
  }
  if (End >= Line.size())
    return false;
  Out = unescapeJson(Line.substr(At + 1, End - At - 1));
  return true;
}

bool doubleField(const std::string &Line, const char *Key, double &Out) {
  size_t At = fieldOffset(Line, Key);
  if (At == std::string::npos)
    return false;
  const char *P = Line.c_str() + At;
  char *End = nullptr;
  double V = std::strtod(P, &End);
  if (End == P)
    return false;
  Out = V;
  return true;
}

bool u64Field(const std::string &Line, const char *Key, uint64_t &Out) {
  size_t At = fieldOffset(Line, Key);
  if (At == std::string::npos)
    return false;
  const char *P = Line.c_str() + At;
  char *End = nullptr;
  unsigned long long V = std::strtoull(P, &End, 10);
  if (End == P)
    return false;
  Out = V;
  return true;
}

bool i64Field(const std::string &Line, const char *Key, int64_t &Out) {
  size_t At = fieldOffset(Line, Key);
  if (At == std::string::npos)
    return false;
  const char *P = Line.c_str() + At;
  char *End = nullptr;
  long long V = std::strtoll(P, &End, 10);
  if (End == P)
    return false;
  Out = V;
  return true;
}

} // namespace

void LedgerReader::addLine(const std::string &RawLine) {
  std::string Line = RawLine;
  while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
    Line.pop_back();
  if (Line.empty())
    return;

  std::string Kind;
  if (!stringField(Line, "kind", Kind)) {
    ++BadLines;
    return;
  }

  if (Kind == "provenance") {
    stringField(Line, "git_sha", Provenance.GitSha);
    stringField(Line, "compiler", Provenance.Compiler);
    stringField(Line, "compiler_version", Provenance.CompilerVersion);
    stringField(Line, "build_type", Provenance.BuildType);
    HasProvenance = true;
    return;
  }

  if (Kind == "run") {
    DecisionRecord R;
    uint64_t Open = 0, Used = 0, Had = 0;
    if (!stringField(Line, "app", R.App) || !u64Field(Line, "run", R.Run) ||
        !u64Field(Line, "cycles", R.Cycles)) {
      ++BadLines;
      return;
    }
    i64Field(Line, "tenant", R.Tenant);
    stringField(Line, "fv", R.Features);
    u64Field(Line, "fvhash", R.FvHash);
    stringField(Line, "guard", R.Guard);
    u64Field(Line, "open", Open);
    u64Field(Line, "used", Used);
    u64Field(Line, "had", Had);
    doubleField(Line, "conf_before", R.ConfBefore);
    doubleField(Line, "conf_after", R.ConfAfter);
    doubleField(Line, "cv", R.CvConf);
    doubleField(Line, "thr", R.Threshold);
    doubleField(Line, "acc", R.Accuracy);
    u64Field(Line, "baseline", R.BaselineCycles);
    uint64_t Rejected = 0;
    u64Field(Line, "rejected", Rejected);
    R.Rejected = Rejected != 0;
    R.GuardOpen = Open != 0;
    R.Used = Used != 0;
    R.Had = Had != 0;
    Records.push_back(std::move(R));
    return;
  }

  if (Kind == "method") {
    if (Records.empty()) {
      ++BadLines; // a method line needs its run line first
      return;
    }
    MethodDecision M;
    uint64_t Method = 0, Agree = 0, Constant = 0, Rescues = 0;
    int64_t Pred = 0, Ideal = 0;
    if (!u64Field(Line, "method", Method) || !i64Field(Line, "pred", Pred) ||
        !i64Field(Line, "ideal", Ideal)) {
      ++BadLines;
      return;
    }
    u64Field(Line, "agree", Agree);
    u64Field(Line, "const", Constant);
    u64Field(Line, "rescues", Rescues);
    stringField(Line, "path", M.Path);
    M.Method = static_cast<uint32_t>(Method);
    M.Pred = static_cast<int>(Pred);
    M.Ideal = static_cast<int>(Ideal);
    M.Agree = Agree != 0;
    M.Constant = Constant != 0;
    M.Rescues = static_cast<uint32_t>(Rescues);
    Records.back().Methods.push_back(std::move(M));
    return;
  }

  ++BadLines;
}

void LedgerReader::addText(const std::string &Text) {
  size_t At = 0;
  while (At < Text.size()) {
    size_t End = Text.find('\n', At);
    if (End == std::string::npos)
      End = Text.size();
    addLine(Text.substr(At, End - At));
    At = End + 1;
  }
}
