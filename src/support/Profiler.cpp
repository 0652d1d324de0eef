//===- support/Profiler.cpp -----------------------------------------------==//

#include "support/Profiler.h"

#include "support/Format.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace evm;

constinit thread_local PhaseProfiler *PhaseProfiler::Installed = nullptr;

PhaseProfiler::PhaseProfiler() {
  Nodes.push_back(Node()); // synthetic root
  Stack.push_back(0);
}

ProfilerInstallGuard::ProfilerInstallGuard(PhaseProfiler *P)
    : Previous(PhaseProfiler::Installed) {
  PhaseProfiler::Installed = P;
}

ProfilerInstallGuard::~ProfilerInstallGuard() {
  PhaseProfiler::Installed = Previous;
}

int32_t PhaseProfiler::childOf(int32_t Parent, std::string_view Name) {
  int32_t Prev = -1;
  for (int32_t C = Nodes[Parent].FirstChild; C != -1;
       C = Nodes[C].NextSibling) {
    if (Nodes[C].Name == Name)
      return C;
    Prev = C;
  }
  int32_t New = static_cast<int32_t>(Nodes.size());
  Node N;
  N.Name = std::string(Name);
  N.Parent = Parent;
  Nodes.push_back(std::move(N));
  if (Prev == -1)
    Nodes[Parent].FirstChild = New;
  else
    Nodes[Prev].NextSibling = New;
  return New;
}

void PhaseProfiler::enter(std::string_view Name) {
  int32_t Current = Stack.back();
  // Self-recursion collapse and the depth bound both re-push the current
  // node so exit() stays symmetric without growing the tree.
  if (Nodes[Current].Name == Name ||
      Stack.size() > static_cast<size_t>(kMaxDepth)) {
    ++Nodes[Current].Count;
    Stack.push_back(Current);
    return;
  }
  int32_t C = childOf(Current, Name);
  ++Nodes[C].Count;
  Stack.push_back(C);
}

void PhaseProfiler::exit() {
  assert(Stack.size() > 1 && "exit() without matching enter()");
  Stack.pop_back();
}

void PhaseProfiler::charge(uint64_t Cycles) {
  Nodes[Stack.back()].Cycles += Cycles;
}

void PhaseProfiler::chargeAt(std::initializer_list<std::string_view> Path,
                             uint64_t Cycles, uint64_t Count) {
  int32_t N = 0;
  for (std::string_view Name : Path)
    N = childOf(N, Name);
  Nodes[N].Cycles += Cycles;
  Nodes[N].Count += Count;
}

uint64_t
PhaseProfiler::attributeChild(std::initializer_list<std::string_view> Path,
                              std::string_view Child, uint64_t Cycles,
                              uint64_t Count) {
  int32_t N = 0;
  for (std::string_view Name : Path)
    N = childOf(N, Name);
  uint64_t Moved = std::min(Cycles, Nodes[N].Cycles);
  int32_t C = childOf(N, Child);
  Nodes[N].Cycles -= Moved;
  Nodes[C].Cycles += Moved;
  Nodes[C].Count += Count;
  return Moved;
}

uint64_t PhaseProfiler::splitToChild(std::string_view Child, uint64_t Cycles,
                                     uint64_t Count) {
  int32_t N = Stack.back();
  uint64_t Moved = std::min(Cycles, Nodes[N].Cycles);
  int32_t C = childOf(N, Child);
  Nodes[N].Cycles -= Moved;
  Nodes[C].Cycles += Moved;
  Nodes[C].Count += Count;
  return Moved;
}

void PhaseProfiler::reset() {
  assert(Stack.size() == 1 && "reset() inside an open scope");
  Nodes.clear();
  Nodes.push_back(Node());
  Stack.assign(1, 0);
}

PhaseTreeSnapshot PhaseProfiler::snapshot() const {
  PhaseTreeSnapshot Snap;
  // Depth-first walk assembling stack strings; the root itself is exported
  // only if something was charged outside any scope.
  std::vector<std::string> Paths(Nodes.size());
  for (size_t I = 1; I != Nodes.size(); ++I) {
    const Node &N = Nodes[I];
    Paths[I] = N.Parent == 0 ? N.Name : Paths[N.Parent] + ";" + N.Name;
    if (N.Cycles == 0 && N.Count == 0)
      continue; // structural-only intermediate created by chargeAt
    Snap.Entries.push_back({Paths[I], N.Cycles, N.Count});
  }
  if (Nodes[0].Cycles != 0)
    Snap.Entries.push_back({"(unattributed)", Nodes[0].Cycles, 0});
  std::sort(Snap.Entries.begin(), Snap.Entries.end(),
            [](const PhaseTreeSnapshot::Entry &A,
               const PhaseTreeSnapshot::Entry &B) { return A.Stack < B.Stack; });
  return Snap;
}

uint64_t PhaseTreeSnapshot::totalUnder(std::string_view Stack) const {
  uint64_t Total = 0;
  std::string Prefix = std::string(Stack) + ";";
  for (const Entry &E : Entries)
    if (E.Stack == Stack || startsWith(E.Stack, Prefix))
      Total += E.Cycles;
  return Total;
}

uint64_t PhaseTreeSnapshot::cyclesAt(std::string_view Stack) const {
  for (const Entry &E : Entries)
    if (E.Stack == Stack)
      return E.Cycles;
  return 0;
}

std::string PhaseTreeSnapshot::renderJson() const {
  std::string Out = "{\"phases\":[";
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    if (I)
      Out += ',';
    Out += formatString("{\"stack\":\"%s\",\"cycles\":%llu,\"count\":%llu}",
                        E.Stack.c_str(),
                        static_cast<unsigned long long>(E.Cycles),
                        static_cast<unsigned long long>(E.Count));
  }
  Out += "]}";
  return Out;
}

std::string PhaseTreeSnapshot::renderCollapsed() const {
  std::string Out;
  for (const Entry &E : Entries) {
    if (E.Cycles == 0)
      continue;
    Out += formatString("%s %llu\n", E.Stack.c_str(),
                        static_cast<unsigned long long>(E.Cycles));
  }
  return Out;
}

std::string PhaseTreeSnapshot::renderSpeedscope(const std::string &Name) const {
  // Frame table: unique frame names in first-appearance order over the
  // (stack-sorted) entries — deterministic.
  std::vector<std::string> Frames;
  auto frameIndex = [&](const std::string &F) {
    for (size_t I = 0; I != Frames.size(); ++I)
      if (Frames[I] == F)
        return I;
    Frames.push_back(F);
    return Frames.size() - 1;
  };
  std::string Samples, Weights;
  uint64_t Total = 0;
  bool First = true;
  for (const Entry &E : Entries) {
    if (E.Cycles == 0)
      continue;
    if (!First) {
      Samples += ',';
      Weights += ',';
    }
    First = false;
    Samples += '[';
    std::vector<std::string> Parts = splitString(E.Stack, ';');
    for (size_t I = 0; I != Parts.size(); ++I) {
      if (I)
        Samples += ',';
      Samples += std::to_string(frameIndex(Parts[I]));
    }
    Samples += ']';
    Weights += std::to_string(E.Cycles);
    Total += E.Cycles;
  }
  std::string FrameJson;
  for (size_t I = 0; I != Frames.size(); ++I) {
    if (I)
      FrameJson += ',';
    FrameJson += formatString("{\"name\":\"%s\"}", Frames[I].c_str());
  }
  return formatString(
      "{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\","
      "\"shared\":{\"frames\":[%s]},"
      "\"profiles\":[{\"type\":\"sampled\",\"name\":\"%s\",\"unit\":\"none\","
      "\"startValue\":0,\"endValue\":%llu,\"samples\":[%s],\"weights\":[%s]}],"
      "\"exporter\":\"evm\"}",
      FrameJson.c_str(), Name.c_str(), static_cast<unsigned long long>(Total),
      Samples.c_str(), Weights.c_str());
}

namespace {

/// Scans for "KEY": after \p From inside [From, To); returns the value
/// start or npos.
size_t findKey(const std::string &Text, size_t From, size_t To,
               const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t At = Text.find(Needle, From);
  if (At == std::string::npos || At >= To)
    return std::string::npos;
  return At + Needle.size();
}

} // namespace

ErrorOr<PhaseTreeSnapshot> evm::parsePhaseTreeJson(const std::string &Text) {
  PhaseTreeSnapshot Snap;
  size_t Array = Text.find("\"phases\":[");
  if (Array == std::string::npos)
    return makeError("no \"phases\" array in profile document");
  size_t At = Array + 10;
  size_t End = Text.find(']', At);
  if (End == std::string::npos)
    return makeError("unterminated \"phases\" array");
  while (true) {
    size_t Open = Text.find('{', At);
    if (Open == std::string::npos || Open > End)
      break;
    size_t Close = Text.find('}', Open);
    if (Close == std::string::npos || Close > End)
      return makeError("unterminated phase object");
    PhaseTreeSnapshot::Entry E;
    size_t S = findKey(Text, Open, Close, "stack");
    size_t C = findKey(Text, Open, Close, "cycles");
    size_t N = findKey(Text, Open, Close, "count");
    if (S == std::string::npos || C == std::string::npos ||
        N == std::string::npos || Text[S] != '"')
      return makeError("malformed phase object near offset %zu", Open);
    size_t SEnd = Text.find('"', S + 1);
    if (SEnd == std::string::npos || SEnd > Close)
      return makeError("malformed phase stack near offset %zu", Open);
    E.Stack = Text.substr(S + 1, SEnd - S - 1);
    auto Cycles = parseInteger(
        Text.substr(C, Text.find_first_of(",}", C) - C));
    auto Count =
        parseInteger(Text.substr(N, Text.find_first_of(",}", N) - N));
    if (!Cycles || !Count || *Cycles < 0 || *Count < 0)
      return makeError("malformed phase numbers near offset %zu", Open);
    E.Cycles = static_cast<uint64_t>(*Cycles);
    E.Count = static_cast<uint64_t>(*Count);
    Snap.Entries.push_back(std::move(E));
    At = Close + 1;
  }
  return Snap;
}
