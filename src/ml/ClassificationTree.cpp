//===- ml/ClassificationTree.cpp ------------------------------------------==//

#include "ml/ClassificationTree.h"

#include "support/Format.h"
#include "support/Profiler.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdlib>

using namespace evm;
using namespace evm::ml;

double ml::labelEntropy(std::span<const size_t> Counts) {
  size_t Total = 0;
  for (size_t Count : Counts)
    Total += Count;
  if (Total == 0)
    return 0;
  double Entropy = 0;
  double N = static_cast<double>(Total);
  for (size_t Count : Counts) {
    if (Count == 0)
      continue;
    double P = static_cast<double>(Count) / N;
    Entropy -= P * std::log2(P);
  }
  return Entropy;
}

namespace {

struct SplitChoice {
  double Gain = -1;
  size_t FeatureIndex = 0;
  bool Categorical = false;
  double Threshold = 0;
  int CategoryId = 0;
};

} // namespace

/// The presorted sweep over one tree's training rows.  Work holds, per
/// feature, the training rows in that feature's sorted order; a node owns
/// the same [Begin, End) range of every feature's segment, and splitting it
/// stable-partitions each segment, so children inherit sorted order and
/// nothing is re-sorted.  Labels are dense ids in ascending label order,
/// so entropy terms sum in label order and majority ties go to the
/// smallest label.
struct ClassificationTree::Builder {
  const SortedColumns &S;
  const TreeParams &Params;
  size_t NumTrain = 0;
  std::vector<int> LabelValues;   ///< dense id -> label, ascending
  std::vector<size_t> LabelOf;    ///< row id -> dense id (training rows)
  std::vector<size_t> Work;       ///< feature F's segment at F * NumTrain
  std::vector<size_t> RightRows;  ///< right side of a segment partition
  std::vector<char> GoesLeft;     ///< row id -> side of the split applied
  std::vector<size_t> RootCounts; ///< label counts of every training row
  std::vector<size_t> LeftCounts, RightCounts;

  Builder(const SortedColumns &S, const std::vector<int> &Labels,
          const TreeParams &Params, const std::vector<char> *TrainRows)
      : S(S), Params(Params), LabelOf(S.numRows()), GoesLeft(S.numRows()) {
    assert(Labels.size() == S.numRows() && "one label per row");
    assert((!TrainRows || TrainRows->size() == S.numRows()) &&
           "one mask entry per row");
    auto Trains = [&](size_t R) { return !TrainRows || (*TrainRows)[R]; };
    for (size_t R = 0; R != S.numRows(); ++R)
      if (Trains(R)) {
        LabelValues.push_back(Labels[R]);
        ++NumTrain;
      }
    std::sort(LabelValues.begin(), LabelValues.end());
    LabelValues.erase(std::unique(LabelValues.begin(), LabelValues.end()),
                      LabelValues.end());
    RootCounts.resize(LabelValues.size());
    for (size_t R = 0; R != S.numRows(); ++R)
      if (Trains(R)) {
        LabelOf[R] = static_cast<size_t>(
            std::lower_bound(LabelValues.begin(), LabelValues.end(),
                             Labels[R]) -
            LabelValues.begin());
        ++RootCounts[LabelOf[R]];
      }

    Work.resize(S.numFeatures() * NumTrain);
    for (size_t F = 0; F != S.numFeatures(); ++F) {
      size_t *Out = Work.data() + F * NumTrain;
      const size_t *Sorted = S.order(F);
      for (size_t I = 0; I != S.numRows(); ++I)
        if (Trains(Sorted[I]))
          *Out++ = Sorted[I];
    }
    RightRows.resize(NumTrain);
    LeftCounts.resize(LabelValues.size());
    RightCounts.resize(LabelValues.size());
  }

  /// Label counts of the node rows [Begin, End), read from feature 0's
  /// segment (every segment holds the same rows).
  std::vector<size_t> countLabels(size_t Begin, size_t End) const {
    std::vector<size_t> Counts(LabelValues.size());
    for (size_t I = Begin; I != End; ++I)
      ++Counts[LabelOf[Work[I]]];
    return Counts;
  }

  /// Smallest label among the most frequent; 0 for an empty node.
  int majorityLabel(const std::vector<size_t> &Counts) const {
    int Best = 0;
    size_t BestCount = 0;
    for (size_t Id = 0; Id != Counts.size(); ++Id)
      if (Counts[Id] > BestCount) {
        Best = LabelValues[Id];
        BestCount = Counts[Id];
      }
    return Best;
  }

  /// Entropy gain of sending \p NumLeft of the node's rows, with label
  /// counts LeftCounts, to the left child.
  double gain(const std::vector<size_t> &Counts, size_t NumRows,
              size_t NumLeft, double ParentEntropy) {
    for (size_t Id = 0; Id != Counts.size(); ++Id)
      RightCounts[Id] = Counts[Id] - LeftCounts[Id];
    double N = static_cast<double>(NumRows);
    double Weighted =
        (static_cast<double>(NumLeft) / N) * labelEntropy(LeftCounts) +
        (static_cast<double>(NumRows - NumLeft) / N) *
            labelEntropy(RightCounts);
    return ParentEntropy - Weighted;
  }

  /// Finds the best question over all features for the node [Begin, End).
  SplitChoice chooseSplit(size_t Begin, size_t End,
                          const std::vector<size_t> &Counts) {
    SplitChoice Best;
    double ParentEntropy = labelEntropy(Counts);
    if (ParentEntropy <= 0)
      return Best;
    size_t M = End - Begin;

    for (size_t F = 0; F != S.numFeatures(); ++F) {
      const size_t *Rows = Work.data() + F * NumTrain + Begin;
      const double *Col = S.column(F);
      if (Col[Rows[0]] == Col[Rows[M - 1]])
        continue; // constant feature: can never reduce impurity

      if (S.categorical(F)) {
        // One-vs-rest equality questions, one per run of equal values.
        for (size_t I = 0; I != M;) {
          double Category = Col[Rows[I]];
          std::fill(LeftCounts.begin(), LeftCounts.end(), 0);
          size_t J = I;
          for (; J != M && Col[Rows[J]] == Category; ++J)
            ++LeftCounts[LabelOf[Rows[J]]];
          double Gain = gain(Counts, M, J - I, ParentEntropy);
          if (Gain > Best.Gain) {
            Best.Gain = Gain;
            Best.FeatureIndex = F;
            Best.Categorical = true;
            Best.CategoryId = static_cast<int>(Category);
          }
          I = J;
        }
        continue;
      }

      // Numeric thresholds: midpoints between consecutive distinct values,
      // left when value < T.  The cursor only advances while value < T:
      // the midpoint can round onto the lower value, or overflow to inf
      // past it, and thresholds never decrease.
      std::fill(LeftCounts.begin(), LeftCounts.end(), 0);
      size_t Cursor = 0;
      double Lower = Col[Rows[0]];
      for (size_t I = 1; I != M; ++I) {
        double Upper = Col[Rows[I]];
        if (Upper == Lower)
          continue;
        double Threshold = (Lower + Upper) / 2;
        Lower = Upper;
        for (; Cursor != M && Col[Rows[Cursor]] < Threshold; ++Cursor)
          ++LeftCounts[LabelOf[Rows[Cursor]]];
        if (Cursor == 0 || Cursor == M)
          continue;
        double Gain = gain(Counts, M, Cursor, ParentEntropy);
        if (Gain > Best.Gain) {
          Best.Gain = Gain;
          Best.FeatureIndex = F;
          Best.Categorical = false;
          Best.Threshold = Threshold;
        }
      }
    }
    return Best;
  }

  /// Applies \p Split to the node [Begin, End): stable-partitions every
  /// feature's segment, left rows first.  Returns the boundary.
  size_t partition(const SplitChoice &Split, size_t Begin, size_t End) {
    const double *Col = S.column(Split.FeatureIndex);
    const size_t *Rows = Work.data() + Split.FeatureIndex * NumTrain;
    size_t NumLeft = 0;
    for (size_t I = Begin; I != End; ++I) {
      double V = Col[Rows[I]];
      bool Left = Split.Categorical ? V == Split.CategoryId
                                    : V < Split.Threshold;
      GoesLeft[Rows[I]] = Left;
      NumLeft += Left;
    }
    assert(NumLeft != 0 && NumLeft != End - Begin &&
           "degenerate split chosen");
    for (size_t F = 0; F != S.numFeatures(); ++F) {
      size_t *Seg = Work.data() + F * NumTrain;
      size_t Out = Begin, Spilled = 0;
      for (size_t I = Begin; I != End; ++I) {
        size_t R = Seg[I];
        if (GoesLeft[R])
          Seg[Out++] = R;
        else
          RightRows[Spilled++] = R;
      }
      std::copy(RightRows.data(), RightRows.data() + Spilled, Seg + Out);
    }
    return Begin + NumLeft;
  }

  std::unique_ptr<Node> buildNode(size_t Begin, size_t End,
                                  const std::vector<size_t> &Counts,
                                  int Depth) {
    auto N = std::make_unique<Node>();
    N->Label = majorityLabel(Counts);

    if (Depth >= Params.MaxDepth || End - Begin < Params.MinSamplesSplit)
      return N;
    SplitChoice Split = chooseSplit(Begin, End, Counts);
    if (Split.Gain <= Params.MinGain)
      return N;

    size_t Mid = partition(Split, Begin, End);
    N->IsLeaf = false;
    N->FeatureIndex = Split.FeatureIndex;
    N->Categorical = Split.Categorical;
    N->Threshold = Split.Threshold;
    N->CategoryId = Split.CategoryId;
    N->Left = buildNode(Begin, Mid, countLabels(Begin, Mid), Depth + 1);
    N->Right = buildNode(Mid, End, countLabels(Mid, End), Depth + 1);
    return N;
  }
};

ClassificationTree
ClassificationTree::build(const SortedColumns &S,
                          const std::vector<int> &Labels,
                          const TreeParams &Params,
                          const std::vector<char> *TrainRows) {
  // Nests under whatever offline frame invoked the training (ml/rebuild,
  // ml/crossval); the caller charges the modeled cost.
  PROF_SCOPE("tree/build");
  Builder B(S, Labels, Params, TrainRows);
  ClassificationTree Tree;
  Tree.Root = B.buildNode(0, B.NumTrain, B.RootCounts, 0);
  return Tree;
}

ClassificationTree ClassificationTree::build(const Dataset &D,
                                             const TreeParams &Params) {
  return build(SortedColumns(D), D.labelColumn(), Params);
}

int ClassificationTree::predict(const Example &E, TreePath *Path) const {
  assert(Root && "predicting with an unbuilt tree");
  if (Path) {
    Path->Steps.clear();
    Path->Leaf = 0;
  }
  const Node *N = Root.get();
  while (!N->IsLeaf) {
    double V = N->FeatureIndex < E.Values.size()
                   ? E.Values[N->FeatureIndex]
                   : 0;
    bool GoLeft = N->Categorical ? V == N->CategoryId : V < N->Threshold;
    if (Path) {
      TreePathStep Step;
      Step.FeatureIndex = N->FeatureIndex;
      Step.Categorical = N->Categorical;
      Step.Threshold = N->Threshold;
      Step.CategoryId = N->CategoryId;
      Step.WentLeft = GoLeft;
      Path->Steps.push_back(Step);
    }
    N = GoLeft ? N->Left.get() : N->Right.get();
  }
  if (Path)
    Path->Leaf = N->Label;
  return N->Label;
}

std::string TreePath::str() const {
  std::string Out;
  for (const TreePathStep &S : Steps) {
    if (S.Categorical)
      Out += formatString("C%zu:%d:%c|", S.FeatureIndex, S.CategoryId,
                          S.WentLeft ? 'L' : 'R');
    else
      Out += formatString("N%zu:%.17g:%c|", S.FeatureIndex, S.Threshold,
                          S.WentLeft ? 'L' : 'R');
  }
  Out += formatString("L%d", Leaf);
  return Out;
}

std::set<size_t> ClassificationTree::usedFeatures() const {
  std::set<size_t> Out;
  // Walk iteratively to keep Node private.
  std::vector<const Node *> Stack;
  if (Root)
    Stack.push_back(Root.get());
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    if (N->IsLeaf)
      continue;
    Out.insert(N->FeatureIndex);
    Stack.push_back(N->Left.get());
    Stack.push_back(N->Right.get());
  }
  return Out;
}

size_t ClassificationTree::numNodes() const {
  size_t Count = 0;
  std::vector<const Node *> Stack;
  if (Root)
    Stack.push_back(Root.get());
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    ++Count;
    if (!N->IsLeaf) {
      Stack.push_back(N->Left.get());
      Stack.push_back(N->Right.get());
    }
  }
  return Count;
}

int ClassificationTree::depth() const {
  // (node, depth) DFS.
  int Max = 0;
  std::vector<std::pair<const Node *, int>> Stack;
  if (Root)
    Stack.emplace_back(Root.get(), 1);
  while (!Stack.empty()) {
    auto [N, D] = Stack.back();
    Stack.pop_back();
    Max = std::max(Max, D);
    if (!N->IsLeaf) {
      Stack.emplace_back(N->Left.get(), D + 1);
      Stack.emplace_back(N->Right.get(), D + 1);
    }
  }
  return Max;
}

void ClassificationTree::serializeNode(const Node *N, std::string &Out) {
  if (N->IsLeaf) {
    Out += formatString("L%d", N->Label);
    return;
  }
  if (N->Categorical)
    Out += formatString("C%zu:%d(", N->FeatureIndex, N->CategoryId);
  else
    Out += formatString("N%zu:%.17g(", N->FeatureIndex, N->Threshold);
  serializeNode(N->Left.get(), Out);
  Out += ")(";
  serializeNode(N->Right.get(), Out);
  Out += ')';
}

std::string ClassificationTree::serialize() const {
  assert(Root && "serializing an unbuilt tree");
  std::string Out;
  serializeNode(Root.get(), Out);
  return Out;
}

std::unique_ptr<ClassificationTree::Node>
ClassificationTree::parseNode(std::string_view Text, size_t &Pos, int Depth) {
  // Bounded: MaxDepth in training is 12, but the text is store bytes and
  // untrusted until proven well-formed.
  if (Depth > 64 || Pos >= Text.size())
    return nullptr;

  // Scans a number token ([-+.eE0-9]*) starting at Pos; empty tokens fail.
  auto ScanNumber = [&]() -> std::string {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '-' || Text[Pos] == '+' || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E'))
      ++Pos;
    return std::string(Text.substr(Start, Pos - Start));
  };
  auto Expect = [&](char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  };

  char Kind = Text[Pos++];
  auto N = std::make_unique<Node>();
  if (Kind == 'L') {
    std::string Tok = ScanNumber();
    if (Tok.empty())
      return nullptr;
    char *End = nullptr;
    N->Label = static_cast<int>(std::strtol(Tok.c_str(), &End, 10));
    if (*End != '\0')
      return nullptr;
    return N;
  }
  if (Kind != 'N' && Kind != 'C')
    return nullptr;

  std::string FeatTok = ScanNumber();
  if (FeatTok.empty() || !Expect(':'))
    return nullptr;
  char *End = nullptr;
  N->FeatureIndex = static_cast<size_t>(std::strtoull(FeatTok.c_str(), &End, 10));
  if (*End != '\0')
    return nullptr;
  N->IsLeaf = false;
  N->Categorical = Kind == 'C';

  std::string ValTok = ScanNumber();
  if (ValTok.empty())
    return nullptr;
  if (N->Categorical) {
    N->CategoryId = static_cast<int>(std::strtol(ValTok.c_str(), &End, 10));
  } else {
    N->Threshold = std::strtod(ValTok.c_str(), &End);
  }
  if (*End != '\0')
    return nullptr;

  if (!Expect('('))
    return nullptr;
  N->Left = parseNode(Text, Pos, Depth + 1);
  if (!N->Left || !Expect(')') || !Expect('('))
    return nullptr;
  N->Right = parseNode(Text, Pos, Depth + 1);
  if (!N->Right || !Expect(')'))
    return nullptr;
  return N;
}

std::optional<ClassificationTree>
ClassificationTree::deserialize(std::string_view Text) {
  size_t Pos = 0;
  std::unique_ptr<Node> Root = parseNode(Text, Pos, 0);
  if (!Root || Pos != Text.size())
    return std::nullopt;
  ClassificationTree Tree;
  Tree.Root = std::move(Root);
  return Tree;
}

std::string ClassificationTree::print(const Dataset &D) const {
  std::string Out;
  std::vector<std::pair<const Node *, int>> Stack;
  if (Root)
    Stack.emplace_back(Root.get(), 0);
  while (!Stack.empty()) {
    auto [N, Indent] = Stack.back();
    Stack.pop_back();
    Out += std::string(static_cast<size_t>(Indent) * 2, ' ');
    if (N->IsLeaf) {
      Out += formatString("-> %d\n", N->Label);
      continue;
    }
    const FeatureDef &Def = D.schema()[N->FeatureIndex];
    if (N->Categorical) {
      // Recover the category string for readability.
      std::string Cat = "?";
      for (const auto &[Name, Id] : Def.Dictionary)
        if (Id == N->CategoryId)
          Cat = Name;
      Out += formatString("%s == %s?\n", Def.Name.c_str(), Cat.c_str());
    } else {
      Out += formatString("%s < %g?\n", Def.Name.c_str(), N->Threshold);
    }
    Stack.emplace_back(N->Right.get(), Indent + 1);
    Stack.emplace_back(N->Left.get(), Indent + 1);
  }
  return Out;
}
