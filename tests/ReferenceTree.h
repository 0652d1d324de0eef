//===- tests/ReferenceTree.h - The row-copying tree builder, for tests ----==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A test-only copy of the classification-tree builder the presorted sweep
/// replaced.  For every node, feature and candidate threshold it collects
/// the node's distinct values afresh, copies the rows into left/right
/// lists and recounts labels through a std::map: slow, but plainly the
/// definition.  Property tests check that ml::ClassificationTree serializes
/// byte-identical trees and that k-fold scores and Rng draws match.
/// Labels come from a column (one per dataset row), so the per-method
/// label columns of evolve::ModelBuilder can be checked too.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_TESTS_REFERENCETREE_H
#define EVM_TESTS_REFERENCETREE_H

#include "ml/ClassificationTree.h"
#include "ml/Dataset.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace evm {
namespace reftree {

struct Node {
  bool IsLeaf = true;
  int Label = 0;
  size_t FeatureIndex = 0;
  bool Categorical = false;
  double Threshold = 0;
  int CategoryId = 0;
  std::unique_ptr<Node> Left, Right;
};

inline double labelEntropy(const std::vector<int> &Labels,
                           const std::vector<size_t> &Rows) {
  if (Rows.empty())
    return 0;
  std::map<int, size_t> Counts;
  for (size_t R : Rows)
    ++Counts[Labels[R]];
  double Entropy = 0;
  double N = static_cast<double>(Rows.size());
  for (const auto &[Label, Count] : Counts) {
    (void)Label;
    double P = static_cast<double>(Count) / N;
    Entropy -= P * std::log2(P);
  }
  return Entropy;
}

/// Majority label of \p Rows (smallest label wins ties); 0 when empty.
inline int majorityLabel(const std::vector<int> &Labels,
                         const std::vector<size_t> &Rows) {
  std::map<int, size_t> Counts;
  for (size_t R : Rows)
    ++Counts[Labels[R]];
  int Best = 0;
  size_t BestCount = 0;
  for (const auto &[Label, Count] : Counts)
    if (Count > BestCount) {
      Best = Label;
      BestCount = Count;
    }
  return Best;
}

struct SplitChoice {
  double Gain = -1;
  size_t FeatureIndex = 0;
  bool Categorical = false;
  double Threshold = 0;
  int CategoryId = 0;
};

inline double splitGain(const std::vector<int> &Labels,
                        const std::vector<size_t> &Rows,
                        const std::vector<size_t> &Left,
                        const std::vector<size_t> &Right,
                        double ParentEntropy) {
  if (Left.empty() || Right.empty())
    return -1;
  double N = static_cast<double>(Rows.size());
  double Weighted =
      (static_cast<double>(Left.size()) / N) * labelEntropy(Labels, Left) +
      (static_cast<double>(Right.size()) / N) * labelEntropy(Labels, Right);
  return ParentEntropy - Weighted;
}

inline SplitChoice chooseSplit(const ml::Dataset &D,
                               const std::vector<int> &Labels,
                               const std::vector<size_t> &Rows) {
  SplitChoice Best;
  double ParentEntropy = labelEntropy(Labels, Rows);
  if (ParentEntropy <= 0)
    return Best;

  for (size_t F = 0; F != D.numFeatures(); ++F) {
    const ml::FeatureDef &Def = D.schema()[F];
    std::vector<double> Values;
    Values.reserve(Rows.size());
    for (size_t R : Rows)
      Values.push_back(D.example(R).Values[F]);
    std::sort(Values.begin(), Values.end());
    Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
    if (Values.size() < 2)
      continue;

    if (Def.Categorical) {
      for (double Category : Values) {
        std::vector<size_t> Left, Right;
        for (size_t R : Rows) {
          if (D.example(R).Values[F] == Category)
            Left.push_back(R);
          else
            Right.push_back(R);
        }
        double Gain = splitGain(Labels, Rows, Left, Right, ParentEntropy);
        if (Gain > Best.Gain) {
          Best.Gain = Gain;
          Best.FeatureIndex = F;
          Best.Categorical = true;
          Best.CategoryId = static_cast<int>(Category);
        }
      }
      continue;
    }

    for (size_t K = 1; K != Values.size(); ++K) {
      double Threshold = (Values[K - 1] + Values[K]) / 2;
      std::vector<size_t> Left, Right;
      for (size_t R : Rows) {
        if (D.example(R).Values[F] < Threshold)
          Left.push_back(R);
        else
          Right.push_back(R);
      }
      double Gain = splitGain(Labels, Rows, Left, Right, ParentEntropy);
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

inline std::unique_ptr<Node> buildNode(const ml::Dataset &D,
                                       const std::vector<int> &Labels,
                                       const std::vector<size_t> &Rows,
                                       const ml::TreeParams &Params,
                                       int Depth) {
  auto N = std::make_unique<Node>();
  N->Label = majorityLabel(Labels, Rows);

  if (Depth >= Params.MaxDepth || Rows.size() < Params.MinSamplesSplit)
    return N;
  SplitChoice Split = chooseSplit(D, Labels, Rows);
  if (Split.Gain <= Params.MinGain)
    return N;

  std::vector<size_t> Left, Right;
  for (size_t R : Rows) {
    double V = D.example(R).Values[Split.FeatureIndex];
    bool GoLeft = Split.Categorical ? V == Split.CategoryId
                                    : V < Split.Threshold;
    (GoLeft ? Left : Right).push_back(R);
  }

  N->IsLeaf = false;
  N->FeatureIndex = Split.FeatureIndex;
  N->Categorical = Split.Categorical;
  N->Threshold = Split.Threshold;
  N->CategoryId = Split.CategoryId;
  N->Left = buildNode(D, Labels, Left, Params, Depth + 1);
  N->Right = buildNode(D, Labels, Right, Params, Depth + 1);
  return N;
}

/// A tree over \p Rows of \p D, labelled by \p Labels (indexed by row).
inline std::unique_ptr<Node> build(const ml::Dataset &D,
                                   const std::vector<int> &Labels,
                                   const std::vector<size_t> &Rows,
                                   const ml::TreeParams &Params) {
  return buildNode(D, Labels, Rows, Params, 0);
}

inline std::vector<size_t> allRows(const ml::Dataset &D) {
  std::vector<size_t> Rows(D.numExamples());
  for (size_t I = 0; I != Rows.size(); ++I)
    Rows[I] = I;
  return Rows;
}

/// The same preorder text as ml::ClassificationTree::serialize().
inline void serializeNode(const Node *N, std::string &Out) {
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

inline std::string serialize(const Node *N) {
  std::string Out;
  serializeNode(N, Out);
  return Out;
}

inline size_t numNodes(const Node *N) {
  return N->IsLeaf ? 1 : 1 + numNodes(N->Left.get()) + numNodes(N->Right.get());
}

inline int predict(const Node *N, const ml::Example &E) {
  while (!N->IsLeaf) {
    double V = N->FeatureIndex < E.Values.size() ? E.Values[N->FeatureIndex]
                                                 : 0;
    bool GoLeft = N->Categorical ? V == N->CategoryId : V < N->Threshold;
    N = GoLeft ? N->Left.get() : N->Right.get();
  }
  return N->Label;
}

/// serialize() text of the tree over every row of \p D.
inline std::string buildText(const ml::Dataset &D,
                             const std::vector<int> &Labels,
                             const ml::TreeParams &Params = ml::TreeParams()) {
  return serialize(build(D, Labels, allRows(D), Params).get());
}

/// K-fold accuracy exactly as ml::kFoldAccuracy defines it: the same
/// shuffle, the same fold assignment, one tree per fold.
inline double kFoldAccuracy(const ml::Dataset &D,
                            const std::vector<int> &Labels, int K, Rng &Rng,
                            const ml::TreeParams &Params = ml::TreeParams()) {
  size_t N = D.numExamples();
  if (N < 2)
    return 0;
  K = std::max(2, std::min<int>(K, static_cast<int>(N)));

  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng.shuffle(Order);

  size_t Correct = 0, Tested = 0;
  for (int Fold = 0; Fold != K; ++Fold) {
    std::vector<size_t> Train, Test;
    for (size_t I = 0; I != N; ++I) {
      if (static_cast<int>(I % static_cast<size_t>(K)) == Fold)
        Test.push_back(Order[I]);
      else
        Train.push_back(Order[I]);
    }
    if (Test.empty() || Train.empty())
      continue;
    std::unique_ptr<Node> Tree = build(D, Labels, Train, Params);
    for (size_t R : Test) {
      ml::Example E = D.example(R);
      E.Values.resize(D.numFeatures(), 0);
      if (predict(Tree.get(), E) == Labels[R])
        ++Correct;
      ++Tested;
    }
  }
  return static_cast<double>(Correct) / static_cast<double>(Tested);
}

} // namespace reftree
} // namespace evm

#endif // EVM_TESTS_REFERENCETREE_H
