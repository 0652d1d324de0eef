//===- ml/ClassificationTree.h - Entropy-based decision trees -------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's modeling technique (Sec. IV-B, Fig. 6): classification trees
/// built by recursive divide-and-conquer, splitting on the question with
/// the largest entropy-based impurity reduction.  Numeric columns split on
/// thresholds (x < t), categorical columns on equality (x == c).  The
/// properties the paper relies on hold here by construction:
///
///   * both discrete and numeric features are handled;
///   * important features are selected automatically — features that never
///     reduce impurity (e.g. never-used options stuck at their defaults)
///     simply never appear in the tree (usedFeatures() reports the rest,
///     Table I's "Used" column).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_ML_CLASSIFICATIONTREE_H
#define EVM_ML_CLASSIFICATIONTREE_H

#include "ml/Dataset.h"

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string_view>

namespace evm {
namespace ml {

/// Tree construction parameters.
struct TreeParams {
  int MaxDepth = 12;
  size_t MinSamplesSplit = 2;
  double MinGain = 1e-9;
};

/// Shannon entropy (bits) of a label distribution given as per-label
/// counts; terms are summed in the order given, zero counts skipped.
double labelEntropy(std::span<const size_t> Counts);

/// One split decision along a root-to-leaf walk.
struct TreePathStep {
  size_t FeatureIndex = 0;
  bool Categorical = false;
  double Threshold = 0; ///< numeric: went left when value < Threshold
  int CategoryId = 0;   ///< categorical: went left when value == CategoryId
  bool WentLeft = false;
};

/// The full walk one prediction took — the decision ledger's "why" record
/// for a tree-model prediction.
struct TreePath {
  std::vector<TreePathStep> Steps;
  int Leaf = 0; ///< the label the walk arrived at

  /// Canonical text, '|'-joined: numeric steps "N<feat>:<threshold>:<L|R>"
  /// (threshold as %.17g, like serialize()), categorical steps
  /// "C<feat>:<catid>:<L|R>", then the terminal leaf "L<label>" — e.g.
  /// "N3:114.5:L|C0:2:R|L2".  A degenerate (leaf-only) tree renders "L0".
  std::string str() const;
};

/// A trained classification tree.
class ClassificationTree {
public:
  /// Builds a tree over the rows of \p S whose \p TrainRows entry is
  /// nonzero (every row when null), labelled by \p Labels (one per row of
  /// \p S).  Each node takes the split with the largest entropy gain: a
  /// presorted sweep visits features in column order and each feature's
  /// thresholds or categories in ascending value order, and only a
  /// strictly greater gain replaces the best so far.  No training rows
  /// yield a degenerate tree predicting label 0.
  static ClassificationTree build(const SortedColumns &S,
                                  const std::vector<int> &Labels,
                                  const TreeParams &Params = TreeParams(),
                                  const std::vector<char> *TrainRows = nullptr);

  /// Builds a tree over the whole dataset, labelled by its examples.
  static ClassificationTree build(const Dataset &D,
                                  const TreeParams &Params = TreeParams());

  /// Predicts the label of an encoded example.  \p Path, when given, is
  /// overwritten with the walk taken (same label in Path->Leaf); capturing
  /// it never changes the prediction or the metered work.
  int predict(const Example &E, TreePath *Path = nullptr) const;

  /// Indices of features actually used in split nodes (automatic feature
  /// selection).
  std::set<size_t> usedFeatures() const;

  size_t numNodes() const;
  int depth() const;

  /// Multi-line rendering ("x2 < 4.5?" style) for tests and debugging.
  std::string print(const Dataset &D) const;

  /// Canonical preorder text for the knowledge store: leaves are
  /// "L<label>", numeric splits "N<feat>:<threshold>(<left>)(<right>)",
  /// categorical splits "C<feat>:<catid>(<left>)(<right>)".  Thresholds
  /// render as %.17g, so serialize(deserialize(T)) == T byte for byte.
  std::string serialize() const;

  /// Rebuilds a tree from serialize() text; nullopt on any malformed input
  /// (loaders fall back to retraining from the persisted examples).
  static std::optional<ClassificationTree> deserialize(std::string_view Text);

private:
  struct Node {
    bool IsLeaf = true;
    int Label = 0;
    // Split description (internal nodes).
    size_t FeatureIndex = 0;
    bool Categorical = false;
    double Threshold = 0; ///< numeric: left when value < Threshold
    int CategoryId = 0;   ///< categorical: left when value == CategoryId
    std::unique_ptr<Node> Left, Right;
  };

  struct Builder; ///< one tree's induction state (ClassificationTree.cpp)

  static void serializeNode(const Node *N, std::string &Out);
  static std::unique_ptr<Node> parseNode(std::string_view Text, size_t &Pos,
                                         int Depth);
  std::unique_ptr<Node> Root;
};

} // namespace ml
} // namespace evm

#endif // EVM_ML_CLASSIFICATIONTREE_H
