//===- ml/Dataset.h - Training data for classification trees --------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The example store behind incremental input-behavior modeling (paper
/// Sec. IV).  Rows accumulate across production runs; features are aligned
/// by name so the schema can grow when runtime-passed features (updateV)
/// appear after the first run.  Categorical string values are dictionary-
/// encoded per feature.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_ML_DATASET_H
#define EVM_ML_DATASET_H

#include "xicl/FeatureVector.h"

#include <map>
#include <string>
#include <vector>

namespace evm {
namespace ml {

/// Column description.
struct FeatureDef {
  std::string Name;
  bool Categorical = false;
  /// Dictionary for categorical columns: string -> dense id.
  std::map<std::string, int> Dictionary;
};

/// One encoded training example: per-column value (numeric value or
/// category id) plus an integer class label.
struct Example {
  std::vector<double> Values;
  int Label = 0;
};

/// A growable, name-aligned dataset.
class Dataset {
public:
  /// Encodes \p FV into a row (extending the schema for unseen feature
  /// names — earlier rows read 0 for them) and appends it with \p Label.
  void addExample(const xicl::FeatureVector &FV, int Label);

  /// Encodes \p FV against the current schema without storing it (for
  /// prediction).  Unseen categorical values encode as -1; unknown feature
  /// names are ignored; missing features read 0.
  Example encode(const xicl::FeatureVector &FV) const;

  size_t numExamples() const { return Examples.size(); }
  size_t numFeatures() const { return Schema.size(); }
  const std::vector<FeatureDef> &schema() const { return Schema; }
  const Example &example(size_t I) const { return Examples[I]; }
  const std::vector<Example> &examples() const { return Examples; }

  /// Every example's label, by row.
  std::vector<int> labelColumn() const;

private:
  int columnFor(const xicl::Feature &F);

  std::vector<FeatureDef> Schema;
  std::map<std::string, size_t> ColumnIndex;
  std::vector<Example> Examples;
};

/// The presorted feature table of tree induction (the SLIQ/C4.5 presorted
/// sweep): a dataset's values column-major, plus for each column the row
/// ids stable-sorted by value.  One table serves every tree trained over
/// the same feature rows — each method's model and every cross-validation
/// fold — so a rebuild sorts each column once.  Values must not be NaN
/// (the sort needs a strict weak order); features are finite by
/// construction, and infinities still sort.
class SortedColumns {
public:
  explicit SortedColumns(const Dataset &D);

  size_t numRows() const { return NumRows; }
  size_t numFeatures() const { return Categorical.size(); }
  bool categorical(size_t F) const { return Categorical[F] != 0; }

  /// Column \p F's values, indexed by row id.
  const double *column(size_t F) const { return Values.data() + F * NumRows; }

  /// Column \p F's row ids in ascending value order (equal values keep row
  /// order).
  const size_t *order(size_t F) const { return Order.data() + F * NumRows; }

private:
  size_t NumRows = 0;
  std::vector<char> Categorical;
  std::vector<double> Values;
  std::vector<size_t> Order;
};

} // namespace ml
} // namespace evm

#endif // EVM_ML_DATASET_H
