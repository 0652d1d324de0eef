//===- ml/CrossValidation.h - Model quality estimation ---------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// K-fold cross-validation over a Dataset, used to assess predictive-model
/// quality offline (the paper's discriminative prediction additionally
/// tracks a decayed online accuracy; see Confidence.h).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_ML_CROSSVALIDATION_H
#define EVM_ML_CROSSVALIDATION_H

#include "ml/ClassificationTree.h"
#include "support/Rng.h"

namespace evm {
namespace ml {

/// K-fold cross-validated accuracy in [0, 1] of trees over the rows of
/// \p S labelled by \p Labels.  Rows are shuffled with \p Rng before
/// folding; tables smaller than \p K fall back to leave-one-out.  Every
/// fold trains on a row mask of the one table.  Returns 0 for fewer than
/// 2 rows.
double kFoldAccuracy(const SortedColumns &S, const std::vector<int> &Labels,
                     int K, Rng &Rng, const TreeParams &Params = TreeParams());

/// The same over a whole dataset, labelled by its examples.
double kFoldAccuracy(const Dataset &D, int K, Rng &Rng,
                     const TreeParams &Params = TreeParams());

} // namespace ml
} // namespace evm

#endif // EVM_ML_CROSSVALIDATION_H
