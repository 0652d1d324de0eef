//===- ml/CrossValidation.cpp ---------------------------------------------==//

#include "ml/CrossValidation.h"

#include <algorithm>
#include <cassert>

using namespace evm;
using namespace evm::ml;

double ml::kFoldAccuracy(const SortedColumns &S,
                         const std::vector<int> &Labels, int K, Rng &Rng,
                         const TreeParams &Params) {
  size_t N = S.numRows();
  if (N < 2)
    return 0;
  K = std::max(2, std::min<int>(K, static_cast<int>(N)));

  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng.shuffle(Order);

  std::vector<char> Train(N);
  Example E;
  E.Values.resize(S.numFeatures());
  size_t Correct = 0, Tested = 0;
  for (int Fold = 0; Fold != K; ++Fold) {
    size_t NumTest = 0;
    for (size_t I = 0; I != N; ++I) {
      bool Test = static_cast<int>(I % static_cast<size_t>(K)) == Fold;
      Train[Order[I]] = !Test;
      NumTest += Test;
    }
    if (NumTest == 0 || NumTest == N)
      continue;
    ClassificationTree Tree =
        ClassificationTree::build(S, Labels, Params, &Train);
    for (size_t R = 0; R != N; ++R) {
      if (Train[R])
        continue;
      for (size_t F = 0; F != S.numFeatures(); ++F)
        E.Values[F] = S.column(F)[R];
      if (Tree.predict(E) == Labels[R])
        ++Correct;
      ++Tested;
    }
  }
  assert(Tested > 0 && "no folds evaluated");
  return static_cast<double>(Correct) / static_cast<double>(Tested);
}

double ml::kFoldAccuracy(const Dataset &D, int K, Rng &Rng,
                         const TreeParams &Params) {
  return kFoldAccuracy(SortedColumns(D), D.labelColumn(), K, Rng, Params);
}
