//===- ml/Dataset.cpp -----------------------------------------------------==//

#include "ml/Dataset.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace evm;
using namespace evm::ml;
using xicl::Feature;
using xicl::FeatureVector;

int Dataset::columnFor(const Feature &F) {
  auto It = ColumnIndex.find(F.Name);
  if (It != ColumnIndex.end())
    return static_cast<int>(It->second);
  FeatureDef Def;
  Def.Name = F.Name;
  Def.Categorical = !F.isNumeric();
  size_t Column = Schema.size();
  Schema.push_back(std::move(Def));
  ColumnIndex.emplace(F.Name, Column);
  // Existing rows read 0 for the new column.
  for (Example &E : Examples)
    E.Values.resize(Schema.size(), 0);
  return static_cast<int>(Column);
}

void Dataset::addExample(const FeatureVector &FV, int Label) {
  Example Row;
  Row.Values.assign(Schema.size(), 0);
  Row.Label = Label;
  for (const Feature &F : FV.Features) {
    int Column = columnFor(F);
    Row.Values.resize(Schema.size(), 0);
    FeatureDef &Def = Schema[static_cast<size_t>(Column)];
    if (Def.Categorical) {
      auto [It, Inserted] = Def.Dictionary.emplace(
          F.Cat, static_cast<int>(Def.Dictionary.size()));
      (void)Inserted;
      Row.Values[static_cast<size_t>(Column)] = It->second;
    } else {
      Row.Values[static_cast<size_t>(Column)] = F.Num;
    }
  }
  Examples.push_back(std::move(Row));
}

Example Dataset::encode(const FeatureVector &FV) const {
  Example Row;
  Row.Values.assign(Schema.size(), 0);
  for (const Feature &F : FV.Features) {
    auto It = ColumnIndex.find(F.Name);
    if (It == ColumnIndex.end())
      continue; // feature unseen during training
    const FeatureDef &Def = Schema[It->second];
    if (Def.Categorical) {
      auto Dict = Def.Dictionary.find(F.Cat);
      Row.Values[It->second] = Dict == Def.Dictionary.end() ? -1
                                                            : Dict->second;
    } else {
      Row.Values[It->second] = F.Num;
    }
  }
  return Row;
}

std::vector<int> Dataset::labelColumn() const {
  std::vector<int> Out(Examples.size());
  for (size_t R = 0; R != Out.size(); ++R)
    Out[R] = Examples[R].Label;
  return Out;
}

SortedColumns::SortedColumns(const Dataset &D)
    : NumRows(D.numExamples()), Categorical(D.numFeatures()),
      Values(D.numFeatures() * D.numExamples()),
      Order(D.numFeatures() * D.numExamples()) {
  for (size_t F = 0; F != numFeatures(); ++F) {
    Categorical[F] = D.schema()[F].Categorical;
    double *Col = Values.data() + F * NumRows;
    size_t *Rows = Order.data() + F * NumRows;
    for (size_t R = 0; R != NumRows; ++R) {
      Col[R] = D.example(R).Values[F];
      assert(!std::isnan(Col[R]) && "NaN feature value");
      Rows[R] = R;
    }
    std::stable_sort(Rows, Rows + NumRows,
                     [Col](size_t A, size_t B) { return Col[A] < Col[B]; });
  }
}
