//===- evolve/ModelBuilder.cpp --------------------------------------------==//

#include "evolve/ModelBuilder.h"

#include "ml/CrossValidation.h"
#include "support/Profiler.h"

#include <algorithm>
#include <cassert>

using namespace evm;
using namespace evm::evolve;
using vm::OptLevel;

void ModelBuilder::addRun(const xicl::FeatureVector &Features,
                          const MethodLevelStrategy &Ideal) {
  assert(Ideal.Levels.size() == NumMethods && "strategy size mismatch");
  RawRuns.push_back(Features);
  Encoded.addExample(Features, 0);
  std::vector<int> Row(NumMethods);
  for (size_t M = 0; M != NumMethods; ++M)
    Row[M] = vm::levelIndex(Ideal.Levels[M]);
  Labels.push_back(std::move(Row));
}

namespace {

/// Fills \p Column with method \p M's label in every recorded run and
/// returns whether it varies (a constant column needs no tree).
bool methodLabels(const std::vector<std::vector<int>> &Labels, size_t M,
                 std::vector<int> &Column) {
  Column.resize(Labels.size());
  bool Varies = false;
  for (size_t R = 0; R != Labels.size(); ++R) {
    Column[R] = Labels[R][M];
    Varies |= Column[R] != Column[0];
  }
  return Varies;
}

} // namespace

void ModelBuilder::rebuild() {
  if (Labels.empty())
    return;
  // Offline stage: attributed under the profiler's "offline" root, never
  // the engine's clock (the paper excludes model construction from
  // application runtime).
  ScopedPhase OfflineScope("offline");
  ScopedPhase RebuildScope("ml/rebuild");
  LastRebuild = RebuildStats();
  Models.clear();
  Models.resize(NumMethods);

  // One presorted table serves every method's tree; it is built at the
  // first method that needs one.
  std::optional<ml::SortedColumns> Table;
  std::vector<int> Column;
  for (size_t M = 0; M != NumMethods; ++M) {
    LastRebuild.ExamplesScanned += Labels.size();
    if (!methodLabels(Labels, M, Column)) {
      Models[M].Constant = true;
      Models[M].ConstantLabel = Column[0];
      continue;
    }
    if (!Table)
      Table.emplace(Encoded);
    Models[M].Constant = false;
    Models[M].Tree = ml::ClassificationTree::build(*Table, Column, Params);
    ++LastRebuild.TreesBuilt;
    LastRebuild.NodesBuilt += Models[M].Tree.numNodes();
  }
  Built = true;
  if (PhaseProfiler *P = PhaseProfiler::current()) {
    P->charge(LastRebuild.toCycles());
    // Pull the tree-training share down onto the per-tree frames the
    // builds themselves opened.
    P->splitToChild("tree/build",
                    500 * LastRebuild.TreesBuilt + 120 * LastRebuild.NodesBuilt,
                    0);
  }
}

std::optional<MethodLevelStrategy>
ModelBuilder::predict(const xicl::FeatureVector &Features,
                      PredictionStats *Stats,
                      std::vector<MethodPredictionDetail> *Details) const {
  if (!Built)
    return std::nullopt;
  if (Details)
    Details->clear();
  ml::Example E = Encoded.encode(Features);
  MethodLevelStrategy Out;
  Out.Levels.resize(NumMethods, OptLevel::Baseline);
  for (size_t M = 0; M != NumMethods; ++M) {
    int Label;
    MethodPredictionDetail Detail;
    if (Models[M].Constant) {
      Label = Models[M].ConstantLabel;
      Detail.Constant = true;
    } else {
      Label = Models[M].Tree.predict(E, Details ? &Detail.Path : nullptr);
      Detail.Constant = false;
      if (Stats) {
        ++Stats->Trees;
        // depth() bounds the root-to-leaf walk length.
        Stats->TreeNodesVisited +=
            static_cast<uint64_t>(Models[M].Tree.depth());
      }
    }
    if (Details) {
      Detail.Label = Label;
      Details->push_back(std::move(Detail));
    }
    Label = std::max(0, std::min(vm::NumOptLevels - 1, Label));
    Out.Levels[M] = vm::levelFromIndex(Label);
  }
  return Out;
}

double ModelBuilder::crossValidatedAccuracy(int Folds, Rng &R) const {
  if (Labels.size() < 2)
    return 0;
  // Offline self-evaluation: modeled as one rebuild per fold over the
  // non-constant methods.
  ScopedPhase OfflineScope("offline");
  ScopedPhase CvScope("ml/crossval");
  RebuildStats Modeled;
  double Sum = 0;
  // One presorted table serves every method and every fold.
  std::optional<ml::SortedColumns> Table;
  std::vector<int> Column;
  for (size_t M = 0; M != NumMethods; ++M) {
    if (!methodLabels(Labels, M, Column)) {
      Sum += 1.0; // a constant predictor generalizes trivially
      continue;
    }
    if (!Table)
      Table.emplace(Encoded);
    Sum += ml::kFoldAccuracy(*Table, Column, Folds, R, Params);
    Modeled.TreesBuilt += static_cast<uint64_t>(Folds);
    Modeled.ExamplesScanned +=
        static_cast<uint64_t>(Folds) * Labels.size();
  }
  if (PhaseProfiler *P = PhaseProfiler::current())
    P->charge(Modeled.toCycles());
  return Sum / static_cast<double>(NumMethods);
}

std::vector<ExportedMethodModel> ModelBuilder::exportModels() const {
  std::vector<ExportedMethodModel> Out;
  if (!Built)
    return Out;
  Out.reserve(Models.size());
  for (const MethodModel &M : Models) {
    ExportedMethodModel E;
    E.Constant = M.Constant;
    E.ConstantLabel = M.ConstantLabel;
    if (!M.Constant)
      E.Tree = M.Tree.serialize();
    Out.push_back(std::move(E));
  }
  return Out;
}

bool ModelBuilder::importModels(const std::vector<ExportedMethodModel> &Exported) {
  if (Exported.size() != NumMethods)
    return false;
  std::vector<MethodModel> Incoming(NumMethods);
  for (size_t M = 0; M != NumMethods; ++M) {
    const ExportedMethodModel &E = Exported[M];
    Incoming[M].Constant = E.Constant;
    Incoming[M].ConstantLabel = E.ConstantLabel;
    if (E.Constant)
      continue;
    std::optional<ml::ClassificationTree> Tree =
        ml::ClassificationTree::deserialize(E.Tree);
    if (!Tree)
      return false; // damaged tree text: leave state untouched, retrain
    Incoming[M].Tree = std::move(*Tree);
  }
  Models = std::move(Incoming);
  Built = true;
  return true;
}

std::set<std::string> ModelBuilder::usedFeatureNames() const {
  std::set<std::string> Names;
  if (!Built)
    return Names;
  for (const MethodModel &Model : Models) {
    if (Model.Constant)
      continue;
    for (size_t F : Model.Tree.usedFeatures())
      Names.insert(Encoded.schema()[F].Name);
  }
  return Names;
}
