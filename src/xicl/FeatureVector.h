//===- xicl/FeatureVector.h - Input feature vectors -----------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The well-formed feature vector the XICL translator produces from a raw
/// program input (paper Sec. III).  Features are named and either numeric or
/// categorical; the learner consumes them positionally, so the translator
/// guarantees a stable schema for a given XICL specification (missing
/// options contribute their declared defaults).
///
//===----------------------------------------------------------------------===//

#ifndef EVM_XICL_FEATUREVECTOR_H
#define EVM_XICL_FEATUREVECTOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace evm {
namespace xicl {

/// One extracted input feature.
struct Feature {
  enum class Kind { Numeric, Categorical };

  std::string Name; ///< e.g. "-n.val", "operand1.mnodes"
  Kind TheKind = Kind::Numeric;
  double Num = 0;  ///< valid when numeric
  std::string Cat; ///< valid when categorical

  static Feature numeric(std::string Name, double Value) {
    Feature F;
    F.Name = std::move(Name);
    F.TheKind = Kind::Numeric;
    F.Num = Value;
    return F;
  }
  static Feature categorical(std::string Name, std::string Value) {
    Feature F;
    F.Name = std::move(Name);
    F.TheKind = Kind::Categorical;
    F.Cat = std::move(Value);
    return F;
  }

  bool isNumeric() const { return TheKind == Kind::Numeric; }
};

/// A complete feature vector for one program input.
struct FeatureVector {
  std::vector<Feature> Features;

  size_t size() const { return Features.size(); }
  const Feature &operator[](size_t I) const { return Features[I]; }

  /// Appends \p F (translator and runtime channel both add through here).
  void append(Feature F) { Features.push_back(std::move(F)); }

  /// Replaces the feature named \p Name, or appends it when absent; a
  /// numeric value that is not finite reads 0.  This is the
  /// XICLFeatureVector.updateV mechanism (paper Fig. 5).
  void updateV(const std::string &Name, Feature F);

  /// Index of the feature named \p Name, or -1.
  int indexOf(const std::string &Name) const;

  /// Renders "name=value, ..." for diagnostics and examples.
  std::string str() const;

  /// Stable 64-bit FNV-1a over str() — the deterministic feature-vector id
  /// the evolve.predict trace event and the decision ledger both carry.
  uint64_t hash() const;
};

} // namespace xicl
} // namespace evm

#endif // EVM_XICL_FEATUREVECTOR_H
