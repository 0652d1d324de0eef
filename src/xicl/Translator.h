//===- xicl/Translator.h - Command line -> feature vector -----------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// XICLTranslator (paper Sec. III-B and Fig. 3): given an XICL
/// specification, converts an arbitrary legal command line into a
/// well-formed feature vector.  For the paper's route example,
/// `route -n 3 graph1` with a graph of 100 nodes / 1000 edges becomes
/// (3, 0, 100, 1000) — the second element being the absent -e option's
/// default.
///
/// The translator also counts the work it performs (tokens scanned,
/// features extracted, file lookups); the evolvable VM charges that to the
/// virtual clock so the paper's overhead analysis (Sec. V.B.2) is
/// reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_XICL_TRANSLATOR_H
#define EVM_XICL_TRANSLATOR_H

#include "support/Error.h"
#include "xicl/FeatureVector.h"
#include "xicl/FileStore.h"
#include "xicl/Spec.h"
#include "xicl/XFMethod.h"

#include <string_view>

namespace evm {
namespace xicl {

/// Work accounting for one translation (overhead model).
struct TranslationStats {
  uint64_t TokensScanned = 0;
  uint64_t FeaturesExtracted = 0;
  uint64_t FileLookups = 0;

  /// Converts translator work to virtual cycles (constants chosen so
  /// typical extraction lands well under 1% of short runs, as in the
  /// paper).
  uint64_t toCycles() const {
    return 120 * TokensScanned + 250 * FeaturesExtracted + 400 * FileLookups;
  }
};

/// Converts command lines to feature vectors under one specification.
class XICLTranslator {
public:
  /// \p Registry and \p Files must outlive the translator; \p Files may be
  /// null when the spec has no file-typed components.
  XICLTranslator(Spec TheSpec, const XFMethodRegistry *Registry,
                 const FileStore *Files);

  /// The paper's buildFVector: parses \p CommandLine (program name first)
  /// and extracts every declared feature.  Fails on unknown options,
  /// missing arguments, or unresolvable attr names.  A numeric feature that
  /// is not finite (an "inf" argument, an overflowing range sum) reads 0.
  ErrorOr<FeatureVector> buildFVector(std::string_view CommandLine);

  /// Names of every feature the schema produces, in order (used by the
  /// learner to build a stable dataset schema).
  std::vector<std::string> schemaFeatureNames() const;

  /// Work performed by the most recent buildFVector call.
  const TranslationStats &lastStats() const { return Stats; }

  const Spec &spec() const { return TheSpec; }

private:
  Spec TheSpec;
  const XFMethodRegistry *Registry;
  const FileStore *Files;
  TranslationStats Stats;
};

} // namespace xicl
} // namespace evm

#endif // EVM_XICL_TRANSLATOR_H
