//===- harness/Experiments.h - Table/figure regeneration ------------------==//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One entry point per table/figure of the paper's evaluation (Sec. V).
/// Each returns printable text (tables and ASCII series/boxplots) so the
/// bench binaries stay trivial; EXPERIMENTS.md records the outputs against
/// the paper's numbers.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_HARNESS_EXPERIMENTS_H
#define EVM_HARNESS_EXPERIMENTS_H

#include "harness/Scenario.h"
#include "support/Metrics.h"

#include <string>

namespace evm {
namespace harness {

/// Each experiment optionally registers its headline numbers (plus
/// bench.cycles.total / bench.compiles.total roll-ups) into \p Metrics —
/// the machine-readable channel behind every bench binary's --json flag.

/// Table I: benchmarks, input-set sizes, default running-time ranges,
/// raw/used feature counts, and final prediction confidence/accuracy.
std::string runTable1(uint64_t Seed, MetricsRegistry *Metrics = nullptr);

/// Figure 8: temporal curves (confidence, accuracy, Evolve and Rep
/// speedups per run) for one workload; the paper shows Mtrt and RayTracer.
std::string runFig8(const std::string &WorkloadName, uint64_t Seed,
                    MetricsRegistry *Metrics = nullptr);

/// Figure 9: speedup-vs-default-running-time correlation for one workload,
/// rows sorted by default time; the paper shows Mtrt and Compress.
std::string runFig9(const std::string &WorkloadName, uint64_t Seed,
                    MetricsRegistry *Metrics = nullptr);

/// Figure 10: speedup boxplots (min/25%/median/75%/max) for Evolve and Rep
/// over all benchmarks.
std::string runFig10(uint64_t Seed, MetricsRegistry *Metrics = nullptr);

/// Sec. V.B.2: overhead of feature extraction + prediction as a fraction
/// of run time, per workload (mean and max).
std::string runOverheadAnalysis(uint64_t Seed,
                                MetricsRegistry *Metrics = nullptr);

/// Sec. V.B.3: sensitivity to the confidence threshold (on Mtrt) and to
/// the input arrival order (on RayTracer, Rep vs Evolve).
std::string runSensitivity(uint64_t Seed, MetricsRegistry *Metrics = nullptr);

} // namespace harness
} // namespace evm

#endif // EVM_HARNESS_EXPERIMENTS_H
