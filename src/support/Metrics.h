//===- support/Metrics.h - Named counters, gauges, and histograms ---------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small metrics registry: named counters (monotonic uint64 totals),
/// gauges (instantaneous doubles), and histograms (sample sets summarized
/// through support/Statistics).  Producers mutate a MetricsRegistry during a
/// run; consumers receive an immutable MetricsSnapshot — a name-sorted value
/// list with a stable JSON rendering, so two identical runs produce
/// byte-identical snapshots.  RunResult carries one snapshot per execution
/// and exposes the legacy overhead-accounting fields as thin wrappers over
/// it.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_SUPPORT_METRICS_H
#define EVM_SUPPORT_METRICS_H

#include "support/Statistics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace evm {

/// What a metric measures.
enum class MetricKind : uint8_t {
  Counter,   ///< monotonic event/cycle total
  Gauge,     ///< instantaneous value
  Histogram, ///< distribution, summarized as a five-number box
};

/// Human-readable kind name ("counter", "gauge", "histogram").
const char *metricKindName(MetricKind K);

/// One named metric inside a snapshot.  Only the fields matching Kind are
/// meaningful.
struct MetricValue {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  uint64_t Counter = 0; ///< Kind == Counter
  double Gauge = 0;     ///< Kind == Gauge
  BoxStats Box;         ///< Kind == Histogram (Box.Count = sample count)
  double Sum = 0;       ///< Kind == Histogram: sum of samples
  /// Kind == Histogram: latency-style percentiles (linear interpolation,
  /// like the box quartiles).  P50 duplicates Box.Median by construction.
  double P50 = 0;
  double P90 = 0;
  double P99 = 0;
};

/// An immutable, name-sorted copy of a registry's state.
class MetricsSnapshot {
public:
  /// The metric named \p Name, or null.
  const MetricValue *find(const std::string &Name) const;

  /// Counter value of \p Name, or \p Default when absent (or not a counter).
  uint64_t counter(const std::string &Name, uint64_t Default = 0) const;

  /// Gauge value of \p Name, or \p Default when absent (or not a gauge).
  double gauge(const std::string &Name, double Default = 0) const;

  /// Inserts or overwrites a counter/gauge, keeping name order.  Post-run
  /// augmentation (the evolvable VM folds its own costs into the engine's
  /// snapshot) goes through these.
  void setCounter(const std::string &Name, uint64_t Value);
  void setGauge(const std::string &Name, double Value);

  /// Stable JSON rendering: {"metrics":[{...},...]} with name-sorted
  /// entries, fixed key order, and round-trippable number formatting.
  std::string renderJson() const;

  const std::vector<MetricValue> &values() const { return Values; }
  bool empty() const { return Values.empty(); }

private:
  friend class MetricsRegistry;
  MetricValue &getOrInsert(const std::string &Name);

  std::vector<MetricValue> Values; ///< sorted by Name
};

/// The mutable registry producers write to.  Thread-safe: every mutator and
/// snapshot() takes an internal mutex, so one registry may be shared by
/// concurrent producers (fleet tenant threads, prediction-server lanes)
/// without losing counts.  Engine hot paths still accumulate in plain
/// members and fold into a registry once per run, so the lock is never on
/// the per-bytecode path; snapshots taken while producers are active see a
/// consistent (point-in-time) state.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Adds \p Delta to counter \p Name (creating it at zero).
  void add(const std::string &Name, uint64_t Delta = 1);

  /// Sets gauge \p Name.
  void setGauge(const std::string &Name, double Value);

  /// Appends one sample to histogram \p Name.
  void observe(const std::string &Name, double Sample);

  /// Snapshots the current state (sorted, summarized).
  MetricsSnapshot snapshot() const;

  /// Drops every metric (between runs).
  void reset();

private:
  mutable std::mutex Mutex;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, std::vector<double>> Histograms;
};

} // namespace evm

#endif // EVM_SUPPORT_METRICS_H
