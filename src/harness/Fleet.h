//===- harness/Fleet.h - Parallel multi-tenant fleet runner ---------------===//
//
// Part of the EVM project (CGO 2009 evolvable-VM reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a *fleet* of independent EvolvableVM tenants across a std::thread
/// pool — the scaling layer the ROADMAP's "heavy traffic" north star asks
/// for.  Each tenant models one production user of one application: it
/// drives its own deterministic input stream (seeded per-tenant from the
/// fleet seed), evolves its own VM, and — when a shard directory is given —
/// periodically checkpoints its knowledge into a *per-tenant shard* store
/// file.  After every tenant finishes, the coordinator folds the shards
/// into one per-application global store under the existing
/// generation-keyed newest-wins store::mergeStores policy, so cross-tenant
/// learning flows between fleet launches without any global lock on the
/// hot path (tenants only ever touch their own shard file while running).
///
/// Determinism by construction
/// ---------------------------
/// The thread pool only decides *which worker host-executes which tenant
/// when*; it never feeds information between tenants:
///
///   - every tenant's behaviour is a pure function of (fleet seed, tenant
///     id, the global stores frozen at fleet start) — tenants never read
///     another tenant's shard or the global store mid-flight;
///   - tenant results land in a pre-sized vector indexed by tenant id, and
///     every reduction (aggregate JSON, fleet.* metrics, fleet.* trace
///     events, shard merges) walks that vector in tenant-ID order on the
///     coordinator thread after the pool joins;
///   - shard generations are striped per tenant (see GenerationStride), so
///     the newest-wins merge is totally ordered and the folded global
///     store is invariant under merge-order permutations.
///
/// Hence `--fleet N --threads T` produces byte-identical aggregate JSON
/// for every T, and T=1 equals running the tenants one after another
/// through the serial ScenarioRunner::runEvolveLaunches path.
///
//===----------------------------------------------------------------------===//

#ifndef EVM_HARNESS_FLEET_H
#define EVM_HARNESS_FLEET_H

#include "harness/Scenario.h"
#include "support/Metrics.h"
#include "support/Profiler.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace evm {
namespace harness {

/// Builds tenant workloads: any paper benchmark by name, plus "route" (the
/// running example — small enough for tests and the soak lane).  Shared
/// with the prediction server's per-app lanes, which must realize exactly
/// the fleet's name -> workload mapping for the determinism pin to hold.
wl::Workload buildFleetWorkload(const std::string &Name, uint64_t Seed);

/// Fleet-level knobs.  Everything except NumThreads changes the result;
/// NumThreads only changes how fast it arrives.
struct FleetConfig {
  /// How many independent EvolvableVM tenants to run.
  size_t NumTenants = 4;
  /// Worker threads; clamped to [1, NumTenants].  Any value produces
  /// byte-identical results.
  size_t NumThreads = 1;
  /// Production runs each tenant executes.
  size_t RunsPerTenant = 12;
  /// Fleet seed: workload generation and every tenant's input stream
  /// derive from it (tenant i draws order sub-seed i+1).
  uint64_t Seed = 1;
  /// The multiprogram mix: tenant i runs Workloads[i % size].  Accepts any
  /// wl::workloadNames() entry plus "route" (the paper's Fig. 2 example,
  /// cheap enough for tests).  Must not be empty.
  std::vector<std::string> Workloads = {"route"};
  /// Shard directory: tenant i checkpoints to shard-<i>.store and the
  /// coordinator folds shards into global-<app>.store.  Empty = storeless
  /// (tenants still deterministic, nothing persisted).
  std::string ShardDir;
  /// Checkpoint cadence in runs: every MergeEvery runs the tenant ends a
  /// "launch", checkpoints its shard, and warm-starts a fresh VM from it
  /// (exactly ScenarioRunner::runEvolveLaunches chunking).  0 = one
  /// checkpoint at the end.  Ignored without a shard directory.
  size_t MergeEvery = 0;
  /// Per-tenant phase profiling (virtual-cycle deterministic; off saves a
  /// little host time).
  bool CapturePhases = true;
  /// Per-tenant decision ledgers: every Evolve run appends one
  /// DecisionRecord (tagged with its tenant id), folded in tenant-ID order
  /// into FleetResult::Decisions after the pool joins.  Observation only —
  /// on/off is cycle-identical, and the aggregate JSON never changes.
  bool CaptureDecisions = false;
  /// Scenario knobs shared by all tenants (Seed inside it is overridden by
  /// the fleet seed).
  ExperimentConfig Experiment;
};

/// One tenant's reduced outcome, in tenant-ID order inside FleetResult.
struct TenantResult {
  size_t TenantId = 0;
  std::string Workload;
  size_t Launches = 0; ///< checkpoints written (0 when storeless)
  ScenarioResult Result;
  PhaseTreeSnapshot Phases; ///< empty unless CapturePhases
  uint64_t TotalCycles = 0;
  uint64_t OverheadCycles = 0;
  uint64_t Compiles = 0;
  /// This tenant's decision records (Tenant field stamped); empty unless
  /// FleetConfig::CaptureDecisions.
  std::vector<DecisionRecord> Decisions;
};

/// Everything a fleet run produces.  renderJson() is the aggregate
/// document the identity gates compare: it contains no thread count, no
/// wall-clock time, and nothing else interleaving-dependent.
struct FleetResult {
  std::vector<TenantResult> Tenants; ///< indexed by tenant id
  /// fleet.* counters/gauges reduced in tenant-ID order.
  MetricsSnapshot Metrics;
  size_t ShardsMerged = 0;  ///< shard files folded into global stores
  size_t GlobalStores = 0;  ///< distinct per-app global stores written
  uint64_t TotalCycles = 0; ///< across all tenants
  size_t TotalRuns = 0;
  /// All tenants' decision records folded in tenant-ID order (hence
  /// byte-identical JSONL for any NumThreads); empty unless
  /// FleetConfig::CaptureDecisions.  Not part of renderJson().
  std::vector<DecisionRecord> Decisions;

  /// Canonical aggregate JSON: fleet echo, per-tenant documents (with
  /// per-run series and phase trees), and the fleet metrics snapshot.
  /// Byte-identical for any NumThreads.
  std::string renderJson() const;
};

/// The fleet coordinator.  One instance = one fleet launch.
class FleetRunner {
public:
  explicit FleetRunner(FleetConfig Config);

  /// Executes the whole fleet (blocking) and reduces the results.
  FleetResult run();

  /// Attaches a recorder for the coordinator's fleet.tenant / fleet.merge
  /// events (recorded after the pool joins, in tenant-ID order, so traces
  /// are deterministic too).  Engine-level events are not recorded in
  /// fleet mode — tenant threads interleaving into one recorder would
  /// destroy append-order determinism.
  void setTracer(TraceRecorder *T) { Tracer = T; }

  /// shard-<id>.store inside \p Dir (zero-padded for stable listings).
  static std::string shardPath(const std::string &Dir, size_t TenantId);

  /// global-<app>.store inside \p Dir.
  static std::string globalStorePath(const std::string &Dir,
                                     const std::string &App);

  /// Generation stripe width: tenant i's shard generations live in
  /// (Base + (i+1)*Stride, Base + (i+2)*Stride), so any two shards of one
  /// fleet launch compare strictly under newest-wins and shard merges are
  /// permutation-invariant.  Bounds launches per tenant per fleet launch.
  static constexpr uint64_t GenerationStride = uint64_t(1) << 20;

private:
  TenantResult runTenant(size_t TenantId);

  FleetConfig Config;
  TraceRecorder *Tracer = nullptr;
};

} // namespace harness
} // namespace evm

#endif // EVM_HARNESS_FLEET_H
