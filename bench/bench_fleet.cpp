//===- bench/bench_fleet.cpp - Fleet determinism and scaling gates --------==//
//
// The multi-tenant fleet's two regression gates:
//
//   identity   a sharded 4-tenant fleet is run twice — serial (T=1) and
//              parallel (T=4) — into fresh shard directories; the
//              aggregate JSON documents and the folded global stores must
//              match byte for byte.  Zero tolerance, gated everywhere.
//
//   speedup    a storeless 8-tenant fleet is wall-clock timed in five
//              alternating T=1/T=4 pairs; the median of the per-pair
//              speedups must be >= 1.5x, so one host stall during one
//              sample cannot fail the gate.  Host time is only
//              meaningful with real cores underneath, so this gate
//              (and its fleet.speedup_t4 metric) engages only when
//              std::thread::hardware_concurrency() >= 4 — on smaller
//              boxes it reports and skips, and the committed baseline
//              carries no speedup number to mis-compare.
//
// Every metric except fleet.speedup_t4 is virtual-clock deterministic, so
// the committed baseline diffs byte-for-byte.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Fleet.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace evm;
using namespace evm::harness;

namespace {

FleetConfig fleetConfig(size_t Tenants, size_t Threads, size_t Runs,
                        const std::string &ShardDir) {
  FleetConfig FC;
  FC.NumTenants = Tenants;
  FC.NumThreads = Threads;
  FC.RunsPerTenant = Runs;
  FC.Seed = 20090301;
  FC.ShardDir = ShardDir;
  FC.MergeEvery = ShardDir.empty() ? 0 : 3;
  FC.CapturePhases = false; // phase capture is not what this bench times
  return FC;
}

std::string freshShardDir(const char *Tag) {
  std::string Dir =
      "/tmp/bench_fleet." + std::to_string(getpid()) + "." + Tag;
  mkdir(Dir.c_str(), 0777);
  return Dir;
}

void removeDir(const std::string &Dir, size_t Tenants) {
  for (size_t I = 0; I != Tenants; ++I)
    std::remove(FleetRunner::shardPath(Dir, I).c_str());
  std::remove(FleetRunner::globalStorePath(Dir, "Route").c_str());
  rmdir(Dir.c_str());
}

double wallSeconds(FleetConfig FC) {
  auto Begin = std::chrono::steady_clock::now();
  FleetRunner(std::move(FC)).run();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Begin).count();
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonFlag(argc, argv);
  MetricsRegistry Metrics;
  int Failures = 0;

  std::printf("Fleet runner: serial-vs-parallel identity and thread-pool "
              "scaling\n\n");

  // Gate 1: byte identity of the aggregate JSON and the persisted global
  // store between --threads 1 and --threads 4.
  const size_t IdTenants = 4, IdRuns = 5;
  std::string DirSerial = freshShardDir("serial");
  std::string DirParallel = freshShardDir("parallel");
  FleetResult Serial =
      FleetRunner(fleetConfig(IdTenants, 1, IdRuns, DirSerial)).run();
  FleetResult Parallel =
      FleetRunner(fleetConfig(IdTenants, 4, IdRuns, DirParallel)).run();
  std::string SerialJson = Serial.renderJson();
  bool JsonIdentical = SerialJson == Parallel.renderJson();
  bool StoreIdentical = true;
  for (size_t I = 0; I != IdTenants && StoreIdentical; ++I) {
    std::string A = FleetRunner::shardPath(DirSerial, I);
    std::string B = FleetRunner::shardPath(DirParallel, I);
    store::KnowledgeStore SA, SB;
    store::StoreReadStats St;
    StoreIdentical = store::loadStoreFile(A, SA, St) ==
                         store::LoadStatus::Loaded &&
                     store::loadStoreFile(B, SB, St) ==
                         store::LoadStatus::Loaded &&
                     SA.serialize() == SB.serialize();
  }
  removeDir(DirSerial, IdTenants);
  removeDir(DirParallel, IdTenants);

  if (!JsonIdentical || !StoreIdentical) {
    std::fprintf(stderr,
                 "GATE: T=1 and T=4 fleets diverge (%s differ) — the "
                 "thread pool is leaking into results\n",
                 JsonIdentical ? "shard stores" : "aggregate documents");
    ++Failures;
  }
  Metrics.setGauge("fleet.identity", JsonIdentical && StoreIdentical ? 1 : 0);

  // Deterministic fleet shape, from the serial run (identical to parallel
  // by the gate above): these diff byte-for-byte against the baseline.
  Metrics.setGauge("fleet.total_runs",
                   static_cast<double>(Serial.TotalRuns));
  Metrics.setGauge("fleet.total_cycles",
                   static_cast<double>(Serial.TotalCycles));
  Metrics.setGauge("fleet.accuracy.mean",
                   Serial.Metrics.gauge("fleet.accuracy.mean"));
  Metrics.setGauge("fleet.confidence.final.mean",
                   Serial.Metrics.gauge("fleet.confidence.final.mean"));

  TextTable Table({"Gate", "Value", "Status"});
  Table.beginRow();
  Table.addCell("identity T=1 vs T=4");
  Table.addCell(JsonIdentical && StoreIdentical ? "byte-equal" : "DIVERGED");
  Table.addCell(JsonIdentical && StoreIdentical ? "ok" : "FAIL");

  // Gate 2: wall-clock scaling, only where the host can actually scale.
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores >= 4) {
    const size_t SpTenants = 8, SpRuns = 8, Pairs = 5;
    std::vector<double> Ratios;
    for (size_t P = 0; P != Pairs; ++P) {
      double T1 = wallSeconds(fleetConfig(SpTenants, 1, SpRuns, ""));
      double T4 = wallSeconds(fleetConfig(SpTenants, 4, SpRuns, ""));
      Ratios.push_back(T4 > 0 ? T1 / T4 : 0);
      std::printf("speedup pair %zu: T1=%.3fs T4=%.3fs -> %.2fx\n", P + 1,
                  T1, T4, Ratios.back());
    }
    std::sort(Ratios.begin(), Ratios.end());
    double Speedup = Ratios[Pairs / 2];
    Metrics.setGauge("fleet.speedup_t4", Speedup);
    Table.beginRow();
    Table.addCell("speedup T=4 (wall, median of 5 pairs)");
    Table.addCell(Speedup, 2);
    Table.addCell(Speedup >= 1.5 ? "ok" : "FAIL");
    if (Speedup < 1.5) {
      std::fprintf(stderr,
                   "GATE: T=4 wall-clock speedup, median of %zu pairs, "
                   "%.2fx < 1.5x (%u cores)\n",
                   Pairs, Speedup, Cores);
      ++Failures;
    }
  } else {
    Table.beginRow();
    Table.addCell("speedup T=4 (wall)");
    Table.addCell("skipped");
    Table.addCell("n/a");
    std::printf("note: %u hardware thread(s) — wall-clock speedup gate "
                "needs >= 4, skipping\n",
                Cores);
  }

  std::printf("%s\n", Table.render().c_str());
  std::printf("Expected shape: identity is always byte-equal (determinism "
              "by construction);\non >=4-core hosts the thread pool "
              "delivers >= 1.5x at T=4.\n");

  // Per-run speedup-vs-default series of one long-lived tenant
  // (storeless, 24 runs): input sizes vary run to run, so raw cycles
  // jump around, but speedup divides the input out — the curve rises as
  // the tenant's VM learns, then holds steady.  Deterministic; the
  // steady-state gates classify and interval-compare it against the
  // committed baseline.
  benchjson::BenchSeries TenantSeries;
  TenantSeries.Name = "fleet.tenant0.speedup_by_run";
  TenantSeries.Unit = "speedup";
  TenantSeries.LowerIsBetter = false;
  {
    FleetResult Solo = FleetRunner(fleetConfig(1, 1, 24, "")).run();
    for (const harness::RunMetrics &R : Solo.Tenants[0].Result.Runs)
      TenantSeries.Samples.push_back(R.SpeedupVsDefault);
  }
  std::vector<benchjson::BenchSeries> Series = {TenantSeries};

  if (!benchjson::writeBenchJson(JsonPath, "fleet", 20090301,
                                 Metrics.snapshot(), nullptr, &Series))
    return 2;
  return Failures ? 1 : 0;
}
