#!/usr/bin/env python3
"""Host-clock benchmark of the evolvable VM.

    python3 perfbench/run.py --workload paper-mix|long-lane|serve-open \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (the EVM library, the
evm-served daemon and the C++ benchmark program) into .bench_build/perfbench,
runs the benchmark program on the workload, checks every run and response
against the golden digests in perfbench/golden/, prints a table of every
metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced pass and reports the per-layer metrics.

    python3 perfbench/run.py --record-golden   # re-record perfbench/golden/
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
GOLDEN_DIR = os.path.join(HERE, "golden")
WORKLOADS = ("paper-mix", "long-lane", "serve-open")

# The seed selects one of this many input variants; the golden digests
# cover each of them.
GOLDEN_VARIANTS = 16
# A serve-open run is invalid when its generator sends this late (p95).
GEN_LATE_LIMIT_MS = 5.0
# Budget of one run after the build: the benchmark program is stopped past it.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("error: " + msg)
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build and run the benchmark program
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "tools", "evm-served",
                                        "evm-served.cpp"))):
        fail("the EVM sources (src/, tools/evm-served/) are not next to "
             "perfbench/; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return (os.path.abspath(os.path.join(BUILD_DIR, "evm-perfbench")),
            os.path.abspath(os.path.join(BUILD_DIR, "evm-served")))


def run_bench(bench_bin, served, workload, variant, seconds, trace, deadline,
               golden=False):
    """Runs the benchmark program in a fresh work directory; returns its raw JSON."""
    work = os.path.abspath(os.path.join(
        BUILD_ROOT, "work-%s-%d-%d" % (workload, os.getpid(), variant)))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [bench_bin, workload, "--seed", str(variant), "--seconds",
           str(seconds), "--trace", str(trace), "--out", "raw.json",
           "--served", served]
    if golden:
        cmd.append("--golden")
    # A new process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=work, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGTERM)
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("benchmark program exceeded the run budget")
    try:
        if rc != 0:
            try:
                with open(os.path.join(work, "daemon.log")) as f:
                    log("daemon.log:\n" + f.read()[-2000:])
            except OSError:
                pass
            fail("benchmark program exited with %d" % rc)
        with open(os.path.join(work, "raw.json")) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------

def golden_path(workload):
    return os.path.join(GOLDEN_DIR, workload + ".json")


def load_golden(workload, variant):
    try:
        with open(golden_path(workload)) as f:
            doc = json.load(f)
    except OSError:
        fail("no golden digests for %s (run --record-golden)" % workload)
    lanes = doc["digests"].get(str(variant), {})
    out = {}
    for key, packed in lanes.items():
        order, lane = key.split(":")
        out[(int(order), int(lane))] = bs.split_digests(packed)
    return out


def record_golden(bench_bin, served):
    """Records the digests of every workload and variant: one untimed pass
    each (every unit order of it), four at a time."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    deadline = time.monotonic() + 3600
    for workload in WORKLOADS:
        def one(v):
            raw = run_bench(bench_bin, served, workload, v, 1, 0, deadline,
                             golden=True)
            lanes = {}
            for r in raw["runs"]:
                seq = lanes.setdefault("%d:%d" % (r[0], r[1]), [])
                assert r[2] == len(seq), "golden runs out of order"
                seq.append(bs.digest(r[5], r[6], r[7]) if r[4] else "x" * 8)
            return v, {k: "".join(s) for k, s in sorted(lanes.items())}
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = dict(pool.map(one, range(GOLDEN_VARIANTS)))
        doc = {"workload": workload, "variants": GOLDEN_VARIANTS,
               "digest": "crc32 of 'cycles:used:conf' per run, 8 hex each, "
                         "concatenated per 'unit order:lane'",
               "digests": {str(v): got[v] for v in range(GOLDEN_VARIANTS)}}
        with open(golden_path(workload), "w") as f:
            json.dump(doc, f, indent=0, sort_keys=True)
            f.write("\n")
        log("recorded %s" % golden_path(workload))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

MS = 1e-6  # ns -> ms


class Result:
    def __init__(self):
        self.metrics = {}   # name -> (value, unit)
        self.notes = []     # extra human-readable lines
        self.attempted = 0
        self.failed = 0
        self.valid = True

    def put(self, name, value, unit):
        self.metrics[name] = (float(value), unit)


def check_runs(raw, golden, res):
    """Counts every runOnce as attempted; errors and digest mismatches as
    failed.  Returns the ok rows."""
    ok, observed = [], {}
    orders = raw.get("unit_orders", 1)
    for r in raw["runs"]:
        res.attempted += 1
        if not r[4]:
            res.failed += 1
            continue
        ok.append(r)
        observed.setdefault((r[0] % orders, r[1]), []).append(
            (r[2], bs.digest(r[5], r[6], r[7])))
    mismatches = bs.compare_digests(observed, golden)
    res.failed += mismatches
    res.notes.append("digests: %d runs checked, %d mismatched"
                     % (sum(len(v) for v in observed.values()), mismatches))
    return ok


def check_launches(raw, res):
    for l in raw["launches"]:
        res.attempted += 1
        if not l[8]:
            res.failed += 1


def require_tail(n, what, res):
    if not bs.supports(n, 95):
        res.valid = False
        res.notes.append("INVALID: %d %s samples cannot support p95" % (n, what))


def vm_end_to_end(raw, golden, res):
    ok = check_runs(raw, golden, res)
    check_launches(raw, res)
    times = [r[3] * MS for r in ok]
    require_tail(len(times), "runOnce", res)
    by_unit_lane = {}
    for r in ok:
        by_unit_lane.setdefault((r[0], r[1]), []).append((r[2], r[3] * MS))
    late = {}
    for (_, lane), seq in by_unit_lane.items():
        late.setdefault(lane, []).extend(
            t for _, t in bs.last_tenth(sorted(seq)))
    launches = {}
    for l in raw["launches"]:
        launches.setdefault(l[1], []).append(sum(l[2:8]) * MS)
    res.put("setup_s", bs.median(raw["setup_ns"]) * 1e-9, "s")
    res.put("p50_ms", bs.median(times), "ms")
    res.put("p95_ms", bs.percentile(times, 95), "ms")
    res.put("ops_per_s", len(ok) / (raw["elapsed_ns"] * 1e-9), "1/s")
    res.put("late_p50_ms", bs.lane_median_geomean(late), "ms")
    res.put("launch_p50_ms", bs.lane_median_geomean(launches), "ms")
    res.put("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MB")
    res.notes.append("samples: %d runOnce over %d units, %d launches, "
                     "%d late-tenth runs, %d set-ups"
                     % (len(times), raw["units"], len(raw["launches"]),
                        sum(len(v) for v in late.values()),
                        len(raw["setup_ns"])))


def serve_rows(raw, golden, res):
    """Checks the daemon's responses; returns per-request
    (lane, due, send, recv, ok) rows."""
    observed = {}
    for c in raw["creations"]:
        res.attempted += 1
        if c[3] != 0:
            res.failed += 1
            continue
        observed.setdefault((0, c[1]), []).append(
            (0, bs.digest(c[4], c[5], c[6])))
    pos = {}
    rows = []
    for r in raw["requests"]:
        lane = r[0]
        pos[lane] = pos.get(lane, 0) + 1
        res.attempted += 1
        ok = r[4] == 0 and r[3] >= 0
        if ok:
            observed.setdefault((0, lane), []).append(
                (pos[lane], bs.digest(r[5], r[6], r[7])))
        else:
            res.failed += 1
        rows.append((lane, r[1], r[2], r[3], ok))
    mismatches = bs.compare_digests(observed, golden)
    res.failed += mismatches
    for code in raw["daemon_exits"]:
        res.attempted += 1
        if code != 0:
            res.failed += 1
    res.notes.append("digests: %d responses checked, %d mismatched"
                     % (sum(len(v) for v in observed.values()), mismatches))
    return rows


def generator_late(rows, res):
    late = [(send - due) * MS for _, due, send, _, _ in rows if send >= 0]
    p95 = bs.percentile(late, 95)
    if p95 > GEN_LATE_LIMIT_MS:
        res.valid = False
        res.notes.append("INVALID: the generator fell behind (late p95 "
                         "%.3f ms > %.1f ms)" % (p95, GEN_LATE_LIMIT_MS))
    return p95


def serve_end_to_end(raw, golden, res):
    rows = serve_rows(raw, golden, res)
    # A request without an ok response misses any latency limit.
    give_up = max(r[1] for r in rows) + 30e9
    lat = bs.latencies_from_due(
        [(due, recv if ok else -1) for _, due, _, recv, ok in rows], give_up)
    lat = [x * MS for x in lat]
    require_tail(len(lat), "request", res)
    by_lane = {}
    for (lane, *_), x in zip(rows, lat):
        by_lane.setdefault(lane, []).append(x)
    late = {lane: bs.last_tenth(seq) for lane, seq in by_lane.items()}
    ok_recv = [recv for _, _, _, recv, ok in rows if ok]
    span = (max(ok_recv) - min(r[1] for r in rows)) * 1e-9 if ok_recv else 1
    generator_late(rows, res)
    res.put("setup_s", bs.median(raw["setup_ns"]) * 1e-9, "s")
    res.put("p50_ms", bs.median(lat), "ms")
    res.put("p95_ms", bs.percentile(lat, 95), "ms")
    res.put("ops_per_s", len(ok_recv) / span, "1/s")
    res.put("late_p50_ms", bs.lane_median_geomean(late), "ms")
    # Each set-up's daemon creates every lane with its first request: each
    # lane's median creation round trip, then the geometric mean across
    # lanes, so the four lanes' host noise averages out.
    creations = {}
    for c in raw["creations"]:
        creations.setdefault(c[1], []).append(c[2] * MS)
    res.put("launch_p50_ms", bs.lane_median_geomean(creations), "ms")
    res.put("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "MB")
    res.notes.append("samples: %d requests at %g/s open loop, %d lane "
                     "creations, %d set-ups"
                     % (len(lat), raw["rate"], len(raw["creations"]),
                        len(raw["setup_ns"])))


def stats_metric(stats, name):
    for m in (stats or {}).get("metrics", []):
        if m["name"] == name:
            return m
    return None


def traced_layers(raw, res, units):
    """Per-layer metrics from the traced runOnce pass (every workload)."""
    tr = raw["traces"]
    runs = len(tr)
    run_ns = sum(t[3] for t in tr)
    xicl = [t[4] for t in tr]
    pred = [t[5] for t in tr if t[5] >= 0]
    rebuild = [t[6] for t in tr]
    jit = [t[8] for t in tr]
    exec_ns = sum(bs.self_time(t[3], [t[4], t[5], t[6], t[8]]) for t in tr)
    vcycles = sum(t[10] for t in tr)
    compiled = sum(t[11] for t in tr)
    by_level = sum(t[12] for t in tr)
    probe_ns = sum(t[14] for t in tr)
    per_unit = 1.0 / units
    res.put("evolve.run_once.ms", run_ns * MS * per_unit, "ms")
    res.put("evolve.run_once.count", runs * per_unit, "count")
    res.put("evolve.used_prediction_frac", sum(t[13] for t in tr) / runs,
            "fraction")
    res.put("vm.exec.ms", exec_ns * MS * per_unit, "ms")
    res.put("vm.vcycles", vcycles * per_unit, "count")
    res.put("vm.ns_per_vcycle", exec_ns / vcycles, "ns")
    res.put("vm.compiled_vcycle_frac", compiled / by_level, "fraction")
    res.put("jit.compile.ms", sum(jit) * MS * per_unit, "ms")
    res.put("jit.compiles", sum(t[9] for t in tr) * per_unit, "count")
    res.put("ml.rebuild.ms", sum(rebuild) * MS * per_unit, "ms")
    res.put("ml.rebuild.count", sum(t[18] for t in tr) * per_unit, "count")
    res.put("ml.examples_scanned", sum(t[7] for t in tr) * per_unit, "count")
    res.put("ml.predict.us", (sum(pred) / len(pred) if pred else 0) * 1e-3,
            "us")
    res.put("xicl.build_fvector.us", sum(xicl) / runs * 1e-3, "us")
    res.put("obs.overhead_frac", probe_ns / run_ns - 1.0, "fraction")

    la = raw["launches"]
    loads = [l[2] for l in la] + [l[4] for l in la]
    res.put("store.load.ms", bs.median(loads) * MS, "ms")
    res.put("store.warm_start.ms", bs.median([l[3] for l in la]) * MS, "ms")
    res.put("store.checkpoint.ms", bs.median([l[5] for l in la]) * MS, "ms")
    res.put("store.merge.ms", bs.median([l[6] for l in la]) * MS, "ms")
    res.put("store.save.ms", bs.median([l[7] for l in la]) * MS, "ms")
    res.put("store.file_bytes", bs.median([l[9] for l in la]), "bytes")

    # Correctness of the traced pass: the observability identity, the
    # shadow ModelBuilder, the independent translator.
    probe_bad = sum(1 for t in tr if not t[15])
    fv_bad = sum(1 for t in tr if not t[16])
    res.attempted += runs + raw["tree_checks"]
    res.failed += probe_bad + fv_bad + raw["tree_mismatches"]
    res.notes.append("traced: %d runs; probe VM (profiler+ledger) mismatches "
                     "%d; feature-vector mismatches %d; shadow trees equal "
                     "at %d of %d launch ends"
                     % (runs, probe_bad, fv_bad,
                        raw["tree_checks"] - raw["tree_mismatches"],
                        raw["tree_checks"]))
    share = {name: res.metrics[name][0] / res.metrics["evolve.run_once.ms"][0]
             for name in ("vm.exec.ms", "ml.rebuild.ms", "jit.compile.ms")}
    res.notes.append("shares of evolve.run_once.ms: vm.exec %.1f%%, "
                     "ml.rebuild %.1f%%, jit.compile %.1f%%, xicl %.2f%%"
                     % (100 * share["vm.exec.ms"], 100 * share["ml.rebuild.ms"],
                        100 * share["jit.compile.ms"],
                        100 * sum(xicl) / run_ns))
    return share


# What each workload was chosen for, as shares of evolve.run_once.ms.
CHOSEN_FOR = {
    "paper-mix": ("vm-bound: ml.rebuild < 2% and vm.exec > 90%",
                  lambda s: s["ml.rebuild.ms"] < 0.02 and s["vm.exec.ms"] > 0.9),
    "long-lane": ("ml-bound: ml.rebuild > 25%",
                  lambda s: s["ml.rebuild.ms"] > 0.25),
}


SERVER_LAYERS = ("server.latency_p50_ms", "server.transport_p50_ms",
                 "server.batch_size_mean", "server.flush_deadline_frac",
                 "server.rejected", "serve.exec_p50_ms", "gen.late_p95_ms")


def server_layers(raw, res):
    stats = raw.get("stats")
    lat = stats_metric(stats, "server.latency.us")
    server_p50 = lat["p50"] * 1e-3 if lat else 0.0
    rows = [(r[0], r[1], r[2], r[3], r[4] == 0) for r in raw["requests"]]
    client = [(recv - send) * MS for _, _, send, recv, ok in rows if ok]
    batch = stats_metric(stats, "server.batch.size")
    flush = {k: (stats_metric(stats, "server.flush." + k) or {}).get("value", 0)
             for k in ("size", "deadline", "drain")}
    rejected = sum(m["value"] for m in (stats or {}).get("metrics", [])
                   if m["name"].startswith("server.rejected."))
    res.put("server.latency_p50_ms", server_p50, "ms")
    res.put("server.transport_p50_ms",
            bs.self_time(bs.median(client), [server_p50]), "ms")
    res.put("server.batch_size_mean",
            batch["sum"] / batch["count"] if batch and batch["count"] else 0,
            "count")
    total = sum(flush.values())
    res.put("server.flush_deadline_frac",
            flush["deadline"] / total if total else 0, "fraction")
    res.put("server.rejected", rejected, "count")
    res.put("serve.exec_p50_ms", bs.median([r[3] * MS for r in raw["runs"]
                                            if r[4]]), "ms")
    res.put("gen.late_p95_ms", generator_late(rows, res), "ms")


def compute(raw, workload, trace, golden):
    res = Result()
    if workload == "serve-open":
        if trace:
            serve_rows(raw, golden, res)
            check_runs(raw, golden, res)
            check_launches(raw, res)
            traced_layers(raw, res, 1)
            server_layers(raw, res)
        else:
            serve_end_to_end(raw, golden, res)
    elif trace:
        check_runs(raw, golden, res)
        check_launches(raw, res)
        share = traced_layers(raw, res, raw["units"])
        what, holds = CHOSEN_FOR[workload]
        res.notes.append("chosen for %s: %s" % (what, "yes" if holds(share)
                                                else "NO"))
        for name in SERVER_LAYERS:
            res.put(name, 0, "ms" if name.endswith("_ms") else
                    "fraction" if name.endswith("_frac") else "count")
    else:
        vm_end_to_end(raw, golden, res)
    return res


# The conventional names of the end-to-end metrics on each workload, printed
# beside the generic names BENCHMARK.json uses.
ALIASES = {
    "p50_ms": ("run_p50_ms", "req_p50_ms"),
    "p95_ms": ("run_p95_ms", "req_p95_ms"),
    "ops_per_s": ("runs_per_s", "responses_per_s"),
    "late_p50_ms": ("late_run_p50_ms", "late_req_p50_ms"),
    "launch_p50_ms": ("launch_p50_ms", "lane_create_p50_ms"),
}


def load_benchmark_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except OSError:
        return None


def report(res, workload, trace, seed):
    spec = load_benchmark_spec()
    key = "per_layer" if trace else "end_to_end"
    names = ([m["name"] for m in spec[key]] if spec else
             sorted(res.metrics))
    print("perfbench %s seed=%d trace=%d" % (workload, seed, trace))
    for name in names:
        if name not in res.metrics:
            fail("metric %s was not computed" % name)
        v, unit = res.metrics[name]
        alias = ALIASES.get(name, (name, name))[workload == "serve-open"]
        label = name if alias == name else "%s (%s)" % (name, alias)
        print("  %-36s %14.6g %s" % (label, v, unit))
    failed_frac = res.failed / res.attempted if res.attempted else 1.0
    print("  %-36s %14.6g %s" % ("failed_frac", failed_frac, "fraction"))
    for n in res.notes:
        print("  " + n)
    out = {"correct": res.valid and res.failed == 0,
           "attempted": res.attempted, "failed": res.failed,
           "metrics": {n: {"value": res.metrics[n][0],
                           "unit": res.metrics[n][1]} for n in names}}
    print(json.dumps(out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    bench_bin, served = build()
    # The budget starts after the build: only a checkout's first run
    # compiles anything.
    start = time.monotonic()
    if args.record_golden:
        record_golden(bench_bin, served)
        return
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be non-negative")
    variant = args.seed % GOLDEN_VARIANTS
    golden = load_golden(args.workload, variant)
    raw = run_bench(bench_bin, served, args.workload, variant, args.seconds,
                     args.trace, start + RUN_BUDGET_S)
    report(compute(raw, args.workload, args.trace, golden), args.workload,
           args.trace, args.seed)


if __name__ == "__main__":
    main()
