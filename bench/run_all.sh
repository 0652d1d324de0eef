#!/bin/sh
# Runs every bench binary with --json and aggregates the per-bench
# documents into one BENCH_results.json:
#
#   bench/run_all.sh [--check] [BUILD_DIR] [OUT_DIR]
#
#   BUILD_DIR  CMake build tree holding bench/ binaries (default: build)
#   OUT_DIR    where per-bench JSON and BENCH_results.json land
#              (default: BUILD_DIR/bench-results)
#   --check    after aggregating, print the steady-state series report
#              (tools/evm-warmup) and diff against the committed baseline
#              (BENCH_results.json at the repo root) with
#              tools/bench-compare; exits nonzero on regression
#
# The aggregate embeds a "provenance" object (git SHA, compiler, build
# type, host, cores, timestamp) which bench-compare prints in its header;
# provenance never gates, it only records what was measured where.
#
# FULL=1 additionally runs fig10 over all workloads and the JIT level
# calibration (bench_jit_levels); the default set finishes in a few
# minutes.  Every bench here runs on the virtual clock except bench_fleet's
# thread-scaling speedup; host time end to end is perfbench's job
# (BENCHMARK.json).
set -eu

SCRIPT_DIR="$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)"
REPO_DIR="$(dirname -- "$SCRIPT_DIR")"

CHECK=0
if [ "${1:-}" = "--check" ]; then
  CHECK=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$BUILD_DIR/bench-results}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found (build first: cmake --build $BUILD_DIR)" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

# Every bench binary is bench_<name>.  Everything under "benches" is
# byte-stable run to run except bench_fleet's speedup gauge; the
# "provenance" header varies by design.
BENCHES="table1 fig8 fig9 overhead sensitivity ablation crossrun fleet
openworld serve"
if [ "${FULL:-0}" = "1" ]; then
  BENCHES="$BENCHES fig10 jit_levels"
else
  echo "(FULL=1 adds fig10 and jit_levels)"
fi

for Name in $BENCHES; do
  echo "== $Name (bench_$Name) =="
  "$BENCH_DIR/bench_$Name" --json="$OUT_DIR/$Name.json" > "$OUT_DIR/$Name.txt"
done

# Provenance: recorded in the aggregate and echoed by bench-compare's
# header; never gated (timestamps and hostnames differ by design).
GIT_SHA="$(git -C "$REPO_DIR" rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=""
if [ -n "$(git -C "$REPO_DIR" status --porcelain 2>/dev/null)" ]; then
  GIT_DIRTY="-dirty"
fi
CACHE="$BUILD_DIR/CMakeCache.txt"
cache_var() {
  [ -f "$CACHE" ] || { echo unknown; return; }
  V="$(sed -n "s/^$1:[A-Z]*=//p" "$CACHE" | head -n1)"
  echo "${V:-unknown}"
}
# Compiler id/version live in CMakeFiles/<ver>/CMakeCXXCompiler.cmake,
# not the cache; fall back to the cached compiler path's basename.
COMPILER_CMAKE="$(ls "$BUILD_DIR"/CMakeFiles/*/CMakeCXXCompiler.cmake 2>/dev/null | head -n1)"
compiler_var() {
  [ -n "$COMPILER_CMAKE" ] || { echo unknown; return; }
  V="$(sed -n "s/^set($1 \"\(.*\)\")\$/\1/p" "$COMPILER_CMAKE" | head -n1)"
  echo "${V:-unknown}"
}
COMPILER_ID="$(compiler_var CMAKE_CXX_COMPILER_ID)"
if [ "$COMPILER_ID" = unknown ] && [ -f "$CACHE" ]; then
  COMPILER_ID="$(basename "$(cache_var CMAKE_CXX_COMPILER)")"
fi
COMPILER_VERSION="$(compiler_var CMAKE_CXX_COMPILER_VERSION)"
BUILD_TYPE="$(cache_var CMAKE_BUILD_TYPE)"
HOST="$(hostname 2>/dev/null || echo unknown)"
CORES="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
PROVENANCE=$(printf '{"git_sha":"%s","compiler":"%s","compiler_version":"%s","build_type":"%s","host":"%s","cores":%s,"timestamp":"%s"}' \
  "$GIT_SHA$GIT_DIRTY" "$COMPILER_ID" "$COMPILER_VERSION" "$BUILD_TYPE" \
  "$HOST" "$CORES" "$STAMP")

# Aggregate: {"provenance":{...},"benches":{"<name>":<per-bench doc>,...}}
RESULTS="$OUT_DIR/BENCH_results.json"
{
  printf '{"provenance":%s,"benches":{' "$PROVENANCE"
  First=1
  for Name in $BENCHES; do
    [ "$First" = 1 ] || printf ','
    First=0
    printf '"%s":' "$Name"
    cat "$OUT_DIR/$Name.json"
  done
  printf '}}\n'
} | tr -d '\n' > "$RESULTS"
echo "" >> "$RESULTS"

echo "wrote $RESULTS"

if [ "$CHECK" = 1 ]; then
  BASELINE="$REPO_DIR/BENCH_results.json"
  if [ ! -f "$BASELINE" ]; then
    echo "error: no committed baseline at $BASELINE" >&2
    exit 2
  fi
  WARMUP="$BUILD_DIR/tools/evm-warmup"
  if [ -x "$WARMUP" ]; then
    echo "== steady-state series report =="
    "$WARMUP" "$RESULTS"
  else
    echo "note: $WARMUP not built, skipping series report"
  fi
  # Decision-ledger analytics: bench_openworld drops a _decisions.jsonl
  # sibling; evm-explain must independently reproduce the suite's drift
  # gates (mispredict exposure <= 0.10, guard fallback >= 0.5) from the
  # records alone.  bench_crossrun's ledger gets the informational report.
  EXPLAIN="$BUILD_DIR/tools/evm-explain"
  if [ -x "$EXPLAIN" ] && [ -f "$OUT_DIR/openworld_decisions.jsonl" ]; then
    echo "== decision-ledger report (evm-explain) =="
    "$EXPLAIN" --strict --drift-run=16 --max-exposure=0.10 \
      --min-fallback=0.5 "$OUT_DIR/openworld_decisions.jsonl"
    if [ -f "$OUT_DIR/crossrun_decisions.jsonl" ]; then
      "$EXPLAIN" "$OUT_DIR/crossrun_decisions.jsonl"
    fi
  else
    echo "note: evm-explain or openworld ledger missing, skipping report"
  fi
  echo "== bench-compare vs $BASELINE =="
  "$REPO_DIR/tools/bench-compare" "$BASELINE" "$RESULTS"
fi
