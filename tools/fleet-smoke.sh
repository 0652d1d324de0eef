#!/usr/bin/env bash
# Threads-matrix smoke for fleet mode: runs the same fleet at several
# --threads values and fails unless every aggregate JSON — and every
# decision-ledger JSONL — is byte-identical to the T=1 document.  Meant
# for the sanitizer lanes —
#
#   cmake -B build-tsan -S . -DEVM_SANITIZE=thread
#   cmake --build build-tsan -j
#   tools/fleet-smoke.sh build-tsan
#
# — where it drives the real evm_cli binary (tenant threads, shard
# checkpoints, global-store folds, per-tenant ledgers) through TSan, but
# it is just as useful as a quick local determinism check on a plain
# build.
#
#   tools/fleet-smoke.sh [BUILD_DIR] [THREADS...]
#
#   BUILD_DIR  CMake build tree holding examples/evm_cli (default: build)
#   THREADS    thread counts to sweep (default: 1 2 4 8)
set -euo pipefail

BUILD_DIR="${1:-build}"
if [ "$#" -gt 0 ]; then
  shift
fi
THREADS=("$@")
if [ "${#THREADS[@]}" -eq 0 ]; then
  THREADS=(1 2 4 8)
fi

CLI="$BUILD_DIR/examples/evm_cli"
if [ ! -x "$CLI" ]; then
  echo "error: $CLI not found (build first: cmake --build \"$BUILD_DIR\")" >&2
  exit 2
fi

WORK="$(mktemp -d /tmp/fleet-smoke.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

BASELINE=""
BASELINE_DECISIONS=""
for T in "${THREADS[@]}"; do
  OUT="$WORK/t$T.json"
  DECISIONS="$WORK/t$T.decisions.jsonl"
  # Fresh shard dir per thread count: launch-vs-launch, not warm-start.
  # Fail the whole matrix on the first broken cell, with its stderr.
  if ! "$CLI" --fleet 6 --threads "$T" --fleet-runs 5 --merge-every 2 \
      --shard-dir "$WORK/shards-t$T" --seed 20090301 \
      --decisions-out "$DECISIONS" \
      > "$OUT" 2> "$WORK/t$T.err"; then
    echo "FAIL: evm_cli exited nonzero at T=$T" >&2
    cat "$WORK/t$T.err" >&2
    exit 1
  fi
  if [ -z "$BASELINE" ]; then
    BASELINE="$OUT"
    BASELINE_DECISIONS="$DECISIONS"
    echo "T=$T: baseline ($(wc -c < "$OUT") bytes aggregate," \
      "$(wc -c < "$DECISIONS") bytes ledger)"
    continue
  fi
  if ! cmp -s "$BASELINE" "$OUT"; then
    echo "FAIL: aggregate JSON at T=$T differs from T=${THREADS[0]}" >&2
    cmp "$BASELINE" "$OUT" >&2 || true
    exit 1
  fi
  if ! cmp -s "$BASELINE_DECISIONS" "$DECISIONS"; then
    echo "FAIL: decision ledger at T=$T differs from T=${THREADS[0]}" >&2
    cmp "$BASELINE_DECISIONS" "$DECISIONS" >&2 || true
    exit 1
  fi
  echo "T=$T: byte-identical (aggregate + ledger)"
done
echo "fleet threads-matrix smoke: OK (${THREADS[*]})"

# Daemon smoke cell: boot the real evm-served, drive it with evm_cli
# --connect, SIGTERM it, and require a clean graceful drain — exit 0 and a
# final global store that evm-store validate accepts.  Under the TSan lane
# this exercises the whole serving stack (reader threads, lane FIFOs,
# gateway folds) against the race detector.
SERVED="$BUILD_DIR/tools/evm-served"
STORE_TOOL="$BUILD_DIR/tools/evm-store"
if [ ! -x "$SERVED" ] || [ ! -x "$STORE_TOOL" ]; then
  echo "note: evm-served or evm-store not built, skipping daemon smoke"
  exit 0
fi

SOCK="$WORK/served.sock"
SERVE_DIR="$WORK/served-store"
"$SERVED" --socket "$SOCK" --store-dir "$SERVE_DIR" \
  --decisions-out "$WORK/served.decisions.jsonl" \
  > "$WORK/served.log" 2>&1 &
SERVED_PID=$!

# Readiness signal: the socket file exists once start() returns.
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$SERVED_PID" 2>/dev/null || {
    echo "FAIL: evm-served died before binding $SOCK" >&2
    cat "$WORK/served.log" >&2
    exit 1
  }
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "FAIL: $SOCK never appeared" >&2; exit 1; }

if ! "$CLI" --connect "$SOCK" --app route --input-order 0,1,2,3,0,1 \
    > "$WORK/served.client.txt" 2> "$WORK/served.client.err"; then
  echo "FAIL: evm_cli --connect against evm-served exited nonzero" >&2
  cat "$WORK/served.client.err" >&2
  kill -9 "$SERVED_PID" 2>/dev/null || true
  exit 1
fi

# Graceful drain: SIGTERM must complete in-flight work, fold the final
# checkpoint, and exit 0.
kill -TERM "$SERVED_PID"
SERVED_RC=0
wait "$SERVED_PID" || SERVED_RC=$?
if [ "$SERVED_RC" -ne 0 ]; then
  echo "FAIL: evm-served drain exited $SERVED_RC" >&2
  cat "$WORK/served.log" >&2
  exit 1
fi

# The drain-time fold's global store must be clean and canonical.
# (Gateway filenames sanitize lane ids: app "route" -> global-route.store.)
if ! "$STORE_TOOL" validate "$SERVE_DIR/global-route.store" \
    > "$WORK/served.validate.txt"; then
  echo "FAIL: evm-store validate rejects the drain checkpoint" >&2
  cat "$WORK/served.validate.txt" >&2
  exit 1
fi
echo "daemon smoke: OK ($(tail -n1 "$WORK/served.validate.txt"))"
