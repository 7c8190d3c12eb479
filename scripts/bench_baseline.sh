#!/bin/sh
# Pins the performance baseline: builds the release bench bins, then runs
# `perf_baseline`, which times every sweep-shaped bin (QA_THREADS=1 vs the
# full thread budget) plus the micro-bench suite and writes
# bench_results/perf_baseline.json. With a pinned reference committed at
# bench_results/pinned/perf_baseline.json, `--check` diffs the current
# micro suite against it and fails on any >3x regression, or when the
# metrics-only 500-node federation case runs slower than 2x its
# unobserved twin in the same run.
#
# Usage:
#   scripts/bench_baseline.sh            # honours QA_SCALE / QA_BENCH_SECONDS
#   scripts/bench_baseline.sh --quick    # CI smoke: ci scale, 0.05s/case micro budget
#   scripts/bench_baseline.sh --check    # gate against the committed pinned baseline
set -eu
cd "$(dirname "$0")/.."

PINNED=bench_results/pinned/perf_baseline.json

# Generated bench_results/*.json must never be committed: only the pinned
# reference under bench_results/pinned/ is tracked. A tracked generated
# artifact would silently shadow fresh runs in diffs and re-pin noise, so
# refuse to run until it is removed from the index.
TRACKED_GENERATED=$(git ls-files 'bench_results/*.json' | grep -v '^bench_results/pinned/' || true)
if [ -n "$TRACKED_GENERATED" ]; then
  echo "error: generated bench artifacts are tracked by git:" >&2
  echo "$TRACKED_GENERATED" | sed 's/^/  /' >&2
  echo "remove them (git rm --cached <file>) — only bench_results/pinned/ is committed" >&2
  exit 1
fi

case "${1:-}" in
  --quick)
    export QA_SCALE=ci
    export QA_BENCH_SECONDS=0.05
    ;;
  --check)
    # A longer per-case budget than --quick: the check statistic is the
    # per-batch minimum, and a few extra batches keep runner noise from
    # tripping the (already loose) 3x tolerance.
    export QA_SCALE=ci
    export QA_BENCH_SECONDS="${QA_BENCH_SECONDS:-0.2}"
    cargo build --release -p qa-bench
    exec ./target/release/perf_baseline --check-against "$PINNED"
    ;;
  *)
    export QA_SCALE="${QA_SCALE:-ci}"
    export QA_BENCH_SECONDS="${QA_BENCH_SECONDS:-1}"
    ;;
esac

cargo build --release -p qa-bench
./target/release/perf_baseline
