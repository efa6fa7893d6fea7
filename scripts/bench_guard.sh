#!/usr/bin/env bash
# bench_guard.sh — decisions/sec/core regression guard.
#
# Runs BenchmarkServe_DecisionThroughput (loopback TCP, one connection
# per core) and compares the batched configurations' throughput against
# the row-at-a-time batch1 configuration — the seed serving shape —
# measured in the same run. Guarding the speedup ratio instead of raw
# decisions/s keeps the check meaningful on any runner hardware: a slow
# CI box slows numerator and denominator together.
#
# Against testdata/bench_baseline.json it enforces:
#   1. coalesced batches of 8 stay >= min_speedup_float64_batch8
#      (the acceptance floor, never relaxed), and
#   2. every tracked speedup stays within `tolerance` (default 10%) of
#      its committed baseline_* value.
#
# Usage:
#   scripts/bench_guard.sh            # check against the baseline
#   scripts/bench_guard.sh -update    # rewrite baselines from this run
#   BENCHTIME=2s scripts/bench_guard.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=testdata/bench_baseline.json
BENCHTIME=${BENCHTIME:-1s}

out=$(go test -run '^$' -bench 'BenchmarkServe_DecisionThroughput' -benchtime "$BENCHTIME" .)
echo "$out"
echo

# rate <sub-benchmark regex>: the decisions/s metric of one sub-benchmark.
rate() {
  echo "$out" | awk -v name="$1" '$1 ~ name {
    for (i = 1; i < NF; i++) if ($(i+1) == "decisions/s") { print $i; exit }
  }'
}

# jget <key>: a numeric field from the flat baseline JSON.
jget() {
  sed -n 's/.*"'"$1"'": *\([0-9.]*\).*/\1/p' "$BASELINE" | head -1
}

# Sub-benchmark names carry a -GOMAXPROCS suffix only on multi-proc
# runs, so accept both forms.
b1=$(rate '/batch1(-[0-9]+)?$')
b8=$(rate '/batch8(-[0-9]+)?$')
b64=$(rate '/batch64(-[0-9]+)?$')
for v in "$b1" "$b8" "$b64"; do
  if [ -z "$v" ]; then
    echo "bench_guard: missing decisions/s metric in benchmark output" >&2
    exit 1
  fi
done

speedup() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.2f", a / b }'; }
s8=$(speedup "$b8" "$b1")
s64=$(speedup "$b64" "$b1")

echo "bench_guard: row-at-a-time float64/batch1 = $b1 decisions/s/core"
echo "bench_guard: speedup float64/batch8  = ${s8}x"
echo "bench_guard: speedup float64/batch64 = ${s64}x"

if [ "${1:-}" = "-update" ]; then
  tmp=$(mktemp)
  sed -e 's/\("baseline_speedup_float64_batch8": *\)[0-9.]*/\1'"$s8"'/' \
      -e 's/\("baseline_speedup_float64_batch64": *\)[0-9.]*/\1'"$s64"'/' \
      "$BASELINE" > "$tmp"
  mv "$tmp" "$BASELINE"
  echo "bench_guard: baselines updated in $BASELINE"
  exit 0
fi

min_s8=$(jget min_speedup_float64_batch8)
base_s8=$(jget baseline_speedup_float64_batch8)
base_s64=$(jget baseline_speedup_float64_batch64)
tol=$(jget tolerance)

fail=0
# at_least <label> <current> <floor>
at_least() {
  if ! awk -v c="$2" -v f="$3" 'BEGIN { exit !(c >= f) }'; then
    echo "bench_guard: FAIL: $1 = ${2}x, need >= ${3}x" >&2
    fail=1
  fi
}
floor() { awk -v b="$1" -v t="$2" 'BEGIN { printf "%.2f", b * (1 - t) }'; }

at_least "float64/batch8 acceptance speedup" "$s8" "$min_s8"
at_least "float64/batch8 speedup vs baseline" "$s8" "$(floor "$base_s8" "$tol")"
at_least "float64/batch64 speedup vs baseline" "$s64" "$(floor "$base_s64" "$tol")"

if [ "$fail" -ne 0 ]; then
  echo "bench_guard: decisions/sec/core regressed >$(awk -v t="$tol" 'BEGIN { printf "%.0f", t*100 }')% vs $BASELINE" >&2
  exit 1
fi
echo "bench_guard: OK"
