#!/usr/bin/env bash
# Benchmark driver around the avfs-bench harness.
#
#   scripts/bench.sh                  run the throughput harness, print
#                                     the report
#   scripts/bench.sh --write          same, then refresh the committed
#                                     baseline at the repo root
#   scripts/bench.sh --smoke          throughput harness only, quick single
#                                     repetition, gated against the baseline:
#                                     any throughput metric more than 20%
#                                     below the baseline fails the run
#
# The baseline is the highest-numbered BENCH_<n>.json at the repo root.
#   scripts/bench.sh --alloc-gate     counting-allocator steady-state gate:
#                                     asserts zero allocations per event
#   scripts/bench.sh --compare FILE   A/B mode: measure, then print
#                                     per-metric deltas vs FILE (a report
#                                     written earlier with --write)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
latest="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)"

case "$mode" in
  --smoke)
    echo "==> throughput smoke gate (vs ${latest:-no baseline}, 20% tolerance)"
    cargo bench -q -p avfs-bench --bench throughput -- --smoke
    ;;
  --alloc-gate)
    echo "==> counting-allocator steady-state gate"
    cargo bench -q -p avfs-bench --bench alloc_gate
    ;;
  --compare)
    baseline="${2:?usage: scripts/bench.sh --compare <baseline.json>}"
    echo "==> throughput A/B vs $baseline"
    cargo bench -q -p avfs-bench --bench throughput -- --compare "$baseline"
    ;;
  --write)
    echo "==> throughput harness (writing ${latest:-BENCH_1.json})"
    cargo bench -q -p avfs-bench --bench throughput -- --write
    ;;
  "")
    echo "==> throughput harness"
    cargo bench -q -p avfs-bench --bench throughput
    ;;
  *)
    echo "usage: scripts/bench.sh [--write|--smoke|--alloc-gate|--compare <baseline.json>]" >&2
    exit 2
    ;;
esac
