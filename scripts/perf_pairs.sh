#!/usr/bin/env bash
# Compares two commits on perfbench workloads: the "Comparing two
# commits" procedure of perfbench/README.md as one command.
#
#   scripts/perf_pairs.sh <parent-rev> <workload|all> [change-rev] [pairs] [seed]
#
# Exports both revisions with `git archive` into target/perf-pairs/<sha>
# (change-rev defaults to HEAD, pairs to 10, seed to 2024) and builds
# each export's perfbench offline; building inside the exports leaves
# the checkout's perfbench/Cargo.lock alone. Then runs pairs of parent
# and change at the seed for BENCHMARK.json's run_seconds, alternating
# which side runs first, and prints for every end-to-end metric each
# side's quartiles and median, the ratio of the medians (change /
# parent) and how many pairs the change won, followed by each side's
# results digests. `all` does this for every BENCHMARK.json workload in turn,
# one block each, on the same two builds. Every run's output stays in
# target/perf-pairs/runs/<workload>/. Exits 1 if any run reports
# failed > 0 (or no result line) or the two sides' results digests
# differ, 2 on a usage error. Both sides inherit this script's
# environment, so allocator settings such as MALLOC_MMAP_THRESHOLD_ and
# MALLOC_TRIM_THRESHOLD_ can be pinned on both at once to attribute a
# move to heap trimming.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 <parent-rev> <workload|all> [change-rev] [pairs] [seed]" >&2
  exit 2
}
[ $# -ge 2 ] && [ $# -le 5 ] || usage
parent_rev=$1
workload=$2
change_rev=${3:-HEAD}
pairs=${4:-10}
seed=${5:-2024}
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac

seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# "name:better" for every end-to-end metric (the entries with a bound).
metrics=$(grep '"bound"' BENCHMARK.json |
  sed 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1:\2/')
root=target/perf-pairs
workloads=$workload
if [ "$workload" = all ]; then
  # The workload entries are the ones with a "why".
  workloads=$(grep '"why"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*/\1/')
fi

# Exports <rev> once per commit, builds its perfbench and prints the
# export's directory.
prepare() {
  local sha dir
  sha=$(git rev-parse --verify "$1^{commit}")
  dir=$root/$sha
  if [ ! -f "$dir/.exported" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$sha" | tar -x -C "$dir"
    touch "$dir/.exported"
  fi
  if ! (cd "$dir" && cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml) > "$dir/.build.log" 2>&1; then
    cat "$dir/.build.log" >&2
    return 1
  fi
  echo "$dir"
}

parent_dir=$(prepare "$parent_rev")
change_dir=$(prepare "$change_rev")
status=0
parent_short=$(git rev-parse --short "$parent_rev^{commit}")
change_short=$(git rev-parse --short "$change_rev^{commit}")

# The values of metric $2 in side $3's runs under directory $1, one per
# line in pair order.
values() {
  for i in $(seq 1 "$pairs"); do
    awk -v m="$2" '$1 == m && $2 == "=" { print $3 }' "$1/$3-$i.txt"
  done
}
# The first quartile, median and third quartile of the values on
# standard input, interpolated between order statistics.
quartiles() {
  sort -g | awk '{ v[NR] = $1 }
    function q(p, h, i) { h = (NR - 1) * p + 1; i = int(h)
      return (i < NR) ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[NR] }
    END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}
# The distinct results digests of side $2's runs under directory $1.
digests() { sed -n 's/.*results-digest \([0-9a-f]*\).*/\1/p' "$1"/"$2"-*.txt | sort -u | tr '\n' ' '; }

for workload in $workloads; do
  runs=$root/runs/$workload
  rm -rf "$runs"
  mkdir -p "$runs"

  for i in $(seq 1 "$pairs"); do
    order="parent change"
    if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
    for side in $order; do
      dir=${side}_dir
      out=$runs/$side-$i.txt
      (cd "${!dir}" && cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds") > "$out" 2>&1 || true
      n=$(tail -n 1 "$out" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p')
      if [ -z "$n" ] || [ "$n" -gt 0 ]; then
        echo "$workload pair $i $side: failed=${n:-no result line} (see $out)" >&2
        status=1
      fi
    done
    echo "$workload pair $i/$pairs done" >&2
  done

  echo "workload $workload, $pairs pairs of ${seconds}-s runs, seed $seed"
  echo "parent $parent_short, change $change_short"
  row='%-12s %-6s | %10s %10s %10s | %10s %10s %10s | %7s %5s\n'
  # shellcheck disable=SC2059
  printf "$row" metric better p.q1 p.median p.q3 c.q1 c.median c.q3 ratio won
  for entry in $metrics; do
    name=${entry%%:*}
    better=${entry#*:}
    parent=$(values "$runs" "$name" parent)
    change=$(values "$runs" "$name" change)
    read -r pq1 pm pq3 <<< "$(quartiles <<< "$parent")"
    read -r cq1 cm cq3 <<< "$(quartiles <<< "$change")"
    ratio=$(awk -v p="$pm" -v c="$cm" 'BEGIN { if (p != 0) printf "%.4f", c / p; else print "-" }')
    wins=$(paste <(echo "$parent") <(echo "$change") | awk -v b="$better" \
      '{ w += (b == "higher") ? $2 > $1 : $2 < $1 } END { print w + 0 }')
    # shellcheck disable=SC2059
    printf "$row" "$name" "$better" "$pq1" "$pm" "$pq3" "$cq1" "$cm" "$cq3" "$ratio" "$wins/$pairs"
  done

  parent_digests=$(digests "$runs" parent)
  change_digests=$(digests "$runs" change)
  echo "results-digest parent: $parent_digests"
  echo "results-digest change: $change_digests"
  if [ "$parent_digests" != "$change_digests" ]; then
    echo "results-digest MISMATCH"
    status=1
  fi
  echo
done
exit "$status"
