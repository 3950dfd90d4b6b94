#!/usr/bin/env bash
# Full local gate: formatting, clippy, rustdoc, the avfs-analyze checks
# (domain invariants, source lints, bounded model checking, the
# policy-domain proof, the measured-margin audit, race exploration), the
# test suite, the experiment smokes, and the two hot-path correctness
# gates (null observer overhead; allocations in steady state and on
# churn traffic).
# Speed is measured by the perfbench benchmark (see BENCHMARK.json), not
# here.
# Mirrors what CI would run; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
# The offline proptest stand-in under shims/ is checked by build + tests
# only; clippy gates the real crates. The four warn-level domain lints
# (unwrap/expect/float-cmp/truncating-cast) stay advisory here because the
# avfs-analyze lint ratchet below is their enforcement point.
cargo clippy -q --all-targets \
  -p avfs-sim -p avfs-chip -p avfs-workloads -p avfs-sched \
  -p avfs-core -p avfs-telemetry -p avfs-fleet -p avfs-characterize \
  -p avfs-experiments -p avfs-bench -p avfs-analyze \
  -- -D warnings \
  -A clippy::unwrap_used -A clippy::expect_used \
  -A clippy::float_cmp -A clippy::cast-possible-truncation

echo "==> cargo doc (warnings are errors: no broken or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> avfs-analyze invariants"
cargo run -q -p avfs-analyze -- invariants

echo "==> avfs-analyze lint"
cargo run -q -p avfs-analyze -- lint

echo "==> avfs-analyze model (exhaustive bounded check, depth 6)"
cargo run -q --release -p avfs-analyze -- model --depth 6

echo "==> avfs-analyze prove-policy (exhaustive policy-domain proof)"
cargo run -q --release -p avfs-analyze -- prove-policy

echo "==> avfs-analyze check-margins (measured tables vs hidden ground truth + full-domain proof)"
cargo run -q --release -p avfs-analyze -- check-margins

echo "==> avfs-analyze race (160 schedules, fault-free)"
cargo run -q -p avfs-analyze -- race --schedules 160

echo "==> avfs-analyze race (96 schedules, 10% fault rate)"
cargo run -q -p avfs-analyze -- race --schedules 96 --seed 4195287042 --fault-rate 0.10

echo "==> avfs-analyze fleet (cluster invariants, fencing, exactly-once, same-seed determinism)"
cargo run -q --release -p avfs-analyze -- fleet

echo "==> cargo test"
cargo test -q --workspace

echo "==> resilience smoke soak (seeded fault injection)"
cargo run -q --release -p avfs-experiments --bin exp -- resilience --smoke > /dev/null

echo "==> fleet smoke (cluster eval acceptance + same-seed rerun determinism gate)"
cargo run -q --release -p avfs-experiments --bin exp -- fleet --smoke > /dev/null

echo "==> fleet-resilience smoke (node failures: rate-0 bit-identity, crash drill, exactly-once)"
cargo run -q --release -p avfs-experiments --bin exp -- fleet-resilience --smoke > /dev/null

echo "==> characterize smoke (measured-margin reclaim, drift drill, degradation curve)"
cargo run -q --release -p avfs-experiments --bin exp -- characterize --smoke > /dev/null

echo "==> trace determinism (byte-identical journals across identical seeded runs)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q --release -p avfs-experiments --bin exp -- \
  resilience --smoke --trace "$trace_dir/a.jsonl" > /dev/null 2>&1
cargo run -q --release -p avfs-experiments --bin exp -- \
  resilience --smoke --trace "$trace_dir/b.jsonl" > /dev/null 2>&1
test -s "$trace_dir/a.jsonl"
cmp "$trace_dir/a.jsonl" "$trace_dir/b.jsonl"

echo "==> telemetry observer guard (null-path overhead within noise)"
cargo test -q --release -p avfs-bench --test observer_guard

echo "==> allocation gate (zero in steady state; only returned action lists and run outputs on churn traffic)"
cargo bench -q -p avfs-bench --bench alloc_gate

echo "All checks passed."
