#!/usr/bin/env bash
# Full local gate: formatting, clippy, rustdoc, the avfs-analyze checks
# (one `avfs-analyze all` run: domain invariants, source lints, the fleet
# checks, breadth-first bounded model checking with scripted mailbox
# faults, the policy-domain proof and the measured-margin audit), the
# test suite, the release elision identity sweep, the experiment smokes,
# trace determinism, and the two
# hot-path correctness gates (a coarse null-observer guard: a replan with
# null telemetry within 3x of itself and of a hub; allocations in
# steady state, on churn traffic and in one journal export).
# Speed is measured by the perfbench benchmark (see BENCHMARK.json), not
# here.
# Mirrors what CI would run; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy"
# The four warn-level domain lints (unwrap/expect/float-cmp/truncating-cast)
# stay advisory here because the avfs-analyze lint ratchet below is their
# enforcement point.
cargo clippy -q --workspace --all-targets -- -D warnings \
  -A clippy::unwrap_used -A clippy::expect_used \
  -A clippy::float_cmp -A clippy::cast-possible-truncation

echo "==> cargo doc (warnings are errors: no broken or private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> avfs-analyze all (invariants, lint, fleet, model --depth 6, prove-policy, check-margins)"
cargo run -q --release -p avfs-analyze -- all

echo "==> cargo test"
cargo test -q --workspace

echo "==> elision identity sweep (release; inert monitor boundaries skipped vs all delivered)"
cargo test -q --release -p avfs-experiments --test integration_daemon -- \
  --ignored elision_is_unobservable_on_a_seed_sweep

echo "==> resilience smoke soak (seeded fault injection)"
cargo run -q --release -p avfs-experiments --bin exp -- resilience --smoke > /dev/null

echo "==> fleet smoke (cluster eval acceptance + same-seed rerun determinism gate)"
cargo run -q --release -p avfs-experiments --bin exp -- fleet --smoke > /dev/null

echo "==> characterize smoke (measured tables reclaim undervolt depth and cover the hidden truth)"
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

echo "==> telemetry observer guard (null-path replan within 3x of itself and of a hub)"
cargo test -q --release -p avfs-bench --test observer_guard

echo "==> allocation gate (zero in steady state; only returned action lists and run outputs on churn traffic; one buffer per journal export)"
cargo bench -q -p avfs-bench --bench alloc_gate

echo "All checks passed."
