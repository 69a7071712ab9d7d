#!/usr/bin/env sh
# Full CI gate: formatting, lints, tier-1 tests, and the host-throughput
# benchmark artifact. Mirrors .github/workflows/ci.yml so the same checks
# run locally.
set -eu
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo clippy --workspace --all-targets --release -- -D warnings
# The end-to-end benchmark (perfbench/, its own workspace over path deps on
# crates/) must still compile against the current API, with its lock file
# unchanged.
cargo check --locked --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
./scripts/tier1.sh
# Bench smoke check: the default configuration's trap and compute
# throughput over the plain reference (the median of per-repetition
# ratios, each side timed back to back) must both stay within 20% of the
# committed BENCH_1 ratios, and a txn
# session over 10k files must cost under 150x one over 10 files (same
# window, no baseline). Runs before --json below rewrites the file.
cargo run --release -p ia-bench --bin reproduce -- --smoke
cargo run --release -p ia-bench --bin reproduce -- --json
# Fleet smoke gate: 256 tenants on a work-stealing pool — solo-vs-fleet
# determinism spot checks, a self-calibrating scaling-ratio floor
# (parallel throughput >= 0.7 x linear over the 1-thread run), and a
# memory gate (peak RSS from /proc/self/status VmHWM <= 64 MiB, skipped
# with a message where /proc is absent).
cargo run --release -p ia-fleet -- --smoke
# Fusion-hit histogram: which superinstruction families representative
# workloads actually execute, uploaded as a CI artifact.
cargo run --release -p ia-bench --bin reproduce -- --fusion > target/fusion-hist.json
