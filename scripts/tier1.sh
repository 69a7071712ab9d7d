#!/usr/bin/env sh
# Tier-1 verification (see ROADMAP.md): the release build plus the test
# suite, with no registry access required.
set -eu
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test -q --workspace --release --no-fail-fast

# Static analysis gate: every in-tree workload and example image must lint
# clean (zero errors, zero warnings). The JSON report is kept as a CI
# artifact.
cargo run --release --bin ia-lint -- --builtin --deny-warnings --json \
    --out target/lint-report.json

# Information-flow gate: taint-analyze the builtin images plus the
# adversarial exfil pair against the demo label spec; the per-image flow
# report is kept as a CI artifact. (Flow findings are fail-closed and
# expected on some images, so no --deny-warnings here.)
cargo run --release --bin ia-lint -- --builtin \
    --flow-json target/flow-report.json --out /dev/null

# Conformance smoke sweep: differential oracle + fault schedules over
# generated programs, plus the static-footprint and dynamic-taint flow
# soundness checks per seed (recorded flows must stay inside the static
# flow relation, also under injected faults). Failures drop .conf repro
# files plus .flight.txt recordings in target/conform.
cargo run --release -p ia-conform -- --seeds 200

# Fault-tree sweep: snapshot/restore-driven exploration of every
# fault/pass decision prefix (depth 2) per surface syscall x errno, the
# default configuration vs the reference (plain engine, fast path off) per
# leaf. Failures land as tree-case .conf repros.
cargo run --release -p ia-conform -- --tree --depth 2 --seeds 50

# Fleet conformance sweep: each seed's program runs as one tenant in a
# multi-threaded work-stealing fleet (tiny quanta, shared base VFS and
# exec cache); every tenant's complete Observable must match its solo
# serial-oracle run bit for bit.
cargo run --release -p ia-conform -- --fleet --seeds 64

# Time-travel gate: flight recordings must replay bit-identically from
# any interior snapshot window.
cargo run --release -p ia-conform --bin ia-replay -- --selftest
