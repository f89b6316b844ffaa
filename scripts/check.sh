#!/usr/bin/env bash
# Full local gate: formatting, lints, build, tests.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release build
#
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
# Domain rules first (D1/D2/P1/N1/O1/S1/R1/U1, see DESIGN.md §11): fails
# on any unwaived violation or stale entry in lint-waivers.toml; U1
# (unreferenced `pub fn`) admits no waiver.
run cargo run -p peercache-lint --quiet
if [[ $fast -eq 0 ]]; then
    # Deep semantic pass (T1/C1/A1, see DESIGN.md §16): item parser +
    # call graph + dataflow over the whole workspace, machine-readable
    # report for `repro lint`, hard wall-time budget so the stage can
    # never quietly grow past interactive use.
    run cargo run -p peercache-lint --quiet -- --deep \
        --json target/lint-report.json --budget-ms 5000
fi
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
if [[ $fast -eq 0 ]]; then
    run cargo build --workspace --release
fi
run cargo test --workspace -q
# Second pass with the runtime invariant oracles armed: reference
# dual-ascent re-verification, bitwise contention-matrix checks, and
# Steiner connectivity after every world event (crates/core/src/strict.rs).
run cargo test --workspace --features strict-invariants -q
# The chaos acceptance trace (500+ injected faults, two partition
# windows, lease-based ADMIN deposition, byte-identical replay) must
# hold with the oracles armed.
run cargo test --test chaos_trace --features strict-invariants -q
# The sharded-world determinism suite (200+ churn events per topology,
# byte-identical digests across every Parallelism setting) must hold
# with the per-tick shard oracles armed.
run cargo test --test shard_world --features strict-invariants -q
# The replication robustness suite: SWIM membership edge cases and the
# R = 3 chaos trace (500+ faults, durability / convergence / recovery
# oracles, byte-identical replay) with the oracles armed.
run cargo test --test swim_membership --features strict-invariants -q
run cargo test --test replication_chaos --features strict-invariants -q
if [[ $fast -eq 0 ]]; then
    # Perf-regression gate: re-measures every baseline in
    # perf::BASELINES at full size and diffs the structural counters
    # (exact) and wall-clock numbers (tolerance band, see
    # PEERCACHE_PERF_TOL) against the committed BENCH_*.json.
    run cargo run --release --bin repro -- perf --check
    # Trace-analyzer smoke on the committed chaos capture: span forest,
    # latency table, and critical path must all render without orphans.
    run cargo run -q --release --bin repro -- trace tests/fixtures/chaos_fixture.jsonl
    # Static-analysis summary from the deep pass's JSON report.
    run cargo run -q --release --bin repro -- lint target/lint-report.json
    # The benchmark package (its own workspace under benchmark/) replays
    # the library's public layer functions, so its contract tests must
    # build and pass against the library in this tree.
    run env CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
        --manifest-path benchmark/Cargo.toml
fi
echo "==> all checks passed"
