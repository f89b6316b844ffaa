#!/usr/bin/env bash
# Full local gate: formatting, lints, build, tests.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release build and the stages that
#                             # need it (perf gate, trace smoke, benchmark tests)
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
# No tracked file may sit under an ignored path: build and test output
# there would be rewritten by every run. Skipped outside a git checkout.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "==> git ls-files -ci --exclude-standard"
    tracked_ignored=$(git ls-files -ci --exclude-standard)
    if [[ -n "$tracked_ignored" ]]; then
        echo "tracked files under ignored paths (git rm --cached them):" >&2
        echo "$tracked_ignored" >&2
        exit 1
    fi
fi
# Domain rules first: all ten rules in one run (token rules
# D1/D2/P1/N1/O1/S1/U1, DESIGN.md §11; semantic rules T1/C1/A1 over the
# item parser, call graph and dataflow, §16), then a per-rule table.
# Fails on any unwaived violation, stale entry in lint-waivers.toml,
# item-parse failure, or a run over the linter's 5 s wall-time budget;
# U1 (unreferenced `pub fn`) admits no waiver.
run cargo run -p peercache-lint --quiet
# The benchmark package (its own workspace under benchmark/) calls the
# library's public layer functions; compile it on every run, --fast
# included, so a changed signature fails here rather than at the end.
run env CARGO_TARGET_DIR=.bench_build cargo check --offline \
    --manifest-path benchmark/Cargo.toml
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
if [[ $fast -eq 0 ]]; then
    run cargo build --workspace --release
fi
run cargo test --workspace -q
# Second pass with the runtime invariant oracles armed: reference
# dual-ascent re-verification, bitwise contention-matrix checks, and
# Steiner connectivity after every world event (crates/core/src/strict.rs).
# It runs every root suite once, the acceptance traces included:
# chaos_trace (500+ faults, partition windows, ADMIN deposition),
# shard_world (200+ churn events per topology, digests equal across
# every Parallelism setting), swim_membership and replication_chaos
# (R = 3 durability / convergence / recovery oracles).
run cargo test --workspace --features strict-invariants -q
if [[ $fast -eq 0 ]]; then
    # Perf-regression gate: re-measures every baseline in
    # perf::BASELINES at full size and diffs the structural counters
    # (exact) and wall-clock numbers (within perf::WALL_BAND) against
    # the committed BENCH_*.json.
    run cargo run --release --bin repro -- perf --check
    # Trace-analyzer smoke on the committed chaos capture: span forest,
    # latency table, and critical path must all render without orphans.
    run cargo run -q --release --bin repro -- trace tests/fixtures/chaos_fixture.jsonl
    # The benchmark package (its own workspace under benchmark/) replays
    # the library's public layer functions, so its contract tests must
    # build and pass against the library in this tree.
    run env CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
        --manifest-path benchmark/Cargo.toml
fi
echo "==> all checks passed"
