//! `shard` — not a paper figure: the region-sharded world's thread
//! sweep.
//!
//! Replays the same seeded churn trace (arrivals, departures, link
//! drops) through one [`peercache_core::sharded::ShardedWorld`] per
//! thread setting and tabulates the wall times. The sweep *asserts*
//! bit-identical final digests across settings before rendering — the
//! table cannot print from a nondeterministic run. Committed numbers
//! live in `BENCH_shard.json` (rewritten by `cargo bench -p
//! peercache-bench --bench baselines -- shard`); wall times and the
//! speedup are machine-dependent, everything else is exact.

use crate::harness::Table;
use crate::shard_cells::{run_sweep, speedup_8x, GRID_SIDE, RETENTION, TICKS};

/// Runs the full thread sweep and renders the table.
pub fn run() -> Vec<Table> {
    let rows = run_sweep(GRID_SIDE, TICKS);
    let mut table = Table::new(
        "shard",
        &format!(
            "region-sharded world thread sweep: grid{GRID_SIDE}, {RETENTION} live chunks, \
             {TICKS} churn ticks (committed sweep: BENCH_shard.json)"
        ),
        &[
            "threads",
            "wall ms",
            "digest",
            "shards",
            "cross-shard events",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.threads.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:#018x}", r.digest),
            r.shards.to_string(),
            r.cross_shard_events.to_string(),
        ]);
    }
    let mut summary = Table::new(
        "shard-speedup",
        "wall(1 thread) / wall(8 threads); ~1.0 on a single-core host",
        &["speedup 1->8"],
    );
    summary.push_row(vec![format!("{:.2}x", speedup_8x(&rows))]);
    vec![table, summary]
}
