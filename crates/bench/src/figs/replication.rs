//! `replication` — not a paper figure: durability, detection, and
//! replica-load fairness versus replication degree R and fault
//! intensity.
//!
//! Each row replays one seeded chaos trace (two 2-node death batches, a
//! crash-restart, SWIM-driven departures, versioned replicas) at one
//! `(R, intensity)` point via [`crate::replication_cells`], the same
//! cells the `repro perf` regression gate re-measures. Committed
//! numbers live in `BENCH_replication.json`; wall times are
//! machine-dependent, everything else is exact.

use crate::harness::Table;
use crate::replication_cells::{run_matrix, NODE_CAP, SIDE, TICKS};

/// Runs the full matrix and renders the table.
pub fn run() -> Vec<Table> {
    let cells = run_matrix();
    let mut table = Table::new(
        "replication",
        &format!(
            "R-copy replication under chaos: grid{SIDE} (cap {NODE_CAP}), {TICKS} ticks, \
             2+2 deaths + crash-restart per cell (committed matrix: BENCH_replication.json)"
        ),
        &[
            "R",
            "intensity",
            "durability",
            "lost/at-risk",
            "confirmed",
            "lag max",
            "repairs",
            "recovered",
            "min copies",
            "gini",
            "wall ms",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.degree.to_string(),
            format!("{:.2}", c.intensity),
            format!("{:.4}", c.durability()),
            format!("{}/{}", c.lost_writes, c.at_risk),
            c.confirmed.to_string(),
            c.detect_lag_max.to_string(),
            c.repairs.to_string(),
            c.recovery_chunks.to_string(),
            c.min_copies.to_string(),
            format!("{:.4}", c.replica_gini),
            format!("{:.1}", c.wall_ms),
        ]);
    }
    vec![table]
}
