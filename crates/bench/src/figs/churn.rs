//! `churn` — not a paper figure: the dynamic-topology extension.
//!
//! Drives the [`crate::churn_cells`] departure trace on the 10x10 grid
//! through [`peercache_core::world::CacheWorld`]'s incremental repair
//! and compares every step against the full-replan oracle. The paper
//! plans on a static network; this table shows what the repair path
//! buys once nodes churn: per-event wall clock well under the replan
//! cost at a contention gap of a few percent.

use crate::churn_cells::{run_trace, totals_us, warm_world, RETENTION, TRACE_SEED};
use crate::harness::{f3, Table};

/// Departures shown: the first ten of the committed baseline's trace.
const DEPARTURES: usize = 10;

/// Runs the churn trace and tabulates repair-vs-replan per departure.
pub fn run() -> Vec<Table> {
    let mut world = warm_world();
    let rows = run_trace(&mut world, DEPARTURES, TRACE_SEED);
    world.validate().expect("trace leaves a valid world");
    let mut table = Table::new(
        "churn",
        &format!(
            "incremental repair vs full replan, {DEPARTURES} seeded departures \
             (10x10 grid, retention {RETENTION})"
        ),
        &[
            "departure",
            "node",
            "orphans",
            "new copies",
            "repair ms",
            "replan ms",
            "cost ratio",
        ],
    );
    for (step, r) in rows.iter().enumerate() {
        table.push_row(vec![
            (step + 1).to_string(),
            r.node.index().to_string(),
            r.orphaned_clients.to_string(),
            r.new_copies.to_string(),
            format!("{:.2}", r.repair_us as f64 / 1e3),
            format!("{:.2}", r.replan_us as f64 / 1e3),
            f3(r.cost_ratio),
        ]);
    }
    let (repair_us, replan_us) = totals_us(&rows);
    table.push_row(vec![
        "total".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.2}", repair_us as f64 / 1e3),
        format!("{:.2}", replan_us as f64 / 1e3),
        format!("{:.2}x speedup", replan_us as f64 / repair_us.max(1) as f64),
    ]);
    vec![table]
}
