//! `chaos` — not a paper figure: the partition-tolerance extension.
//!
//! Runs the [`crate::chaos_cells`] matrix — one protocol round per
//! fault intensity on the 10x10 grid and the random-geometric topology,
//! with the liveness mechanisms armed. The paper's protocol assumes a
//! quiet network; this table shows convergence degrading gracefully —
//! more ticks and retries, deposed ADMINs re-elected — instead of
//! stalling.

use crate::chaos_cells::{run_cell, topologies, INTENSITIES};
use crate::harness::Table;

/// Runs the intensity sweep and tabulates convergence per cell.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "chaos",
        "protocol convergence vs fault intensity (loss + duplication + \
         reordering + partition window), liveness armed",
        &[
            "topology",
            "intensity",
            "ticks",
            "retries",
            "timeouts",
            "depositions",
            "chaos faults",
            "lossy drops",
            "degraded",
            "fallbacks",
        ],
    );
    for (name, net) in &topologies() {
        for &intensity in &INTENSITIES {
            let c = run_cell(net, name, intensity);
            table.push_row(vec![
                c.topology.to_string(),
                format!("{:.2}", c.intensity),
                c.ticks.to_string(),
                c.retries.to_string(),
                c.timeouts.to_string(),
                c.depositions.to_string(),
                c.faults.to_string(),
                c.lossy_drops.to_string(),
                c.degraded.to_string(),
                c.fallbacks.to_string(),
            ]);
        }
    }
    vec![table]
}
