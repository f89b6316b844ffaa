//! `scale` — not a paper figure: the locality-stack extension.
//!
//! Plans the grid100 (10,000-node) instance with the hierarchical
//! region planner and anchors its quality against the dense-matrix
//! Appx pipeline on grid20, the largest size where both run. The paper
//! evaluates 16–100 nodes; this table shows the scoped contention
//! store planning 25x beyond the dense `O(N²)` wall while holding the
//! dense planner's totals. The full sweep — including the 100k-node
//! random-geometric row — lives in `BENCH_scale.json` (rewritten by
//! `cargo bench -p peercache-bench --bench baselines -- scale`).

use crate::harness::{f3, Table};
use crate::scale_cells::{
    grid_network, measure_quality, measure_scale, GRID_BUDGET_MS, GRID_SIDE, QUALITY_SIDE,
    SCALE_CHUNKS,
};

/// Runs the quality anchor and the grid100 scale row.
pub fn run() -> Vec<Table> {
    let quality = measure_quality(QUALITY_SIDE, SCALE_CHUNKS);
    let mut anchor = Table::new(
        "scale-quality",
        &format!(
            "hierarchical vs dense Appx total, {SCALE_CHUNKS} chunks \
             (largest dense-feasible grid)"
        ),
        &["topology", "nodes", "hier/dense"],
    );
    anchor.push_row(vec![
        quality.topology.clone(),
        quality.nodes.to_string(),
        f3(quality.hier_over_appx),
    ]);

    let net = grid_network(GRID_SIDE);
    let row = measure_scale(
        &format!("grid{GRID_SIDE}"),
        &net,
        SCALE_CHUNKS,
        GRID_BUDGET_MS,
    );
    let mut table = Table::new(
        "scale",
        &format!(
            "hierarchical planner past the dense wall, {SCALE_CHUNKS} chunks \
             (full sweep: BENCH_scale.json)"
        ),
        &[
            "topology",
            "nodes",
            "regions",
            "state MiB",
            "dense MiB",
            "ratio",
            "plan ms",
        ],
    );
    table.push_row(vec![
        row.topology.clone(),
        row.nodes.to_string(),
        row.regions.to_string(),
        format!("{:.1}", row.contention_bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.1}", row.dense_bytes as f64 / (1024.0 * 1024.0)),
        format!("{:.1}x", row.bytes_ratio),
        format!("{:.1}", row.plan_ms),
    ]);
    vec![anchor, table]
}
