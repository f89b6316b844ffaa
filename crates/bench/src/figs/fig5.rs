//! Fig. 5 — running time to compute one chunk's caching locations.
//!
//! The paper times its Python implementations on grids; we report
//! wall-clock per single-chunk plan. Absolute numbers are incomparable
//! (Rust vs Python 2.7); the claims that survive are the polynomial
//! growth and the ordering (Appx at or below the greedy baselines,
//! brute force exploding immediately).

use std::time::Instant;

use peercache_core::exact::BruteForcePlanner;
use peercache_core::planner::CachePlanner;
use peercache_core::workload::{ScenarioBuilder, Topology};

use crate::harness::{all_planners, run_planner, Table};

fn time_one_chunk(planner: &dyn CachePlanner, net: &peercache_core::Network) -> f64 {
    // Median of three runs to tame scheduler noise.
    let mut samples = Vec::with_capacity(3);
    for _ in 0..3 {
        let start = Instant::now();
        let _ = run_planner(planner, net, 1);
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    samples[1]
}

/// Runs the timing sweep.
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "fig5",
        "wall-clock per single-chunk plan, ms (median of 3; Brtf only where feasible)",
        &["nodes", "Appx", "Dist", "Hopc", "Cont", "Brtf"],
    );
    for side in [4usize, 6, 8, 10, 12] {
        let net = ScenarioBuilder::new(Topology::Grid {
            rows: side,
            cols: side,
        })
        .capacity(5)
        .build()
        .expect("grid scenario builds");
        let mut row = vec![(side * side).to_string()];
        for planner in all_planners() {
            row.push(format!("{:.2}", time_one_chunk(planner.as_ref(), &net)));
        }
        if side <= 4 {
            row.push(format!(
                "{:.2}",
                time_one_chunk(&BruteForcePlanner::default(), &net)
            ));
        } else {
            row.push("-".to_string());
        }
        table.push_row(row);
    }
    vec![table]
}
