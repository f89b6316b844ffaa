//! The planning-hot-path measurement behind the committed
//! `BENCH_planning.json` (which `repro planning` renders): the optimized Appx pipeline raced against the
//! reference pipeline on paper grids, median-of-N timing, plus a
//! bitwise check that both price the plan identically.

use std::time::Instant;

use peercache_core::approx::{ApproxConfig, ApproxPlanner};
use peercache_core::planner::CachePlanner;
use peercache_core::workload::paper_grid;
use peercache_core::Network;

/// Chunks planned per measurement.
pub const CHUNKS: usize = 8;

/// Grid sides of the measurement.
pub const SIDES: [usize; 2] = [10, 20];

/// Timing repetitions per pipeline (median taken).
pub const RUNS: usize = 3;

/// The optimized pipeline under measurement.
pub fn optimized_config() -> ApproxConfig {
    ApproxConfig::default()
}

/// The original reference pipeline.
pub fn reference_config() -> ApproxConfig {
    ApproxConfig {
        reference_mode: true,
        ..Default::default()
    }
}

/// Plans `chunks` chunks on a copy of `net` and returns the total cost.
pub fn plan_total(net: &Network, cfg: &ApproxConfig, chunks: usize) -> f64 {
    let mut copy = net.clone();
    let placement = ApproxPlanner::new(cfg.clone())
        .plan(&mut copy, chunks)
        .expect("planner succeeds");
    placement.total_costs().total()
}

/// Median wall time in milliseconds over `runs` full plans.
pub fn measure_ms(net: &Network, cfg: &ApproxConfig, chunks: usize, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let total = plan_total(net, cfg, chunks);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(total.is_finite());
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One result row: `(topology, nodes, optimized_ms, reference_ms,
/// cost_bitwise_equal)`.
pub type Row = (String, usize, f64, f64, bool);

/// Measures one grid side at the baseline's settings.
pub fn measure_side(side: usize, runs: usize) -> Row {
    let net = paper_grid(side).expect("grid builds");
    let opt_ms = measure_ms(&net, &optimized_config(), CHUNKS, runs);
    let ref_ms = measure_ms(&net, &reference_config(), CHUNKS, runs);
    let cost_equal = plan_total(&net, &optimized_config(), CHUNKS).to_bits()
        == plan_total(&net, &reference_config(), CHUNKS).to_bits();
    (
        format!("grid{side}"),
        side * side,
        opt_ms,
        ref_ms,
        cost_equal,
    )
}

/// Re-measures `BENCH_planning.json` in its committed format.
pub fn baseline() -> String {
    let rows: Vec<Row> = SIDES.iter().map(|&side| measure_side(side, RUNS)).collect();
    render_json(&rows, CHUNKS)
}

/// Renders the rows in the exact committed `BENCH_planning.json` format.
fn render_json(rows: &[Row], chunks: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"planning_hot_path\",\n");
    out.push_str(&format!("  \"chunks\": {chunks},\n"));
    out.push_str("  \"planner\": \"Appx\",\n  \"results\": [\n");
    for (idx, (topo, nodes, opt_ms, ref_ms, cost_equal)) in rows.iter().enumerate() {
        let comma = if idx + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"topology\": \"{topo}\", \"nodes\": {nodes}, \
             \"optimized_ms\": {opt_ms:.1}, \"reference_ms\": {ref_ms:.1}, \
             \"speedup\": {:.2}, \"cost_bitwise_equal\": {cost_equal}}}{comma}\n",
            ref_ms / opt_ms,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_and_reference_agree_bitwise_on_a_small_grid() {
        let (_, nodes, opt_ms, ref_ms, equal) = measure_side(4, 1);
        assert_eq!(nodes, 16);
        assert!(opt_ms > 0.0 && ref_ms > 0.0);
        assert!(equal, "pipelines must price plans identically");
    }
}
