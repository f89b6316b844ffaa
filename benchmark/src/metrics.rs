//! The metric tables and the order statistics the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root carries the same names and
//! units (plus directions and bounds); `tests/contract.rs` keeps the two
//! in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user sees, printed by untraced runs of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("op_ms_p50", "ms"),
    m("op_ms_p90", "ms"),
    m("ops_per_s", "1/s"),
    m("peak_heap_mb", "MiB"),
    m("cost_total", "cost"),
    m("load_gini", "gini"),
];

/// Per-layer metrics, printed by traced runs of every workload. A layer
/// a workload never reaches reads 0 there. Times are per op unless the
/// name says p50; counts are per op (per plan, step or tick).
pub const PER_LAYER: &[Metric] = &[
    // Dense contention store and shortest paths (plan-rgg300, dist-chaos).
    m("core.costs.build_ms", "ms"),
    m("graph.paths.rows_recomputed", "count"),
    m("core.instance.build_ms", "ms"),
    // Dual ascent (plan-rgg300).
    m("core.approx.ascent_ms", "ms"),
    m("core.approx.rounds", "count"),
    m("core.approx.opened", "count"),
    // Prune, improve-by-removal, Steiner tree + cache writes.
    m("core.planner.prune_ms", "ms"),
    m("core.planner.improve_ms", "ms"),
    m("core.planner.removed", "count"),
    m("core.planner.commit_ms", "ms"),
    m("core.planner.copies", "count"),
    // Dense world, per event kind and per repair report (churn-grid20).
    m("core.world.arrival_ms_p50", "ms"),
    m("core.world.departure_ms_p50", "ms"),
    m("core.world.link_ms_p50", "ms"),
    m("core.world.apsp_rows", "count"),
    m("core.world.repaired", "count"),
    m("core.world.refreshed", "count"),
    m("core.world.new_copies", "count"),
    m("core.world.orphaned_clients", "count"),
    m("core.world.link_refreshed", "count"),
    m("core.world.repair_cost_ratio", "ratio"),
    // Scoped store and sharded world (shard-grid50), per episode/tick.
    m("core.scoped.build_ms", "ms"),
    m("core.scoped.contention_bytes", "bytes"),
    m("core.scoped.regions", "count"),
    m("core.sharded.warm_ms", "ms"),
    m("core.sharded.placed", "count"),
    m("core.sharded.retired", "count"),
    m("core.sharded.departed", "count"),
    m("core.sharded.copies_restored", "count"),
    m("core.sharded.orphans_reassigned", "count"),
    m("core.shard.cross_events", "count"),
    // Algorithm 2 (dist-chaos).
    m("dist.view.build_ms", "ms"),
    m("dist.view.cc_messages", "count"),
    m("dist.sim.round_ms", "ms"),
    m("dist.sim.delivered", "count"),
    m("dist.sim.dropped", "count"),
    m("dist.sim.retries", "count"),
    m("dist.sim.depositions", "count"),
    m("dist.sim.faults", "count"),
    m("dist.sim.converge_ticks_p50", "ticks"),
    m("dist.sim.messages_per_chunk", "count"),
    m("dist.sim.fallback_share", "ratio"),
    // Replay time over entry-point time (plan-rgg300, dist-chaos).
    m("replay.overhead_ratio", "ratio"),
];

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between order statistics; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`; `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
