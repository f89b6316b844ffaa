//! The churn-trace measurement behind the committed `BENCH_churn.json`
//! (which `repro churn` renders): a seeded departure trace on a warmed
//! 10x10 grid, each departure handled by [`CacheWorld`]'s incremental
//! repair and priced against the full-replan oracle. The document keeps
//! one row per departure beside the totals.

use peercache_core::approx::ApproxConfig;
use peercache_core::workload::paper_grid;
use peercache_core::world::{CacheWorld, EventOutcome, WorldEvent};
use peercache_graph::NodeId;

/// Live-chunk retention window of the warmed world.
pub const RETENTION: usize = 6;

/// Departure-trace seed of the committed baseline.
pub const TRACE_SEED: u64 = 0xBADC0DE;

/// Departures in the committed baseline's trace.
pub const DEPARTURES: usize = 12;

/// xorshift64 — the trace must be identical on every run.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Builds the warmed-up world: a 10x10 grid with the retention window
/// full of live chunks.
pub fn warm_world() -> CacheWorld {
    let net = paper_grid(10).expect("grid builds");
    let mut world = CacheWorld::new(net, ApproxConfig::default()).with_retention(RETENTION);
    for _ in 0..RETENTION {
        world.apply(WorldEvent::ChunkArrived).expect("arrival");
    }
    world
}

/// One departure of the trace: what the repair did and what the
/// replan oracle says of it.
#[derive(Debug)]
pub struct TraceRow {
    /// The departed node.
    pub node: NodeId,
    /// Clients whose provider the departure took away.
    pub orphaned_clients: usize,
    /// Copies the repair placed.
    pub new_copies: usize,
    /// Wall time of the repair in microseconds.
    pub repair_us: u64,
    /// Wall time of the from-scratch replan in microseconds.
    pub replan_us: u64,
    /// Repaired over replanned contention cost.
    pub cost_ratio: f64,
}

/// One departure + one arrival per trace step, keeping the live set
/// full. Returns one row per departure.
pub fn run_trace(world: &mut CacheWorld, steps: usize, seed: u64) -> Vec<TraceRow> {
    let mut rng = XorShift(seed);
    let mut rows = Vec::new();
    while rows.len() < steps {
        let producer = world.network().producer();
        let candidates: Vec<NodeId> = world
            .network()
            .active_nodes()
            .into_iter()
            .filter(|&n| n != producer)
            .collect();
        let victim = candidates[rng.below(candidates.len())];
        let report = match world.apply(WorldEvent::NodeDeparted(victim)) {
            Ok(EventOutcome::Departed(report)) => report,
            Ok(_) => unreachable!("departure outcome"),
            Err(_) => continue, // would disconnect the survivors; redraw
        };
        let gap = world.repair_vs_replan().expect("oracle replan");
        rows.push(TraceRow {
            node: report.node,
            orphaned_clients: report.orphaned_clients,
            new_copies: report.new_copies.len(),
            repair_us: report.wall_us,
            replan_us: gap.replan_wall_us,
            cost_ratio: gap.cost_ratio,
        });
        world.apply(WorldEvent::ChunkArrived).expect("arrival");
    }
    rows
}

/// Re-measures `BENCH_churn.json` in its committed format.
pub fn baseline() -> String {
    let mut world = warm_world();
    let rows = run_trace(&mut world, DEPARTURES, TRACE_SEED);
    world.validate().expect("trace leaves a valid world");
    render_json(&rows)
}

/// Renders the trace rows in the exact committed `BENCH_churn.json`
/// format.
fn render_json(rows: &[TraceRow]) -> String {
    let repair_us: u64 = rows.iter().map(|r| r.repair_us).sum();
    let replan_us: u64 = rows.iter().map(|r| r.replan_us).sum();
    let speedup = replan_us as f64 / repair_us.max(1) as f64;
    let max_ratio = rows.iter().map(|r| r.cost_ratio).fold(0.0, f64::max);
    let mean_ratio = rows.iter().map(|r| r.cost_ratio).sum::<f64>() / rows.len().max(1) as f64;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"churn_trace\",\n");
    out.push_str("  \"topology\": \"grid10\",\n  \"nodes\": 100,\n");
    out.push_str(&format!(
        "  \"retention\": {RETENTION},\n  \"departures\": {},\n",
        rows.len()
    ));
    out.push_str(&format!(
        "  \"repair_total_ms\": {:.2},\n  \"replan_total_ms\": {:.2},\n",
        repair_us as f64 / 1e3,
        replan_us as f64 / 1e3,
    ));
    out.push_str(&format!(
        "  \"repair_over_replan_speedup\": {speedup:.2},\n"
    ));
    out.push_str(&format!(
        "  \"cost_ratio_mean\": {mean_ratio:.4},\n  \"cost_ratio_max\": {max_ratio:.4},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"node\": {}, \"orphaned_clients\": {}, \"new_copies\": {}, \"repair_ms\": {:.2}, \"replan_ms\": {:.2}, \"cost_ratio\": {:.4} }}{}\n",
            r.node.index(),
            r.orphaned_clients,
            r.new_copies,
            r.repair_us as f64 / 1e3,
            r.replan_us as f64 / 1e3,
            r.cost_ratio,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The departure trace (victims, cost ratios) is a pure function of
    /// the seed; only the wall-clock fields vary between runs.
    #[test]
    fn trace_cost_ratios_replay_identically() {
        let mut a = warm_world();
        let ra = run_trace(&mut a, 2, TRACE_SEED);
        let mut b = warm_world();
        let rb = run_trace(&mut b, 2, TRACE_SEED);
        let ratios = |r: &[TraceRow]| r.iter().map(|x| (x.node, x.cost_ratio)).collect::<Vec<_>>();
        assert_eq!(ratios(&ra), ratios(&rb));
        a.validate().unwrap();
    }

    /// The document's rows are the trace's departures, and the summary
    /// ratios are theirs.
    #[test]
    fn document_rows_carry_the_summary_ratios() {
        let rows = run_trace(&mut warm_world(), 2, TRACE_SEED);
        let doc = peercache_obs::Json::parse(&render_json(&rows)).expect("well-formed");
        let field = |j: &peercache_obs::Json, key: &str| j.get(key).and_then(|v| v.as_f64());
        let ratios: Vec<f64> = doc
            .get("rows")
            .and_then(|r| r.as_arr())
            .expect("rows array")
            .iter()
            .map(|r| field(r, "cost_ratio").expect("cost_ratio"))
            .collect();
        assert_eq!(ratios.len(), 2);
        let mean = ratios.iter().sum::<f64>() / 2.0;
        let max = ratios.iter().copied().fold(0.0, f64::max);
        assert!((mean - field(&doc, "cost_ratio_mean").unwrap()).abs() < 1e-4);
        assert_eq!(Some(max), field(&doc, "cost_ratio_max"));
    }
}
