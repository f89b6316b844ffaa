//! The scale measurement behind the committed `BENCH_scale.json`
//! (which `repro scale` renders).
//!
//! Where `planning_cells` races the dense pipeline against itself on
//! paper-sized grids, this module measures the locality stack — the
//! [`HierarchicalPlanner`] over k-hop-scoped contention blocks — on
//! topologies the `O(N²)` matrix cannot touch: a 100×100 grid (10k
//! nodes) and a 100k-node connected random-geometric network. Each row
//! records the wall time of one full plan, the number of regions, and
//! the scoped store's byte footprint against the dense equivalent.

use std::time::Instant;

use peercache_core::approx::{ApproxConfig, ApproxPlanner};
use peercache_core::planner::CachePlanner;
use peercache_core::scoped::{HierarchicalPlanner, ScopedConfig, ScopedContention};
use peercache_core::workload::paper_grid;
use peercache_core::Network;
use peercache_graph::{builders, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Chunks planned per scale measurement. Smaller than the hot-path
/// bench's 8: each chunk re-runs the per-region ascent and rebuilds the
/// stale blocks, and four chunks already exercise the incremental
/// update path while keeping the 100k row inside its budget.
pub const SCALE_CHUNKS: usize = 4;

/// Seed of the 100k random-geometric topology.
pub const RGG_SEED: u64 = 7;

/// Node count of the large random-geometric row.
pub const RGG_NODES: usize = 100_000;

/// Grid side of the 10k-node row.
pub const GRID_SIDE: usize = 100;

/// Wall budget of the grid row (acceptance: a 10k-node plan < 10 s).
pub const GRID_BUDGET_MS: f64 = 10_000.0;

/// Wall budget of the RGG row (acceptance: a 100k-node plan < 60 s).
pub const RGG_BUDGET_MS: f64 = 60_000.0;

/// Minimum factor the scoped store must undercut the dense equivalent.
pub const MIN_BYTES_RATIO: f64 = 50.0;

/// Scoped-store parameters of the measurement (the defaults).
pub fn scale_config() -> ScopedConfig {
    ScopedConfig::default()
}

/// The grid scenario of the given side (paper defaults: capacity 5).
pub fn grid_network(side: usize) -> Network {
    paper_grid(side).expect("grid builds")
}

/// A connected random-geometric network built with the bucketed O(n)
/// builder (the dense pairwise builder is itself `O(N²)`), expected
/// degree ~8, producer node 0, capacity 5.
pub fn rgg_network(nodes: usize, seed: u64) -> Network {
    let range = (8.0 / (std::f64::consts::PI * nodes as f64)).sqrt();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = builders::random_geometric_bucketed(nodes, range, &mut rng);
    Network::new(graph, NodeId::new(0), 5).expect("network builds")
}

/// One result row of the scale table.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Topology label (`grid100`, `rgg100000`).
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Regions of the scoped partition.
    pub regions: usize,
    /// Bytes held by the scoped contention store after planning.
    pub contention_bytes: u64,
    /// Bytes the dense all-pairs store would need at this size.
    pub dense_bytes: u64,
    /// `dense_bytes / contention_bytes`.
    pub bytes_ratio: f64,
    /// Wall time of one full [`SCALE_CHUNKS`]-chunk plan.
    pub plan_ms: f64,
    /// The acceptance budget the committed number must stay under.
    pub budget_ms: f64,
}

/// Plans `chunks` chunks hierarchically on a copy of `net`, returning
/// the row. State sizes are read back from the `planner.*` gauges the
/// planner publishes, so the measurement also exercises that wiring.
pub fn measure_scale(topology: &str, net: &Network, chunks: usize, budget_ms: f64) -> ScaleRow {
    let planner = HierarchicalPlanner::new(ApproxConfig::default(), scale_config());
    let mut copy = net.clone();
    let start = Instant::now();
    let placement = planner.plan(&mut copy, chunks).expect("planner succeeds");
    let plan_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(placement.total_costs().total().is_finite());
    assert_eq!(placement.chunks().len(), chunks);
    let regions = peercache_obs::gauge("planner.region_count").get();
    let contention_bytes = peercache_obs::gauge("planner.contention_bytes").get();
    assert!(regions > 0 && contention_bytes > 0);
    let dense_bytes = ScopedContention::dense_equivalent_bytes(net.node_count());
    ScaleRow {
        topology: topology.to_string(),
        nodes: net.node_count(),
        regions: regions as usize,
        contention_bytes: contention_bytes as u64,
        dense_bytes,
        bytes_ratio: dense_bytes as f64 / contention_bytes as f64,
        plan_ms,
        budget_ms,
    }
}

/// The quality anchor: the hierarchical total against the dense
/// pipeline's total on a grid small enough for the full matrix. The
/// ratio is deterministic — the perf gate compares it exactly.
#[derive(Debug, Clone)]
pub struct QualityCell {
    /// Topology label.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Hierarchical plan total over the dense Appx total.
    pub hier_over_appx: f64,
}

/// Grid side of the quality anchor (dense-feasible).
pub const QUALITY_SIDE: usize = 20;

/// Measures the quality anchor on the given grid side.
pub fn measure_quality(side: usize, chunks: usize) -> QualityCell {
    let net = grid_network(side);
    let hier = HierarchicalPlanner::new(ApproxConfig::default(), scale_config());
    let mut copy = net.clone();
    let hier_total = hier
        .plan(&mut copy, chunks)
        .expect("hierarchical plan succeeds")
        .total_costs()
        .total();
    let mut copy = net.clone();
    let appx_total = ApproxPlanner::default()
        .plan(&mut copy, chunks)
        .expect("dense plan succeeds")
        .total_costs()
        .total();
    QualityCell {
        topology: format!("grid{side}"),
        nodes: side * side,
        hier_over_appx: hier_total / appx_total,
    }
}

/// Re-measures `BENCH_scale.json` in its committed format: the quality
/// anchor, then the grid100 and rgg100k rows.
pub fn baseline() -> String {
    let quality = measure_quality(QUALITY_SIDE, SCALE_CHUNKS);
    let rows = vec![
        measure_scale(
            &format!("grid{GRID_SIDE}"),
            &grid_network(GRID_SIDE),
            SCALE_CHUNKS,
            GRID_BUDGET_MS,
        ),
        measure_scale(
            &format!("rgg{RGG_NODES}"),
            &rgg_network(RGG_NODES, RGG_SEED),
            SCALE_CHUNKS,
            RGG_BUDGET_MS,
        ),
    ];
    render_json(&quality, &rows, SCALE_CHUNKS)
}

/// Renders the cells in the exact committed `BENCH_scale.json` format.
fn render_json(quality: &QualityCell, rows: &[ScaleRow], chunks: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"chunks\": {chunks},\n"));
    out.push_str("  \"planner\": \"Hier\",\n");
    out.push_str(&format!(
        "  \"quality\": {{\"topology\": \"{}\", \"nodes\": {}, \"hier_over_appx\": {:.6}}},\n",
        quality.topology, quality.nodes, quality.hier_over_appx,
    ));
    out.push_str("  \"results\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        let comma = if idx + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"nodes\": {}, \"regions\": {}, \
             \"contention_bytes\": {}, \"dense_bytes\": {}, \"bytes_ratio\": {:.1}, \
             \"plan_ms\": {:.1}, \"budget_ms\": {:.1}}}{comma}\n",
            r.topology,
            r.nodes,
            r.regions,
            r.contention_bytes,
            r.dense_bytes,
            r.bytes_ratio,
            r.plan_ms,
            r.budget_ms,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_scale_fills_every_field_on_a_small_grid() {
        let net = grid_network(8);
        let row = measure_scale("grid8", &net, 2, 1_000.0);
        assert_eq!(row.nodes, 64);
        assert!(row.regions >= 1);
        assert!(row.contention_bytes > 0);
        assert!(row.dense_bytes > row.contention_bytes / 2);
        assert!(row.plan_ms > 0.0);
    }

    /// The committed rows meet the acceptance bounds: each plan inside
    /// its wall budget, the scoped store at least [`MIN_BYTES_RATIO`]
    /// below the dense one.
    #[test]
    fn committed_baseline_meets_its_budgets() {
        let path = crate::perf::repo_root().join("BENCH_scale.json");
        let text = std::fs::read_to_string(&path).expect("BENCH_scale.json is committed");
        let doc = peercache_obs::Json::parse(&text).expect("well-formed");
        let rows = doc
            .get("results")
            .and_then(peercache_obs::Json::as_arr)
            .expect("results array");
        assert_eq!(rows.len(), 2);
        for row in rows {
            let field = |key: &str| {
                row.get(key)
                    .and_then(peercache_obs::Json::as_f64)
                    .unwrap_or_else(|| panic!("{key} missing"))
            };
            assert!(
                field("plan_ms") < field("budget_ms"),
                "{row:?}: over budget"
            );
            assert!(
                field("bytes_ratio") >= MIN_BYTES_RATIO,
                "{row:?}: state too large"
            );
        }
    }

    #[test]
    fn rgg_network_is_connected_and_deterministic() {
        let a = rgg_network(500, RGG_SEED);
        let b = rgg_network(500, RGG_SEED);
        assert_eq!(a.node_count(), 500);
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }

    #[test]
    fn render_json_parses_back() {
        let quality = QualityCell {
            topology: "grid20".into(),
            nodes: 400,
            hier_over_appx: 1.012345,
        };
        let rows = vec![ScaleRow {
            topology: "grid100".into(),
            nodes: 10_000,
            regions: 90,
            contention_bytes: 1_000_000,
            dense_bytes: 2_000_000_000,
            bytes_ratio: 2000.0,
            plan_ms: 1234.5,
            budget_ms: GRID_BUDGET_MS,
        }];
        let text = render_json(&quality, &rows, SCALE_CHUNKS);
        let doc = peercache_obs::Json::parse(&text).expect("renders valid JSON");
        let rendered = format!("{doc:?}");
        assert!(rendered.contains("grid100"));
        assert!(rendered.contains("hier_over_appx"));
    }
}

#[cfg(test)]
mod profile {
    use super::*;

    /// Manual phase breakdown at scale; run with
    /// `cargo test --release -p peercache-bench -- --ignored profile_ --nocapture`.
    #[test]
    #[ignore]
    fn profile_large_rgg() {
        use peercache_graph::paths::{Parallelism, PathSelection};
        let n: usize = std::env::var("PROFILE_NODES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_000);
        let t = Instant::now();
        let net = rgg_network(n, RGG_SEED);
        eprintln!("[{n}] build net: {:?}", t.elapsed());
        let t = Instant::now();
        let mut scoped = ScopedContention::new(
            &net,
            scale_config(),
            PathSelection::FewestHops,
            Parallelism::Auto,
        )
        .unwrap();
        eprintln!(
            "[{n}] scoped new: {:?} ({} regions, {} bytes)",
            t.elapsed(),
            scoped.partition().region_count(),
            scoped.contention_bytes()
        );
        let planner = HierarchicalPlanner::new(ApproxConfig::default(), scale_config());
        let t = Instant::now();
        let mut copy = net.clone();
        planner.plan(&mut copy, 1).unwrap();
        eprintln!("[{n}] plan 1 chunk: {:?}", t.elapsed());
        let t = Instant::now();
        let mut copy = net.clone();
        let p = planner.plan(&mut copy, 2).unwrap();
        eprintln!("[{n}] plan 2 chunks: {:?}", t.elapsed());
        let dirty: Vec<NodeId> = p.chunks()[0].caches.clone();
        let t = Instant::now();
        let rebuilt = scoped.update(&copy, &dirty, Parallelism::Auto).unwrap();
        eprintln!(
            "[{n}] update with {} dirty: {:?} ({rebuilt} blocks rebuilt)",
            dirty.len(),
            t.elapsed()
        );
    }
}
