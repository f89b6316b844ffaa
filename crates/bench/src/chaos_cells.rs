//! The chaos-matrix cells behind the committed `BENCH_chaos.json`
//! (which `repro chaos` renders): one protocol round per `(topology,
//! fault intensity)` cell with the liveness mechanisms armed (retry/backoff,
//! FREEZE leases, election timeouts). Intensity scales message loss,
//! duplication, reordering, and the length of a partition window
//! islanding one node.

use peercache_core::workload::{paper_grid, paper_random};
use peercache_core::{ChunkId, Network};
use peercache_dist::engine::LossConfig;
use peercache_dist::sim::{run_chunk_round, SimConfig};
use peercache_dist::view::build_views;
use peercache_dist::{FaultPlan, LivenessConfig};
use peercache_graph::NodeId;

/// Local-control scope of every cell (the paper's sweet spot, Fig. 3).
pub const K_HOPS: u32 = 2;

/// The fault-intensity grid.
pub const INTENSITIES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// The liveness parameters armed for every cell.
pub fn liveness() -> LivenessConfig {
    LivenessConfig {
        retry_limit: 3,
        backoff_base: 4,
        backoff_jitter: 2,
        lease_ticks: 20,
        election_timeout: 300,
    }
}

/// Scales every fault knob with one intensity in `[0, 1]`: loss,
/// duplication, and reordering at the given probability, plus a
/// partition window islanding one non-producer node whose length grows
/// with the intensity.
pub fn config_at(net: &Network, intensity: f64) -> SimConfig {
    let island = if net.producer() == NodeId::new(0) {
        NodeId::new(1)
    } else {
        NodeId::new(0)
    };
    let mut chaos = FaultPlan::new(0xFA117)
        .duplicate(intensity / 2.0)
        .reorder(intensity / 2.0, 2);
    let window = (intensity * 200.0) as u64;
    if window > 0 {
        chaos = chaos.partition(10, 10 + window, vec![island]);
    }
    SimConfig {
        loss: LossConfig {
            drop_probability: intensity,
            seed: 29,
        },
        chaos,
        liveness: liveness(),
        ..Default::default()
    }
}

/// One matrix row: what a single chaos-afflicted round did.
pub struct Cell {
    /// Topology label (`grid10` / `random60`).
    pub topology: &'static str,
    /// Node count of the topology.
    pub nodes: usize,
    /// Fault intensity of the cell.
    pub intensity: f64,
    /// Ticks to convergence.
    pub ticks: u64,
    /// TIGHT/SPAN retransmissions.
    pub retries: u64,
    /// Clients settled by the election timeout.
    pub timeouts: u64,
    /// Lease-expiry depositions.
    pub depositions: u64,
    /// Chaos-layer faults injected.
    pub faults: u64,
    /// Messages dropped (loss + chaos).
    pub lossy_drops: u64,
    /// Clients that left the round degraded.
    pub degraded: usize,
    /// Clients that fell back to the producer.
    pub fallbacks: usize,
}

/// Runs one cell and panics if the round fails to settle.
pub fn run_cell(net: &Network, topology: &'static str, intensity: f64) -> Cell {
    let (views, _) = build_views(net, K_HOPS).expect("views build");
    let cfg = config_at(net, intensity);
    let out = run_chunk_round(net, &views, ChunkId::new(0), &cfg);
    assert!(
        out.ticks < cfg.max_ticks,
        "{topology} @ {intensity}: round must settle"
    );
    Cell {
        topology,
        nodes: net.node_count(),
        intensity,
        ticks: out.ticks,
        retries: out.retries,
        timeouts: out.timeouts,
        depositions: out.depositions,
        faults: out.faults.total(),
        lossy_drops: out.stats.dropped,
        degraded: out.degraded.len(),
        fallbacks: out.producer_fallbacks,
    }
}

/// Re-measures `BENCH_chaos.json` in its committed format over the
/// 10x10 grid and the paper's random-geometric network, rows ordered by
/// intensity, then topology.
pub fn baseline() -> String {
    let nets = [
        ("grid10", paper_grid(10).expect("grid builds")),
        (
            "random60",
            paper_random(60, 7).expect("random geometric builds"),
        ),
    ];
    let mut cells = Vec::new();
    for &intensity in &INTENSITIES {
        for (name, net) in &nets {
            cells.push(run_cell(net, name, intensity));
        }
    }
    render_json(&cells)
}

/// Renders the cells in the exact committed `BENCH_chaos.json` format.
fn render_json(cells: &[Cell]) -> String {
    let liv = liveness();
    let mut out = String::from("{\n  \"bench\": \"chaos_matrix\",\n");
    out.push_str(&format!(
        "  \"liveness\": {{ \"retry_limit\": {}, \"backoff_base\": {}, \"lease_ticks\": {}, \"election_timeout\": {} }},\n",
        liv.retry_limit, liv.backoff_base, liv.lease_ticks, liv.election_timeout
    ));
    out.push_str("  \"rows\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"nodes\": {}, \"intensity\": {:.2}, \"ticks\": {}, \"retries\": {}, \"timeouts\": {}, \"depositions\": {}, \"chaos_faults\": {}, \"lossy_drops\": {}, \"degraded\": {}, \"producer_fallbacks\": {} }}{}\n",
            c.topology,
            c.nodes,
            c.intensity,
            c.ticks,
            c.retries,
            c.timeouts,
            c.depositions,
            c.faults,
            c.lossy_drops,
            c.degraded,
            c.fallbacks,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_replay_identically() {
        let net = paper_grid(4).unwrap();
        let a = run_cell(&net, "grid4", 0.2);
        let b = run_cell(&net, "grid4", 0.2);
        assert_eq!(
            (a.ticks, a.retries, a.faults, a.lossy_drops),
            (b.ticks, b.retries, b.faults, b.lossy_drops)
        );
    }

    #[test]
    fn render_matches_baseline_shape() {
        let net = paper_grid(3).unwrap();
        let cells = vec![run_cell(&net, "grid3", 0.0)];
        let json = render_json(&cells);
        let parsed = peercache_obs::Json::parse(&json).expect("well-formed");
        assert_eq!(
            parsed.get("bench").and_then(|j| j.as_str()),
            Some("chaos_matrix")
        );
        assert_eq!(
            parsed.get("rows").and_then(|j| j.as_arr()).map(|r| r.len()),
            Some(1)
        );
    }
}
