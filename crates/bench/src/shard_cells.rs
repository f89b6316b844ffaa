//! The shard thread-sweep measurement behind the committed
//! `BENCH_shard.json` (which `repro shard` renders).
//!
//! One [`ShardedWorld`] per thread setting consumes the *same* seeded
//! churn trace — arrivals, departures, and link drops — and the sweep
//! asserts right here that every setting ends on the **bit-identical
//! state digest and span count**: the thread knob is pure wall-clock,
//! exactly the sharded world's determinism contract. Wall times and the
//! derived speedup are machine-dependent (the perf gate bands them);
//! everything else in a row — shard count, cross-shard event count, the
//! scoped store's staled / solved / oracle-sweep counts, the digest
//! itself — is deterministic and compared exactly.

use std::time::Instant;

use peercache_core::approx::ApproxConfig;
use peercache_core::scoped::{ScopedConfig, StoreWork};
use peercache_core::sharded::{ShardConfig, ShardedWorld};
use peercache_core::world::WorldEvent;
use peercache_core::Network;
use peercache_graph::paths::Parallelism;
use peercache_graph::regions::splitmix64;
use peercache_graph::{builders, NodeId};

/// Grid side of the full sweep (2500 nodes, ~20 shards at the default
/// region bound).
pub const GRID_SIDE: usize = 50;

/// Live-chunk retention cap and warm-up chunk count of the sweep.
pub const RETENTION: usize = 6;

/// Churn ticks measured after warm-up.
pub const TICKS: usize = 8;

/// Seed of the churn trace.
pub const TRACE_SEED: u64 = 0x5EED_5EED;

/// Thread settings of the sweep. The host's actual core count does not
/// matter for correctness — every setting must digest identically; on a
/// single-core host the wall times simply stay flat.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Builds the sweep world: a `side`×`side` grid, producer at node 0,
/// capacity 5, under the default scoped geometry and the given thread
/// budget.
pub fn sweep_world(side: usize, threads: usize) -> ShardedWorld {
    let net =
        Network::new(builders::grid(side, side), NodeId::new(0), 5).expect("grid network builds");
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism: Parallelism::Threads(threads),
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    ShardedWorld::new(net, cfg)
        .expect("sharded world builds")
        .with_retention(RETENTION)
}

/// The event batch of churn tick `t`: three seeded departures, one
/// seeded link drop, one arrival. Picks are pure functions of
/// `(TRACE_SEED, t)` — never of world state — so every thread setting
/// replays the identical trace. Picks that the model refuses (the
/// producer, an already-inactive node, a cut that would disconnect the
/// active set) are *counted as rejected* by the world, identically
/// across settings.
pub fn trace_tick(t: usize, nodes: usize, edges: &[(NodeId, NodeId)]) -> Vec<WorldEvent> {
    let mut events = Vec::with_capacity(5);
    for i in 0..3u64 {
        let pick = splitmix64(TRACE_SEED ^ (t as u64) << 8 ^ i) as usize % nodes;
        events.push(WorldEvent::NodeDeparted(NodeId::new(pick.max(1))));
    }
    let e = splitmix64(TRACE_SEED ^ (t as u64) << 16 ^ 0xE0) as usize % edges.len();
    let (u, v) = edges[e];
    events.push(WorldEvent::LinkDown(u, v));
    events.push(WorldEvent::ChunkArrived);
    events
}

/// One row of the thread sweep.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Thread budget of this run.
    pub threads: usize,
    /// Wall time of the measured churn ticks (warm-up excluded).
    pub wall_ms: f64,
    /// Final state digest, identical across every thread setting.
    pub digest: u64,
    /// Deterministic span count (ticks + placed chunks).
    pub spans: u64,
    /// Cross-shard events counted over the whole run.
    pub cross_shard_events: u64,
    /// Shards of the world's partition.
    pub shards: usize,
    /// Scoped-store work over the whole run (warm-up included).
    pub work: StoreWork,
}

/// Runs warm-up plus the [`TICKS`]-tick churn trace under one thread
/// setting and returns the row.
pub fn measure_threads(side: usize, ticks: usize, threads: usize) -> ShardRow {
    let mut world = sweep_world(side, threads);
    let nodes = world.network().node_count();
    let edges: Vec<(NodeId, NodeId)> = world.network().graph().edges().collect();
    for _ in 0..RETENTION {
        world
            .apply(WorldEvent::ChunkArrived)
            .expect("warm-up arrival places");
    }
    let start = Instant::now();
    for t in 0..ticks {
        world
            .tick(&trace_tick(t, nodes, &edges))
            .expect("churn tick succeeds");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    world.validate().expect("sweep leaves a valid world");
    ShardRow {
        threads,
        wall_ms,
        digest: world.state_digest(),
        spans: world.span_count(),
        cross_shard_events: world.cross_shard_events(),
        shards: world.shard_count(),
        work: world.store_work(),
    }
}

/// Runs the full sweep over [`THREADS`], asserting the determinism
/// contract — every setting must produce the same digest, span count,
/// shard count, cross-shard event count, and scoped-store work.
pub fn run_sweep(side: usize, ticks: usize) -> Vec<ShardRow> {
    let rows: Vec<ShardRow> = THREADS
        .iter()
        .map(|&threads| measure_threads(side, ticks, threads))
        .collect();
    for r in &rows[1..] {
        assert_eq!(
            r.digest, rows[0].digest,
            "threads={} diverged from threads={} (digest)",
            r.threads, rows[0].threads
        );
        assert_eq!(r.spans, rows[0].spans, "span count diverged");
        assert_eq!(r.shards, rows[0].shards, "shard count diverged");
        assert_eq!(
            r.cross_shard_events, rows[0].cross_shard_events,
            "cross-shard event count diverged"
        );
        assert_eq!(r.work, rows[0].work, "scoped-store work diverged");
    }
    rows
}

/// `wall(threads=1) / wall(threads=8)` of a sweep: > 1 when the shard
/// fan-out buys wall-clock, ~1 on a single-core host. Machine-dependent
/// by nature — the perf gate bands it, never compares it exactly.
pub fn speedup_8x(rows: &[ShardRow]) -> f64 {
    let wall_of = |threads: usize| {
        rows.iter()
            .find(|r| r.threads == threads)
            .map_or(f64::NAN, |r| r.wall_ms)
    };
    wall_of(1) / wall_of(8)
}

/// Re-measures `BENCH_shard.json` in its committed format.
pub fn baseline() -> String {
    render_json(GRID_SIDE, TICKS, &run_sweep(GRID_SIDE, TICKS))
}

/// Renders the sweep in the exact committed `BENCH_shard.json` format.
fn render_json(side: usize, ticks: usize, rows: &[ShardRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"shard\",\n");
    out.push_str(&format!("  \"topology\": \"grid{side}\",\n"));
    out.push_str(&format!("  \"nodes\": {},\n", side * side));
    out.push_str(&format!("  \"retention\": {RETENTION},\n"));
    out.push_str(&format!("  \"ticks\": {ticks},\n"));
    out.push_str(&format!("  \"shards\": {},\n", rows[0].shards));
    out.push_str(&format!("  \"digest\": \"{:#018x}\",\n", rows[0].digest));
    out.push_str(&format!("  \"spans\": {},\n", rows[0].spans));
    out.push_str(&format!(
        "  \"cross_shard_events\": {},\n",
        rows[0].cross_shard_events
    ));
    let work = rows[0].work;
    out.push_str(&format!("  \"blocks_staled\": {},\n", work.blocks_staled));
    out.push_str(&format!("  \"blocks_solved\": {},\n", work.blocks_solved));
    out.push_str(&format!(
        "  \"oracle_refreshes\": {},\n",
        work.oracle_refreshes
    ));
    out.push_str(&format!("  \"speedup_8x\": {:.3},\n", speedup_8x(rows)));
    out.push_str("  \"rows\": [\n");
    for (idx, r) in rows.iter().enumerate() {
        let comma = if idx + 1 < rows.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_ms\": {:.1}}}{comma}\n",
            r.threads, r.wall_ms,
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_is_deterministic_across_thread_settings() {
        let rows = run_sweep(12, 2);
        assert_eq!(rows.len(), THREADS.len());
        assert!(rows[0].shards > 1);
        assert!(rows[0].cross_shard_events > 0);
        // run_sweep itself asserted digest/span equality; spot-check the
        // digest is also stable across a re-run (cross-run determinism,
        // the property the perf gate's exact digest compare rests on).
        let again = run_sweep(12, 2);
        assert_eq!(rows[0].digest, again[0].digest);
        assert_eq!(rows[0].spans, again[0].spans);
        assert_eq!(rows[0].work, again[0].work);
        assert!(rows[0].work.blocks_solved > 0);
    }

    #[test]
    fn trace_ticks_are_pure_functions_of_the_seed() {
        let edges: Vec<(NodeId, NodeId)> = vec![(NodeId::new(0), NodeId::new(1))];
        assert_eq!(trace_tick(3, 100, &edges), trace_tick(3, 100, &edges));
        assert_ne!(trace_tick(3, 100, &edges), trace_tick(4, 100, &edges));
        // Departure picks never name the producer (node 0).
        for t in 0..50 {
            for ev in trace_tick(t, 100, &edges) {
                if let WorldEvent::NodeDeparted(n) = ev {
                    assert!(n.index() >= 1);
                }
            }
        }
    }

    #[test]
    fn render_json_parses_back() {
        let rows = vec![
            ShardRow {
                threads: 1,
                wall_ms: 100.0,
                digest: 0xDEAD_BEEF,
                spans: 40,
                cross_shard_events: 99,
                shards: 21,
                work: StoreWork::default(),
            },
            ShardRow {
                threads: 8,
                wall_ms: 50.0,
                digest: 0xDEAD_BEEF,
                spans: 40,
                cross_shard_events: 99,
                shards: 21,
                work: StoreWork::default(),
            },
        ];
        let text = render_json(50, 8, &rows);
        let doc = peercache_obs::Json::parse(&text).expect("renders valid JSON");
        let rendered = format!("{doc:?}");
        assert!(rendered.contains("speedup_8x"));
        assert!(rendered.contains("blocks_solved"));
        assert!(rendered.contains("0x00000000deadbeef"));
    }
}
