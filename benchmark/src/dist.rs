//! `dist-chaos`: Algorithm 2 under message faults, one fresh random
//! geometric network per op.
//!
//! Exercises `dist::view`, the `dist::sim` / `engine` message loop and
//! the dense cost reporting. No dual ascent, no world.

use peercache_core::instance::ConflInstance;
use peercache_core::placement::Placement;
use peercache_core::planner::{commit_chunk, prune_unused_facilities};
use peercache_core::{ChunkId, CoreError, Network};
use peercache_dist::engine::LossConfig;
use peercache_dist::protocol::MessageStats;
use peercache_dist::sim::{run_chunk_round, SimConfig};
use peercache_dist::view::build_views;
use peercache_dist::{DistributedConfig, DistributedPlanner, FaultPlan, LivenessConfig};

use crate::metrics::percentile;
use crate::plan::run_plans;
use crate::{Lap, Outcome, Settings, Sizes, Tally};

/// Nodes per network.
pub const NODES: usize = 100;
/// Chunks placed per plan (Q).
pub const CHUNKS: usize = 4;
/// Local-control scope in hops.
pub const K_HOPS: u32 = 2;
/// Plans in the reference set and in the check set.
pub const SIZES: Sizes = Sizes {
    reference: 40,
    check: 260,
};
/// The same for a quick run.
pub const QUICK: Sizes = Sizes {
    reference: 1,
    check: 2,
};

/// The protocol under 20% loss, 10% duplication and 10% reordering,
/// with retries, leases and election timeouts armed; fault seeds come
/// from the unit's seed.
fn config(seed: u64) -> DistributedConfig {
    DistributedConfig {
        k_hops: K_HOPS,
        sim: SimConfig {
            loss: LossConfig {
                drop_probability: 0.2,
                seed,
            },
            chaos: FaultPlan::new(seed.rotate_left(32))
                .duplicate(0.1)
                .reorder(0.1, 2),
            liveness: LivenessConfig {
                retry_limit: 3,
                backoff_base: 4,
                backoff_jitter: 2,
                lease_ticks: 20,
                election_timeout: 300,
            },
            ..SimConfig::default()
        },
        ..DistributedConfig::default()
    }
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    let mut tally = Tally::default();
    let mut ticks = Vec::new();
    let mut out = run_plans(
        s,
        if s.quick { QUICK } else { SIZES },
        NODES,
        CHUNKS,
        |seed| DistributedPlanner::new(config(seed)),
        |planner, net| {
            let report = planner.last_report();
            ticks.extend(report.ticks_per_chunk.iter().map(|&t| t as f64));
            tally.add(
                "dist.sim.messages_per_chunk",
                report.messages.total() as f64 / CHUNKS as f64,
            );
            let (placement, stats) =
                replay(net, &planner.config, &mut tally).map_err(|e| e.to_string())?;
            if stats != report.per_chunk {
                return Err("replay message counts differ".into());
            }
            Ok(placement)
        },
    );
    if s.traced {
        out.layers.extend(tally.means(out.op_ms.len()));
        out.layers
            .push(("dist.sim.converge_ticks_p50", percentile(&ticks, 50.0)));
    }
    out
}

/// [`DistributedPlanner::plan`] call by call through the public layer
/// functions, timing each call. Returns the placement and each chunk's
/// message counts (CC exchange included).
fn replay(
    net: &mut Network,
    cfg: &DistributedConfig,
    t: &mut Tally,
) -> Result<(Placement, Vec<MessageStats>), CoreError> {
    let mut placement = Placement::default();
    let mut per_chunk = Vec::new();
    let clients = net.clients().count();
    for q in 0..CHUNKS {
        let chunk = ChunkId::new(q);
        let mut lap = Lap::start();
        let (views, mut stats) = build_views(net, cfg.k_hops)?;
        t.add("dist.view.build_ms", lap.ms());
        t.add("dist.view.cc_messages", stats.total() as f64);
        let round = run_chunk_round(net, &views, chunk, &cfg.sim);
        t.add("dist.sim.round_ms", lap.ms());
        t.add("dist.sim.delivered", round.stats.total() as f64);
        t.add("dist.sim.dropped", round.stats.dropped as f64);
        t.add("dist.sim.retries", round.retries as f64);
        t.add("dist.sim.depositions", round.depositions as f64);
        t.add("dist.sim.faults", round.faults.total() as f64);
        t.add(
            "dist.sim.fallback_share",
            (round.producer_fallbacks + round.degraded.len()) as f64 / (clients * CHUNKS) as f64,
        );
        stats.merge(&round.stats);
        per_chunk.push(stats);
        let inst = ConflInstance::build_for_chunk(net, chunk, cfg.weights, cfg.selection)?;
        t.add("core.instance.build_ms", lap.ms());
        t.add("graph.paths.rows_recomputed", net.node_count() as f64);
        let admins = prune_unused_facilities(net, &inst, &round.admins);
        t.add("core.planner.prune_ms", lap.ms());
        let cp = commit_chunk(net, &inst, chunk, &admins)?;
        t.add("core.planner.commit_ms", lap.ms());
        t.add("core.planner.copies", cp.caches.len() as f64);
        placement.push(cp);
    }
    Ok((placement, per_chunk))
}
