//! `plan-rgg300`: the whole dense Appx pipeline, improve-by-removal
//! included, on a fresh random geometric network per op.
//!
//! Varied random instances rather than one grid's tie structure. The
//! workload bypasses world repair, the scoped store and the distributed
//! protocol. [`run_plans`] is shared with `dist-chaos`.

use peercache_core::approx::{dual_ascent, ApproxConfig, ApproxPlanner};
use peercache_core::costs::ContentionMatrix;
use peercache_core::instance::ConflInstance;
use peercache_core::metrics::gini;
use peercache_core::placement::Placement;
use peercache_core::planner::{
    commit_chunk_replicated, improve_by_removal, prune_unused_facilities, CachePlanner,
};
use peercache_core::workload::paper_random;
use peercache_core::{ChunkId, CoreError, Network};
use peercache_graph::paths::Parallelism;
use peercache_graph::NodeId;

use crate::{
    check_placement, fastest_of, mix, placement_digest, run_units, timed, Lap, Outcome, Role,
    Sample, Settings, Sizes, Tally, UnitRun,
};

/// Nodes per network.
pub const NODES: usize = 300;
/// Chunks placed per plan (Q).
pub const CHUNKS: usize = 8;
/// Network generations per set-up; the fastest is reported.
const SETUP_REPEATS: usize = 5;
/// Plans in the reference set and in the check set.
pub const SIZES: Sizes = Sizes {
    reference: 10,
    check: 70,
};
/// The same for a quick run.
pub const QUICK: Sizes = Sizes {
    reference: 1,
    check: 2,
};

/// A planner workload: one `plan(chunks)` call per op, each on a fresh
/// `paper_random(nodes)` network seeded by its unit. `planner_for`
/// builds the planner from the unit seed. In a traced run, `replay`
/// then replays the op on a copy of the network and returns its
/// placement, which must equal the entry point's bit for bit.
pub fn run_plans<P: CachePlanner>(
    s: &Settings,
    sizes: Sizes,
    nodes: usize,
    chunks: usize,
    planner_for: impl Fn(u64) -> P,
    mut replay: impl FnMut(&P, &mut Network) -> Result<Placement, String>,
) -> Outcome {
    let mut out = Outcome::default();
    let (mut entry_ms, mut replay_ms) = (0.0, 0.0);
    let timings = run_units(s, sizes, |p, meter| {
        let at_s = meter.mark();
        let (net, ms) = fastest_of(SETUP_REPEATS, || paper_random(nodes, p.seed));
        let mut run = UnitRun {
            setup: Sample { at_s, ms },
            ..UnitRun::default()
        };
        let mut net = match net {
            Ok(net) => net,
            Err(e) => {
                out.errors.push(format!("network of {p}: {e}"));
                return None;
            }
        };
        let mut replay_net = (s.traced && p.first).then(|| net.clone());
        let planner = planner_for(p.seed);
        let at_s = meter.mark();
        let (placement, ms) = timed(|| planner.plan(&mut net, chunks));
        let Ok(placement) = placement else {
            out.failed += u64::from(p.first);
            return Some(run);
        };
        run.ops.push(Sample { at_s, ms });
        run.digest = placement_digest(&placement);
        if !p.first {
            return Some(run);
        }
        if let Err(e) = check_placement(&net, &placement, chunks) {
            out.errors.push(format!("plan of {p}: {e}"));
        }
        if p.role == Role::Reference {
            out.cost_total += placement.total_contention_cost();
            out.load_gini += gini(&net.load_vector());
        }
        if p.role != Role::Fill {
            out.digest = mix(out.digest, run.digest);
        }
        if let Some(rnet) = replay_net.as_mut() {
            entry_ms += ms;
            let (replayed, ms) = timed(|| replay(&planner, rnet));
            replay_ms += ms;
            match replayed {
                Ok(r) if placement_digest(&r) == run.digest => {}
                Ok(_) => out
                    .errors
                    .push(format!("plan of {p}: replay placement differs")),
                Err(e) => out.errors.push(format!("plan of {p}: replay failed: {e}")),
            }
        }
        Some(run)
    });
    out.add_timings(timings);
    if s.traced {
        out.layers
            .push(("replay.overhead_ratio", replay_ms / entry_ms));
    }
    out
}

/// Runs the workload.
pub fn run(s: &Settings) -> Outcome {
    let cfg = ApproxConfig {
        parallelism: Parallelism::Sequential,
        ..ApproxConfig::default()
    };
    let mut tally = Tally::default();
    let mut out = run_plans(
        s,
        if s.quick { QUICK } else { SIZES },
        NODES,
        CHUNKS,
        |_| ApproxPlanner::new(cfg.clone()),
        |_, net| replay(net, &cfg, &mut tally).map_err(|e| e.to_string()),
    );
    if s.traced {
        out.layers.extend(tally.means(out.op_ms.len()));
    }
    out
}

/// [`ApproxPlanner::plan`] call by call through the public layer
/// functions, timing each call.
fn replay(net: &mut Network, cfg: &ApproxConfig, t: &mut Tally) -> Result<Placement, CoreError> {
    let mut placement = Placement::default();
    let mut carried: Option<(ContentionMatrix, Vec<NodeId>)> = None;
    for q in 0..CHUNKS {
        let chunk = ChunkId::new(q);
        let mut lap = Lap::start();
        let (matrix, rows) = match carried.take() {
            Some((mut matrix, dirty)) => {
                let rows = matrix.update(net, &dirty, cfg.parallelism)?;
                (matrix, rows)
            }
            None => (
                ContentionMatrix::compute_with(net, cfg.selection, cfg.parallelism)?,
                net.node_count(),
            ),
        };
        t.add("core.costs.build_ms", lap.ms());
        t.add("graph.paths.rows_recomputed", rows as f64);
        let inst = ConflInstance::build_for_chunk_with_matrix(net, chunk, cfg.weights, matrix);
        t.add("core.instance.build_ms", lap.ms());
        let (opened, stats) = dual_ascent(net, &inst, cfg)?;
        t.add("core.approx.ascent_ms", lap.ms());
        t.add("core.approx.rounds", stats.rounds as f64);
        t.add("core.approx.opened", stats.opened as f64);
        let pruned = prune_unused_facilities(net, &inst, &opened);
        t.add("core.planner.prune_ms", lap.ms());
        let kept = improve_by_removal(net, &inst, &pruned)?;
        t.add("core.planner.improve_ms", lap.ms());
        t.add("core.planner.removed", (pruned.len() - kept.len()) as f64);
        let cp = commit_chunk_replicated(net, &inst, chunk, &kept, &cfg.replication)?;
        t.add("core.planner.commit_ms", lap.ms());
        t.add("core.planner.copies", cp.caches.len() as f64);
        if q + 1 < CHUNKS {
            let mut dirty = cp.caches.clone();
            dirty.push(net.producer());
            carried = Some((inst.into_matrix(), dirty));
        }
        placement.push(cp);
    }
    Ok(placement)
}
