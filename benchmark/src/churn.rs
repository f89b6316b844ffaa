//! `churn-grid20`: the dense `CacheWorld` under node and link churn
//! beside arrivals.
//!
//! Uses the dense layers incrementally (topology updates, orphan-scoped
//! repair), so writes sit beside repairs. `improve_by_removal` never
//! runs on the timed path: an improve-only change must show no change
//! here.

use peercache_core::approx::ApproxConfig;
use peercache_core::metrics::gini;
use peercache_core::workload::paper_grid;
use peercache_core::world::{CacheWorld, EventOutcome, WorldEvent};
use peercache_core::{CoreError, Network};
use peercache_graph::paths::Parallelism;
use peercache_graph::NodeId;

use crate::metrics::percentile;
use crate::{
    first_accepted, fold_chunk, mix, run_units, timed, Outcome, Picks, Role, Sample, Settings,
    Sizes, Tally, UnitRun,
};

/// Grid side (400 nodes).
pub const SIDE: usize = 20;
/// Live-chunk retention window, filled by the warm-up.
pub const RETENTION: usize = 6;
/// Episodes in the reference set and in the check set, and steps per
/// episode.
pub const SIZES: (Sizes, usize) = (
    Sizes {
        reference: 2,
        check: 6,
    },
    25,
);
/// The same for a quick run.
pub const QUICK: (Sizes, usize) = (
    Sizes {
        reference: 1,
        check: 1,
    },
    3,
);

/// A fresh world with the retention window full of live chunks.
fn warm_world() -> Result<CacheWorld, CoreError> {
    let cfg = ApproxConfig {
        parallelism: Parallelism::Sequential,
        ..ApproxConfig::default()
    };
    let mut world = CacheWorld::new(paper_grid(SIDE)?, cfg).with_retention(RETENTION);
    for _ in 0..RETENTION {
        world.apply(WorldEvent::ChunkArrived)?;
    }
    Ok(world)
}

/// A step's departure and link: a seeded client whose departure keeps
/// the active nodes connected, then a seeded surviving link whose drop
/// does too.
fn pick_step(net: &Network, picks: &mut Picks) -> Option<(NodeId, (NodeId, NodeId))> {
    let mut scratch = net.clone();
    let clients: Vec<NodeId> = net.clients().collect();
    let victim = first_accepted(&clients, picks, |v| scratch.deactivate_node(v).is_ok())?;
    let links: Vec<(NodeId, NodeId)> = scratch.graph().edges().collect();
    let link = first_accepted(&links, picks, |(u, v)| {
        scratch.remove_link(u, v).is_ok_and(|removed| removed)
    })?;
    Some((victim, link))
}

/// Runs the workload. One op is one step: `NodeDeparted`, `LinkDown`,
/// `LinkUp` of the same link, then `ChunkArrived`.
pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let (mut arrival, mut departure, mut link) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratio = 0.0;
    let (sizes, steps) = if s.quick { QUICK } else { SIZES };
    let timings = run_units(s, sizes, |p, meter| {
        let at_s = meter.mark();
        let (world, ms) = timed(warm_world);
        let mut world = match world {
            Ok(w) => w,
            Err(err) => {
                out.errors.push(format!("{p}: warm-up failed: {err}"));
                return None;
            }
        };
        let mut run = UnitRun {
            setup: Sample { at_s, ms },
            ..UnitRun::default()
        };
        let mut picks = Picks::new(p.seed);
        for _ in 0..steps {
            let Some((victim, (u, v))) = pick_step(world.network(), &mut picks) else {
                out.errors
                    .push(format!("{p}: no departure keeps the grid connected"));
                break;
            };
            let at_s = meter.mark();
            let mut step_ms = 0.0;
            let mut ok = true;
            for event in [
                WorldEvent::NodeDeparted(victim),
                WorldEvent::LinkDown(u, v),
                WorldEvent::LinkUp(u, v),
                WorldEvent::ChunkArrived,
            ] {
                let (outcome, ms) = timed(|| world.apply(event));
                step_ms += ms;
                match outcome {
                    Err(_) => ok = false,
                    Ok(_) if !p.first => {}
                    Ok(EventOutcome::Departed(r)) => {
                        departure.push(ms);
                        tally.add("core.world.apsp_rows", r.apsp_rows as f64);
                        tally.add("core.world.repaired", r.repaired.len() as f64);
                        tally.add("core.world.refreshed", r.refreshed.len() as f64);
                        tally.add("core.world.new_copies", r.new_copies.len() as f64);
                        tally.add("core.world.orphaned_clients", r.orphaned_clients as f64);
                    }
                    Ok(EventOutcome::LinkRemoved { refreshed, .. }) => {
                        link.push(ms);
                        tally.add("core.world.link_refreshed", refreshed.len() as f64);
                    }
                    Ok(EventOutcome::LinkAdded { .. }) => link.push(ms),
                    Ok(_) => arrival.push(ms),
                }
            }
            if ok {
                run.ops.push(Sample { at_s, ms: step_ms });
            } else {
                out.failed += u64::from(p.first);
            }
        }
        let live: Vec<_> = world
            .live_chunks()
            .iter()
            .filter_map(|&c| world.placement(c))
            .collect();
        run.digest = live.iter().fold(0, |h, cp| fold_chunk(h, cp));
        if !p.first {
            return Some(run);
        }
        if let Err(err) = world.validate() {
            out.errors.push(format!("{p}: {err}"));
        }
        if p.role == Role::Reference {
            out.cost_total += live.iter().map(|cp| cp.contention_cost()).sum::<f64>();
            out.load_gini += gini(&world.network().load_vector());
        }
        if p.role != Role::Fill {
            out.digest = mix(out.digest, run.digest);
            if s.traced {
                match world.repair_vs_replan() {
                    Ok(gap) => ratio += gap.cost_ratio,
                    Err(err) => out.errors.push(format!("{p}: replan failed: {err}")),
                }
            }
        }
        Some(run)
    });
    out.add_timings(timings);
    if s.traced {
        out.layers = tally.means(out.op_ms.len());
        out.layers.extend([
            ("core.world.arrival_ms_p50", percentile(&arrival, 50.0)),
            ("core.world.departure_ms_p50", percentile(&departure, 50.0)),
            ("core.world.link_ms_p50", percentile(&link, 50.0)),
            (
                "core.world.repair_cost_ratio",
                ratio / (sizes.reference + sizes.check) as f64,
            ),
        ]);
    }
    out
}
