//! `shard-grid50`: the region-sharded world on a 2500-node grid.
//!
//! Covers the locality stack: scoped store, per-region ascent, shard
//! repair, cross-shard routing and trunk trees. It never builds the
//! dense matrix, so it is the "no change" side for dense-layer work.
//!
//! It runs one thread, like the other workloads. On the 2-vCPU host the
//! benchmark was built on, a second thread made ticks no faster (94 ms
//! against 91 ms at the median), and its speed follows what another
//! tenant runs beside the second vCPU, which the host-speed probe cannot
//! see: eight same-seed runs spread by 12.7% with two threads and by
//! 3.1% with one (see README, "Blind spots").

use peercache_core::approx::ApproxConfig;
use peercache_core::metrics::gini;
use peercache_core::scoped::{ScopedConfig, ScopedContention};
use peercache_core::sharded::{ShardConfig, ShardedWorld};
use peercache_core::world::WorldEvent;
use peercache_core::{CoreError, Network};
use peercache_graph::builders;
use peercache_graph::paths::Parallelism;
use peercache_graph::NodeId;

use crate::{
    first_accepted, mix, run_units, timed, Outcome, Picks, Role, Sample, Settings, Sizes, Tally,
    UnitRun,
};

/// Grid side (2500 nodes).
pub const SIDE: usize = 50;
/// Live-chunk retention window, filled by the warm-up.
pub const RETENTION: usize = 6;
/// Episodes in the reference set and in the check set, and ticks per
/// episode. Four episodes give 100 ticks, so the 90th percentile has
/// ten beyond it, and four set-ups; they fill a 30-second run on a busy
/// host.
pub const SIZES: (Sizes, usize) = (
    Sizes {
        reference: 1,
        check: 3,
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

fn config() -> ShardConfig {
    ShardConfig {
        approx: ApproxConfig {
            parallelism: Parallelism::Sequential,
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    }
}

fn grid() -> Result<Network, CoreError> {
    Network::new(builders::grid(SIDE, SIDE), NodeId::new(0), 5)
}

/// The nodes of every scoped block whose ball holds the producer. They
/// take no churn: `ScopedContention::cost` prices a pair inside a
/// block's ball from that block alone, so a cut inside such a ball
/// prices the producer at infinity while the network stays connected,
/// and the tick then fails (see README, "Known issue").
fn producer_balls(world: &ShardedWorld) -> Vec<bool> {
    let (net, part) = (world.network(), world.scoped().partition());
    let mut held = vec![false; net.node_count()];
    for r in 0..part.region_count() {
        let ball = part.ball_of(net.graph(), r, world.config().scoped.halo_hops);
        if ball.contains(&net.producer()) {
            for n in ball {
                held[n.index()] = true;
            }
        }
    }
    held
}

/// A tick's batch: three seeded departures, the previous tick's downed
/// link back up, one seeded link drop and one arrival, picked so that
/// the model accepts every event and no `held` node is touched. Returns
/// the batch and its downed link.
fn pick_tick(
    net: &Network,
    held: &[bool],
    prev: Option<(NodeId, NodeId)>,
    picks: &mut Picks,
) -> Option<(Vec<WorldEvent>, (NodeId, NodeId))> {
    let mut scratch = net.clone();
    let touches_prev = |n: NodeId| prev.is_some_and(|(a, b)| n == a || n == b);
    let clients: Vec<NodeId> = net
        .clients()
        .filter(|&n| !touches_prev(n) && !held[n.index()])
        .collect();
    let mut events = Vec::with_capacity(6);
    for _ in 0..3 {
        let v = first_accepted(&clients, picks, |v| scratch.deactivate_node(v).is_ok())?;
        events.push(WorldEvent::NodeDeparted(v));
    }
    if let Some((a, b)) = prev {
        scratch.add_link(a, b).ok()?;
        events.push(WorldEvent::LinkUp(a, b));
    }
    let links: Vec<(NodeId, NodeId)> = scratch
        .graph()
        .edges()
        .filter(|&(u, v)| {
            !(held[u.index()] || held[v.index()] || touches_prev(u) && touches_prev(v))
        })
        .collect();
    let cut = first_accepted(&links, picks, |(u, v)| {
        scratch.remove_link(u, v).is_ok_and(|removed| removed)
    })?;
    events.push(WorldEvent::LinkDown(cut.0, cut.1));
    events.push(WorldEvent::ChunkArrived);
    Some((events, cut))
}

/// Runs the workload. One op is one `tick()`.
pub fn run(s: &Settings) -> Outcome {
    let cfg = config();
    let mut out = Outcome::default();
    let mut per_tick = Tally::default();
    let mut per_episode = Tally::default();
    let (sizes, ticks) = if s.quick { QUICK } else { SIZES };
    let timings = run_units(s, sizes, |p, meter| {
        if s.traced {
            // Replays the scoped-store build that `ShardedWorld::new` runs.
            let built = grid().and_then(|net| {
                let a = &cfg.approx;
                let (store, ms) =
                    timed(|| ScopedContention::new(&net, cfg.scoped, a.selection, a.parallelism));
                store.map(|_| ms)
            });
            match built {
                Ok(ms) => per_episode.add("core.scoped.build_ms", ms),
                Err(err) => out.errors.push(format!("{p}: scoped build failed: {err}")),
            }
        }
        let mut warm_ms = 0.0;
        let at_s = meter.mark();
        let (world, ms) = timed(|| {
            let mut world = ShardedWorld::new(grid()?, cfg.clone())?.with_retention(RETENTION);
            let (warmed, ms) = timed(|| -> Result<(), CoreError> {
                for _ in 0..RETENTION {
                    world.apply(WorldEvent::ChunkArrived)?;
                }
                Ok(())
            });
            warm_ms = ms;
            warmed.map(|()| world)
        });
        let mut world = match world {
            Ok(w) => w,
            Err(err) => {
                out.errors.push(format!("{p}: set-up failed: {err}"));
                return None;
            }
        };
        let mut run = UnitRun {
            setup: Sample { at_s, ms },
            ..UnitRun::default()
        };
        let mut picks = Picks::new(p.seed);
        let mut prev = None;
        for _ in 0..ticks {
            let held = producer_balls(&world);
            let Some((events, cut)) = pick_tick(world.network(), &held, prev, &mut picks) else {
                out.errors
                    .push(format!("{p}: no batch keeps the grid connected"));
                break;
            };
            prev = Some(cut);
            let at_s = meter.mark();
            let (report, ms) = timed(|| world.tick(&events));
            match report {
                Ok(r) if r.rejected == 0 => {
                    run.ops.push(Sample { at_s, ms });
                    if p.first {
                        per_tick.add("core.sharded.placed", r.placed.len() as f64);
                        per_tick.add("core.sharded.retired", r.retired.len() as f64);
                        per_tick.add("core.sharded.departed", r.departed.len() as f64);
                        per_tick.add(
                            "core.sharded.copies_restored",
                            r.copies_restored.len() as f64,
                        );
                        per_tick.add(
                            "core.sharded.orphans_reassigned",
                            r.orphans_reassigned as f64,
                        );
                        per_tick.add("core.shard.cross_events", r.cross_events as f64);
                    }
                }
                _ => out.failed += u64::from(p.first),
            }
        }
        run.digest = world.state_digest();
        if !p.first {
            return Some(run);
        }
        if let Err(err) = world.validate() {
            out.errors.push(format!("{p}: {err}"));
        }
        per_episode.add("core.sharded.warm_ms", warm_ms);
        per_episode.add(
            "core.scoped.contention_bytes",
            world.scoped().contention_bytes() as f64,
        );
        per_episode.add(
            "core.scoped.regions",
            world.scoped().partition().region_count() as f64,
        );
        if p.role == Role::Reference {
            out.cost_total += world
                .live_chunks()
                .into_iter()
                .filter_map(|c| world.placement(c))
                .map(|cp| cp.contention_cost())
                .sum::<f64>();
            out.load_gini += gini(&world.network().load_vector());
        }
        if p.role != Role::Fill {
            out.digest = mix(out.digest, run.digest);
        }
        Some(run)
    });
    out.add_timings(timings);
    if s.traced {
        out.layers = per_tick.means(out.op_ms.len());
        out.layers.extend(per_episode.means(out.units));
    }
    out
}
