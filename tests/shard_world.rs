//! Determinism suite for the region-sharded world: the same long
//! seeded churn trace (arrivals, retirements, departures, joins, link
//! flaps) must drive [`ShardedWorld`] to a **byte-identical state
//! digest** — and identical per-tick reports, span counts, and
//! cross-shard event totals — under every [`Parallelism`] setting.
//! The digests and cross-shard totals of the traces are pinned.
//! The thread knob is pure wall-clock; any divergence is a scheduling
//! leak in the shard fan-out.
//!
//! `scripts/check.sh` re-runs this suite with `--features
//! strict-invariants`, arming the per-tick oracles (full state
//! validation plus a from-scratch scoped-contention rebuild compare)
//! inside every `tick`.

mod common;

use common::XorShift;
use peercache::approx::ApproxConfig;
use peercache::graph::paths::Parallelism;
use peercache::prelude::*;

/// Keep at least this many active nodes so departures cannot hollow
/// out the audience entirely.
const MIN_ACTIVE: usize = 8;

/// Events per tick batch; [`TICKS`] batches ≥ 200 events total.
const BATCH: usize = 5;

/// Churn ticks driven per trace.
const TICKS: usize = 45;

fn shard_world(net: Network, par: Parallelism) -> ShardedWorld {
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism: par,
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    ShardedWorld::new(net, cfg)
        .expect("sharded world builds")
        .with_retention(5)
}

/// Draws one event from the trace RNG against the current world state.
/// Worlds under different thread settings evolve identically (that is
/// the property under test), so the state-dependent picks stay in
/// lockstep as long as the RNG sequence matches.
fn draw_event(world: &ShardedWorld, rng: &mut XorShift) -> WorldEvent {
    let roll = rng.below(100);
    if roll < 45 || world.live_chunks().is_empty() {
        WorldEvent::ChunkArrived
    } else if roll < 58 {
        let live = world.live_chunks();
        WorldEvent::ChunkRetired(live[rng.below(live.len())])
    } else if roll < 73 {
        let producer = world.network().producer();
        let candidates: Vec<NodeId> = world
            .network()
            .active_nodes()
            .into_iter()
            .filter(|&n| n != producer)
            .collect();
        if candidates.len() < MIN_ACTIVE {
            WorldEvent::ChunkArrived
        } else {
            WorldEvent::NodeDeparted(candidates[rng.below(candidates.len())])
        }
    } else if roll < 81 {
        let active = world.network().active_nodes();
        let a = active[rng.below(active.len())];
        let b = active[rng.below(active.len())];
        let neighbors = if a == b { vec![a] } else { vec![a, b] };
        WorldEvent::NodeJoined {
            neighbors,
            capacity: 3 + rng.below(3),
        }
    } else if roll < 91 {
        let edges: Vec<(NodeId, NodeId)> = world.network().graph().edges().collect();
        let (u, v) = edges[rng.below(edges.len())];
        WorldEvent::LinkDown(u, v)
    } else {
        let active = world.network().active_nodes();
        let a = active[rng.below(active.len())];
        let b = active[rng.below(active.len())];
        if a == b {
            WorldEvent::ChunkArrived
        } else {
            WorldEvent::LinkUp(a, b)
        }
    }
}

/// Outcome of one full trace under one thread setting.
struct TraceRun {
    reports: Vec<TickReport>,
    digest: u64,
    spans: u64,
    cross_events: u64,
    applied: u64,
    rejected: u64,
}

/// Drives [`TICKS`] batches of [`BATCH`] events through a fresh world
/// on `net` and returns everything comparable about the run.
fn run_trace(net: Network, par: Parallelism, seed: u64) -> TraceRun {
    let mut world = shard_world(net, par);
    let mut rng = XorShift::new(seed);
    let mut reports = Vec::with_capacity(TICKS);
    for _ in 0..TICKS {
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            batch.push(draw_event(&world, &mut rng));
        }
        let report = world.tick(&batch).expect("tick never fails wholesale");
        world
            .validate()
            .expect("world must stay consistent after every tick");
        reports.push(report);
    }
    TraceRun {
        digest: world.state_digest(),
        spans: world.span_count(),
        cross_events: world.cross_shard_events(),
        applied: world.events_applied(),
        rejected: world.events_rejected(),
        reports,
    }
}

/// The parallelism sweep of the suite: serial, two workers, and
/// whatever the host auto-detects.
fn settings() -> [Parallelism; 3] {
    [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ]
}

/// [`ShardedWorld::state_digest`] of the grid trace (seed `0x5EED_0001`).
const GRID_DIGEST: u64 = 0xd5b0_814c_cdad_c68c;

/// [`ShardedWorld::state_digest`] of the random geometric trace (seed
/// `0x5EED_0002`).
const RGG_DIGEST: u64 = 0x7b2d_4a4e_7cdf_b4c6;

/// [`ShardedWorld::state_digest`] of the `0xDECADE` replay under `Auto`.
const REPLAY_DIGEST: u64 = 0x731d_101c_752f_2328;

/// [`ShardedWorld::cross_shard_events`] of the grid trace.
const GRID_CROSS: u64 = 23214;

/// [`ShardedWorld::cross_shard_events`] of the random geometric trace.
const RGG_CROSS: u64 = 1412;

/// [`ShardedWorld::cross_shard_events`] of the `0xDECADE` replay.
const REPLAY_CROSS: u64 = 19227;

/// Runs the trace under every [`settings`] entry and asserts each run
/// equals the `Sequential` one and that its digest and cross-shard
/// total are `pinned`.
fn assert_identical_runs(mut make_net: impl FnMut() -> Network, seed: u64, pinned: (u64, u64)) {
    let baseline = run_trace(make_net(), Parallelism::Sequential, seed);
    assert_eq!(
        baseline.digest, pinned.0,
        "state digest {:#018x} moved from the pinned trace",
        baseline.digest
    );
    assert_eq!(
        baseline.cross_events, pinned.1,
        "cross-shard total moved from the pinned trace"
    );
    assert_eq!(
        baseline.applied + baseline.rejected,
        (TICKS * BATCH) as u64,
        "trace must attempt every drawn event"
    );
    assert!(
        baseline.applied >= 200,
        "trace too short: only {} events applied",
        baseline.applied
    );
    assert!(
        baseline.reports.iter().any(|r| !r.departed.is_empty()),
        "trace must exercise departures"
    );
    assert!(
        baseline.reports.iter().any(|r| !r.joined.is_empty()),
        "trace must exercise joins"
    );
    for par in settings().into_iter().skip(1) {
        let run = run_trace(make_net(), par, seed);
        assert_eq!(
            run.digest, baseline.digest,
            "{par:?} diverged from Sequential: state digest differs"
        );
        assert_eq!(run.spans, baseline.spans, "{par:?}: span count differs");
        assert_eq!(
            run.cross_events, baseline.cross_events,
            "{par:?}: cross-shard event count differs"
        );
        assert_eq!(run.applied, baseline.applied);
        assert_eq!(run.rejected, baseline.rejected);
        assert_eq!(
            run.reports, baseline.reports,
            "{par:?}: per-tick reports differ"
        );
    }
}

#[test]
fn grid_churn_trace_is_byte_identical_across_thread_settings() {
    assert_identical_runs(
        || Network::new(builders::grid(14, 14), NodeId::new(0), 5).expect("grid network builds"),
        0x5EED_0001,
        (GRID_DIGEST, GRID_CROSS),
    );
}

#[test]
fn random_geometric_churn_trace_is_byte_identical_across_thread_settings() {
    assert_identical_runs(
        || paper_random(120, 7).expect("rgg network builds"),
        0x5EED_0002,
        (RGG_DIGEST, RGG_CROSS),
    );
}

/// Re-running the identical trace twice under the *same* setting must
/// also reproduce bit-for-bit — cross-run determinism, the property the
/// committed `BENCH_shard.json` digest rests on.
#[test]
fn traces_replay_identically_across_runs() {
    let net =
        || Network::new(builders::grid(12, 12), NodeId::new(0), 5).expect("grid network builds");
    let a = run_trace(net(), Parallelism::Auto, 0xDECADE);
    let b = run_trace(net(), Parallelism::Auto, 0xDECADE);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.spans, b.spans);
    assert_eq!(a.reports, b.reports);
    assert_eq!(
        a.digest, REPLAY_DIGEST,
        "state digest {:#018x} moved from the pinned trace",
        a.digest
    );
    assert_eq!(
        a.cross_events, REPLAY_CROSS,
        "cross-shard total moved from the pinned trace"
    );
}

/// One tick that takes links 0–1 and 14–15 down and brings 0–14 and
/// 1–15 up on a 6×6 grid leaves every degree, hence every contention
/// term, unchanged. The scoped store must still reprice the four pairs:
/// the new links cost their two endpoint terms, and the old pairs are
/// now at least two hops apart.
#[test]
fn a_degree_preserving_link_swap_reprices_the_scoped_store() {
    let net = Network::new(builders::grid(6, 6), NodeId::new(35), 5).expect("grid network builds");
    let cfg = ShardConfig {
        approx: ApproxConfig::default(),
        scoped: ScopedConfig {
            region_max: 12,
            ..ScopedConfig::default()
        },
    };
    let mut world = ShardedWorld::new(net, cfg).expect("sharded world builds");
    world
        .tick(&[WorldEvent::ChunkArrived])
        .expect("arrival ticks");
    let id = NodeId::new;
    let swap = [
        WorldEvent::LinkDown(id(0), id(1)),
        WorldEvent::LinkDown(id(14), id(15)),
        WorldEvent::LinkUp(id(0), id(14)),
        WorldEvent::LinkUp(id(1), id(15)),
    ];
    let report = world.tick(&swap).expect("swap ticks");
    assert_eq!((report.links_removed, report.links_added), (2, 2));
    world.validate().expect("world stays consistent");
    let store = world.scoped();
    for (u, v) in [(0, 14), (1, 15)] {
        let (cost, edge) = (store.cost(id(u), id(v)), store.edge_cost(id(u), id(v)));
        assert_eq!(
            cost.to_bits(),
            edge.to_bits(),
            "new link {u}-{v}: {cost} vs {edge}"
        );
    }
    for (u, v) in [(0, 1), (14, 15)] {
        let (cost, edge) = (store.cost(id(u), id(v)), store.edge_cost(id(u), id(v)));
        assert!(
            cost > edge,
            "dropped link {u}-{v} still priced as one: {cost}"
        );
    }
}
