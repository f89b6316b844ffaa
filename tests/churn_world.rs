//! Determinism suite for the churn-aware world layer: long seeded
//! churn traces (arrivals, retirements, departures, joins, link flaps)
//! must keep the world state valid after *every* event, land within the
//! repair-vs-replan cost gap at the end, and replay byte-identically.

mod common;
mod world_digest;

use common::XorShift;
use peercache::approx::ApproxConfig;
use peercache::prelude::*;

/// What happened while driving a trace.
#[derive(Debug, PartialEq)]
struct TraceStats {
    applied: usize,
    rejected: usize,
    departures: usize,
    joins: usize,
    /// Every attempted event's outcome, folded by [`world_digest`].
    outcomes: u64,
}

/// Keep at least this many active nodes so departures cannot hollow
/// out the audience entirely.
const MIN_ACTIVE: usize = 8;

/// Drives `attempts` randomly generated events through `world`,
/// validating the full state after every single one. Events the world
/// legitimately rejects (e.g. a departure that would disconnect the
/// survivors) are counted, not fatal — the state must stay consistent
/// either way.
fn drive(world: &mut CacheWorld, seed: u64, attempts: usize) -> TraceStats {
    let mut rng = XorShift::new(seed);
    let mut stats = TraceStats {
        applied: 0,
        rejected: 0,
        departures: 0,
        joins: 0,
        outcomes: world_digest::SEED,
    };
    for _ in 0..attempts {
        let roll = rng.below(100);
        let event = if roll < 45 || world.live_chunks().is_empty() {
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
        };
        let is_departure = matches!(event, WorldEvent::NodeDeparted(_));
        let is_join = matches!(event, WorldEvent::NodeJoined { .. });
        let outcome = world.apply(event);
        stats.outcomes = world_digest::fold_outcome(stats.outcomes, &outcome);
        match outcome {
            Ok(_) => {
                stats.applied += 1;
                stats.departures += usize::from(is_departure);
                stats.joins += usize::from(is_join);
            }
            Err(_) => stats.rejected += 1,
        }
        world
            .validate()
            .expect("world must stay consistent after every event");
    }
    stats
}

fn run_trace(net: Network, seed: u64) -> (CacheWorld, TraceStats) {
    let mut world = CacheWorld::new(net, ApproxConfig::default()).with_retention(4);
    let stats = drive(&mut world, seed, 230);
    (world, stats)
}

#[test]
fn grid_churn_trace_stays_valid_and_near_replan() {
    let (world, stats) = run_trace(paper_grid(6).unwrap(), 0xC0FFEE);
    assert!(
        stats.applied >= 200,
        "trace too short: only {} events applied",
        stats.applied
    );
    assert!(stats.departures > 0, "trace must exercise departures");
    assert!(stats.joins > 0, "trace must exercise joins");
    world.validate().unwrap();
    let gap = world.repair_vs_replan().unwrap();
    assert!(
        gap.cost_ratio <= 1.5,
        "repaired contention {} vs replanned {} exceeds the 1.5x gap",
        gap.repair_contention,
        gap.replan_contention
    );
}

#[test]
fn random_geometric_churn_trace_stays_valid_and_near_replan() {
    let (world, stats) = run_trace(paper_random(24, 7).unwrap(), 0xFEED);
    assert!(
        stats.applied >= 200,
        "trace too short: only {} events applied",
        stats.applied
    );
    assert!(stats.departures > 0);
    world.validate().unwrap();
    let gap = world.repair_vs_replan().unwrap();
    assert!(
        gap.cost_ratio <= 1.5,
        "repaired contention {} vs replanned {} exceeds the 1.5x gap",
        gap.repair_contention,
        gap.replan_contention
    );
}

/// [`world_digest`] of the `churn_traces_replay_identically` trace:
/// every outcome, the history and every live record, bit for bit.
const REPLAY_DIGEST: u64 = 0xae84_1701_a489_d462;

#[test]
fn churn_traces_replay_identically() {
    let (a, sa) = run_trace(paper_grid(5).unwrap(), 0xDECADE);
    let (b, sb) = run_trace(paper_grid(5).unwrap(), 0xDECADE);
    assert_eq!(sa, sb);
    assert_eq!(a.live_chunks(), b.live_chunks());
    assert_eq!(a.history(), b.history());
    assert_eq!(a.events_applied(), b.events_applied());
    for &chunk in a.live_chunks() {
        assert_eq!(a.placement(chunk), b.placement(chunk));
    }
    let digest = world_digest::fold_world(sa.outcomes, &a);
    assert_eq!(
        digest, REPLAY_DIGEST,
        "trace digest {digest:#018x} moved from the pinned records"
    );
}
