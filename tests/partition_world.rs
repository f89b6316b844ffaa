//! Partition-tolerance suite for the world layer: under the `Allow`
//! policy, seeded churn traces may split the active subgraph, and the
//! incremental component labels must match a from-scratch search after
//! *every* event. Heals must fold deferred demand back in, and the
//! reconciled records must be byte-identical to a fresh independent
//! evaluation of the merged component.

mod common;
mod world_digest;

use common::XorShift;
use peercache::approx::ApproxConfig;
use peercache::graph::components::components_of_subset;
use peercache::instance::ConflInstance;
use peercache::prelude::*;

/// What happened while driving a partition-heavy trace.
#[derive(Debug, PartialEq)]
struct TraceStats {
    applied: usize,
    rejected: usize,
    formed: usize,
    healed: usize,
    max_components: usize,
    /// Every attempted event's outcome and every partition transition,
    /// folded by [`world_digest`].
    outcomes: u64,
}

/// Keep at least this many active nodes so departures cannot hollow
/// out the audience entirely.
const MIN_ACTIVE: usize = 8;

/// Drives `attempts` randomly generated events through a
/// partition-tolerant `world`, heavy on link churn so the active
/// subgraph actually splits and merges. After *every* event the
/// incremental component labels are checked against
/// [`components_of_subset`] (the from-scratch search) and the world
/// must pass its own audit.
fn drive(world: &mut CacheWorld, seed: u64, attempts: usize) -> TraceStats {
    let mut rng = XorShift::new(seed);
    let mut stats = TraceStats {
        applied: 0,
        rejected: 0,
        formed: 0,
        healed: 0,
        max_components: 1,
        outcomes: world_digest::SEED,
    };
    for _ in 0..attempts {
        let roll = rng.below(100);
        let event = if roll < 30 || world.live_chunks().is_empty() {
            WorldEvent::ChunkArrived
        } else if roll < 40 {
            let live = world.live_chunks();
            WorldEvent::ChunkRetired(live[rng.below(live.len())])
        } else if roll < 50 {
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
        } else if roll < 58 {
            let active = world.network().active_nodes();
            let a = active[rng.below(active.len())];
            let b = active[rng.below(active.len())];
            let neighbors = if a == b { vec![a] } else { vec![a, b] };
            WorldEvent::NodeJoined {
                neighbors,
                capacity: 3 + rng.below(3),
            }
        } else if roll < 80 {
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
        let outcome = world.apply(event);
        stats.outcomes = world_digest::fold_outcome(stats.outcomes, &outcome);
        match outcome {
            Ok(_) => stats.applied += 1,
            Err(_) => stats.rejected += 1,
        }
        // The tentpole property: incremental component tracking must
        // agree with a from-scratch search of the active subgraph.
        let net = world.network();
        let expected = components_of_subset(net.graph(), &net.active_nodes());
        assert_eq!(
            net.active_components(),
            expected,
            "incremental component labels diverged from the ground truth"
        );
        assert_eq!(net.component_count(), expected.len());
        stats.max_components = stats.max_components.max(expected.len());
        for event in world.take_partition_events() {
            stats.outcomes = world_digest::fold_partition_event(stats.outcomes, &event);
            match event {
                PartitionEvent::Formed { components, .. } => {
                    stats.formed += 1;
                    assert!(components.len() >= 2, "a split must leave >= 2 components");
                }
                PartitionEvent::Healed { components, .. } => {
                    stats.healed += 1;
                    assert!(!components.is_empty());
                }
            }
        }
        world
            .validate()
            .expect("world must stay consistent after every event");
    }
    stats
}

fn run_trace(net: Network, seed: u64) -> (CacheWorld, TraceStats) {
    let mut world = CacheWorld::new(net, ApproxConfig::default())
        .with_retention(4)
        .partition_tolerant();
    let stats = drive(&mut world, seed, 260);
    (world, stats)
}

#[test]
fn grid_partition_trace_tracks_components_exactly() {
    let (world, stats) = run_trace(paper_grid(6).unwrap(), 0x5EED5);
    assert!(
        stats.applied >= 200,
        "trace too short: only {} events applied",
        stats.applied
    );
    assert!(stats.formed > 0, "trace never split the network");
    assert!(stats.healed > 0, "trace never healed a partition");
    assert!(stats.max_components >= 2);
    world.validate().unwrap();
}

#[test]
fn random_geometric_partition_trace_tracks_components_exactly() {
    let (world, stats) = run_trace(paper_random(24, 7).unwrap(), 0xFACADE);
    assert!(
        stats.applied >= 200,
        "trace too short: only {} events applied",
        stats.applied
    );
    assert!(stats.formed > 0, "trace never split the network");
    assert!(stats.healed > 0, "trace never healed a partition");
    world.validate().unwrap();
}

/// [`world_digest`] of the `partition_traces_replay_identically`
/// trace: every outcome and partition transition, the history, every
/// live record and the deferred demand, bit for bit.
const REPLAY_DIGEST: u64 = 0x9778_759d_67a5_a432;

#[test]
fn partition_traces_replay_identically() {
    let (a, sa) = run_trace(paper_grid(5).unwrap(), 0xDEC0DE);
    let (b, sb) = run_trace(paper_grid(5).unwrap(), 0xDEC0DE);
    assert_eq!(sa, sb);
    assert_eq!(a.live_chunks(), b.live_chunks());
    assert_eq!(a.history(), b.history());
    assert_eq!(a.events_applied(), b.events_applied());
    for &chunk in a.live_chunks() {
        assert_eq!(a.placement(chunk), b.placement(chunk));
    }
    let digest = world_digest::fold_world(sa.outcomes, &a) ^ a.deferred_demand() as u64;
    assert_eq!(
        digest, REPLAY_DIGEST,
        "trace digest {digest:#018x} moved from the pinned records"
    );
}

/// The partition mode is the network's policy: a world built over an
/// `Allow` network without `.partition_tolerant()` degrades exactly
/// like one that opted in. Departing nodes 1 and 4 of the 4x4 grid
/// islands corner 0; every event must apply, the world must stay valid,
/// and its outcomes, records, deferred demand and partition log must
/// equal the opted-in world's.
#[test]
fn a_world_over_an_allow_network_is_partition_tolerant() {
    let config = ApproxConfig::default();
    let mut net = paper_grid(4).unwrap();
    net.set_partition_policy(PartitionPolicy::Allow);
    let mut plain = CacheWorld::new(net, config.clone());
    let mut opted = CacheWorld::new(paper_grid(4).unwrap(), config).partition_tolerant();
    let trace = [
        WorldEvent::ChunkArrived,
        WorldEvent::ChunkArrived,
        WorldEvent::ChunkArrived,
        WorldEvent::NodeDeparted(NodeId::new(1)),
        WorldEvent::NodeDeparted(NodeId::new(4)),
        WorldEvent::ChunkArrived,
        WorldEvent::NodeJoined {
            neighbors: vec![NodeId::new(0), NodeId::new(5)],
            capacity: 3,
        },
        WorldEvent::ChunkArrived,
    ];
    let mut formed = 0;
    for event in trace {
        let a = plain.apply(event.clone());
        let b = opted.apply(event.clone());
        assert!(a.is_ok(), "{event:?} failed on the Allow world: {a:?}");
        assert!(b.is_ok(), "{event:?} failed on the opted-in world: {b:?}");
        plain.validate().unwrap();
        opted.validate().unwrap();
        assert_eq!(
            world_digest::fold_outcome(0, &a),
            world_digest::fold_outcome(0, &b),
            "outcomes of {event:?}"
        );
        let log = plain.take_partition_events();
        formed += log
            .iter()
            .filter(|e| matches!(e, PartitionEvent::Formed { .. }))
            .count();
        assert_eq!(log, opted.take_partition_events(), "log after {event:?}");
        assert_eq!(plain.deferred_demand(), opted.deferred_demand());
        assert_eq!(plain.live_chunks(), opted.live_chunks());
        for &chunk in plain.live_chunks() {
            assert_eq!(plain.placement(chunk), opted.placement(chunk));
        }
    }
    assert_eq!(formed, 1, "the second departure islands corner 0");
    assert_eq!(plain.history(), opted.history());
    assert_eq!(plain.network(), opted.network());
}

/// Walks a deterministic split → publish-while-split → heal sequence
/// on the paper grid and checks the reconciled records byte-for-byte
/// against an independent evaluation of the merged component.
#[test]
fn heal_reconciliation_matches_a_fresh_evaluation_of_the_merged_component() {
    let config = ApproxConfig::default();
    let mut world = CacheWorld::new(paper_grid(4).unwrap(), config.clone()).partition_tolerant();
    world.apply(WorldEvent::ChunkArrived).unwrap();
    world.apply(WorldEvent::ChunkArrived).unwrap();

    // Sever corner node 0 (edges to 1 and 4 on the 4x4 grid).
    let corner = NodeId::new(0);
    world
        .apply(WorldEvent::LinkDown(corner, NodeId::new(1)))
        .unwrap();
    assert!(
        world.take_partition_events().is_empty(),
        "one redundant link down must not partition the grid"
    );
    world
        .apply(WorldEvent::LinkDown(corner, NodeId::new(4)))
        .unwrap();
    let expected_deferred: usize = world
        .live_chunks()
        .iter()
        .filter(|&&c| !world.network().is_cached(corner, c))
        .count();
    match world.take_partition_events().as_slice() {
        [PartitionEvent::Formed {
            components,
            deferred_clients,
        }] => {
            assert_eq!(components.len(), 2);
            assert_eq!(components[0], vec![corner]);
            assert_eq!(*deferred_clients, expected_deferred);
        }
        other => panic!("expected one Formed event, got {other:?}"),
    }
    assert_eq!(world.deferred_demand(), expected_deferred);

    // Publishing while split plans the producer side; the severed
    // corner's demand for the new chunk is deferred too.
    world.apply(WorldEvent::ChunkArrived).unwrap();
    let deferred_before_heal = world.deferred_demand();
    assert!(deferred_before_heal > expected_deferred);
    world.validate().unwrap();

    // Heal through one of the cut edges.
    world
        .apply(WorldEvent::LinkUp(corner, NodeId::new(1)))
        .unwrap();
    match world.take_partition_events().as_slice() {
        [PartitionEvent::Healed {
            components,
            restored_clients,
        }] => {
            assert_eq!(components.len(), 1);
            assert_eq!(*restored_clients, deferred_before_heal);
        }
        other => panic!("expected one Healed event, got {other:?}"),
    }
    assert_eq!(world.deferred_demand(), 0);
    world.validate().unwrap();
    world.repair_vs_replan().unwrap();

    // Byte-identity of the reconciliation: every live record must equal
    // an independent evaluation of its holder set on the merged
    // component (fairness is path-dependent bid history and is
    // deliberately carried, not recomputed — everything else is).
    for &chunk in world.live_chunks() {
        let record = world.placement(chunk).expect("live chunk has a record");
        let inst = ConflInstance::build_for_chunk(
            world.network(),
            chunk,
            config.weights,
            config.selection,
        )
        .unwrap();
        let (costs, assignment, tree_edges) =
            inst.evaluate_set(world.network(), &record.caches).unwrap();
        assert_eq!(record.assignment, assignment, "assignment for {chunk:?}");
        assert_eq!(record.tree_edges, tree_edges, "tree for {chunk:?}");
        assert_eq!(record.costs.access, costs.access, "access for {chunk:?}");
        assert_eq!(
            record.costs.dissemination, costs.dissemination,
            "dissemination for {chunk:?}"
        );
        // Every interested client is served again after the heal.
        assert_eq!(
            world.served_clients(chunk),
            world.network().interested_clients(chunk)
        );
        assert!(world.deferred_clients(chunk).is_empty());
    }
}
