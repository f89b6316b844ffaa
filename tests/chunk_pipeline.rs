//! Equivalence pins for the per-chunk planning pipelines.
//!
//! * **Dense planners vs. a fresh-matrix replay.** Every dense planner
//!   carries one contention matrix across chunks and refreshes it from
//!   the previous commit. Replaying the same pipeline through the public
//!   layer functions, with a freshly built `ConflInstance` per chunk,
//!   must reproduce each chunk's placement bit for bit (Dist, Brtf,
//!   Ilp). Hopc/Cont pick their sets from the topology alone, so their
//!   recorded caches are re-committed on a twin network priced afresh.
//! * **Sharded arrivals vs. Hier.** With one `ChunkArrived` per tick and
//!   no churn, the sharded world's arrivals must place exactly what the
//!   hierarchical planner places on the same network and geometry:
//!   caches, `(client, provider)` rows and the access-cost bits per
//!   chunk, then the final network. Trees are left out: tick phase 5
//!   rebuilds every trunk tree after the store update.

use peercache::baselines::BaselineConfig;
use peercache::dist::engine::LossConfig;
use peercache::dist::sim::run_chunk_round;
use peercache::dist::view::build_views;
use peercache::exact::{best_facility_set, solve_chunk_milp};
use peercache::instance::ConflInstance;
use peercache::placement::ChunkPlacement;
use peercache::planner::{commit_chunk, prune_unused_facilities};
use peercache::prelude::*;
use peercache::scoped::HierarchicalPlanner;

/// Builds `chunk`'s instance from scratch: all-pairs paths recomputed
/// from the network's current state.
fn fresh_instance(net: &Network, chunk: ChunkId, weights: CostWeights) -> ConflInstance {
    ConflInstance::build_for_chunk(
        net,
        chunk,
        weights,
        peercache::graph::paths::PathSelection::FewestHops,
    )
    .expect("fresh instance builds")
}

/// Replays `chunks` chunks on `net`, pricing each with a fresh instance
/// and taking its facility set from `select`.
fn fresh_replay(
    net: &mut Network,
    chunks: usize,
    weights: CostWeights,
    mut select: impl FnMut(&Network, &ConflInstance, ChunkId) -> Vec<NodeId>,
) -> Vec<ChunkPlacement> {
    (0..chunks)
        .map(|q| {
            let chunk = ChunkId::new(q);
            let inst = fresh_instance(net, chunk, weights);
            let set = select(net, &inst, chunk);
            commit_chunk(net, &inst, chunk, &set).expect("commit succeeds")
        })
        .collect()
}

fn assert_same_chunks(label: &str, planned: &Placement, replayed: &[ChunkPlacement]) {
    assert_eq!(
        planned.chunks().len(),
        replayed.len(),
        "{label}: chunk count"
    );
    for (p, r) in planned.chunks().iter().zip(replayed) {
        assert_eq!(p, r, "{label}: chunk {} differs", p.chunk);
        assert_eq!(
            p.costs.total().to_bits(),
            r.costs.total().to_bits(),
            "{label}: chunk {} cost bits",
            p.chunk
        );
    }
}

#[test]
fn dist_equals_a_fresh_matrix_replay() {
    const CHUNKS: usize = 4;
    for seed in 1..=6u64 {
        let base = paper_random(100, seed).unwrap();
        let planner = if seed % 2 == 0 {
            DistributedPlanner::with_loss(LossConfig {
                drop_probability: 0.2,
                seed,
            })
        } else {
            DistributedPlanner::default()
        };
        let cfg = planner.config.clone();
        let mut planned_net = base.clone();
        let planned = planner.plan(&mut planned_net, CHUNKS).unwrap();
        let mut replay_net = base.clone();
        let replayed = fresh_replay(&mut replay_net, CHUNKS, cfg.weights, |net, inst, chunk| {
            let (views, _) = build_views(net, cfg.k_hops).unwrap();
            let round = run_chunk_round(net, &views, chunk, &cfg.sim);
            prune_unused_facilities(net, inst, &round.admins)
        });
        assert_same_chunks(&format!("Dist seed {seed}"), &planned, &replayed);
        assert_eq!(planned_net, replay_net, "Dist seed {seed}: final network");
    }
}

#[test]
fn brute_force_equals_a_fresh_matrix_replay() {
    const CHUNKS: usize = 4;
    let planner = BruteForcePlanner::default();
    let grid = Network::new(builders::grid(3, 4), NodeId::new(5), 3).unwrap();
    for base in [grid, paper_random(12, 2).unwrap()] {
        let mut planned_net = base.clone();
        let planned = planner.plan(&mut planned_net, CHUNKS).unwrap();
        let mut replay_net = base;
        let replayed = fresh_replay(
            &mut replay_net,
            CHUNKS,
            planner.config.weights,
            |net, inst, _| best_facility_set(net, inst, planner.config.max_candidates).unwrap(),
        );
        assert_same_chunks("Brtf", &planned, &replayed);
        assert_eq!(planned_net, replay_net, "Brtf: final network");
    }
}

#[test]
fn milp_equals_a_fresh_matrix_replay() {
    const CHUNKS: usize = 3;
    let planner = MilpPlanner::default();
    let base = Network::new(builders::grid(2, 3), NodeId::new(0), 2).unwrap();
    let mut planned_net = base.clone();
    let planned = planner.plan(&mut planned_net, CHUNKS).unwrap();
    let mut replay_net = base;
    let replayed = fresh_replay(
        &mut replay_net,
        CHUNKS,
        planner.config.weights,
        |net, inst, _| solve_chunk_milp(net, inst).unwrap().0,
    );
    assert_same_chunks("Ilp", &planned, &replayed);
    assert_eq!(planned_net, replay_net, "Ilp: final network");
}

#[test]
fn greedy_baselines_equal_a_fresh_matrix_recommit() {
    const CHUNKS: usize = 8;
    for planner in [
        GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
        GreedyBaselinePlanner::contention(BaselineConfig::default()),
    ] {
        for base in [paper_grid(6).unwrap(), paper_random(60, 3).unwrap()] {
            let mut planned_net = base.clone();
            let planned = planner.plan(&mut planned_net, CHUNKS).unwrap();
            let mut recommitted = planned.chunks().iter();
            let mut twin = base.clone();
            let replayed = fresh_replay(&mut twin, CHUNKS, planner.config.weights, |_, _, _| {
                recommitted
                    .next()
                    .expect("one record per chunk")
                    .caches
                    .clone()
            });
            assert_same_chunks(planner.name(), &planned, &replayed);
            assert_eq!(planned_net, twin, "{}: final network", planner.name());
        }
    }
}

/// `(client, provider, cost bits)` rows the sharded world holds for
/// `chunk`, in client order.
fn shard_rows(world: &ShardedWorld, chunk: ChunkId) -> Vec<(NodeId, NodeId, u64)> {
    world
        .chunk(chunk)
        .expect("chunk is live")
        .rows
        .iter()
        .map(|&(client, provider, cost)| (client, provider, cost.to_bits()))
        .collect()
}

#[test]
fn sharded_arrivals_equal_hierarchical_placements() {
    for (side, region_max, chunks) in [(20usize, 40usize, 6usize), (30, 128, 8), (12, 16, 8)] {
        let scoped = ScopedConfig {
            region_max,
            ..ScopedConfig::default()
        };
        let approx = peercache::approx::ApproxConfig::default();
        let base = paper_grid(side).unwrap();
        let mut hier_net = base.clone();
        let hier = HierarchicalPlanner::new(approx.clone(), scoped)
            .plan(&mut hier_net, chunks)
            .unwrap();
        let mut world = ShardedWorld::new(base, ShardConfig { approx, scoped }).unwrap();
        assert!(world.shard_count() > 1, "grid{side}: needs several regions");
        for expected in hier.chunks() {
            let report = world.tick(&[WorldEvent::ChunkArrived]).unwrap();
            assert_eq!(report.placed, vec![expected.chunk]);
            let label = format!(
                "grid{side} region_max={region_max} chunk {}",
                expected.chunk
            );
            let record = world.chunk(expected.chunk).expect("chunk is live");
            assert_eq!(record.caches, expected.caches, "{label}: caches");
            let rows = shard_rows(&world, expected.chunk);
            let assignment: Vec<(NodeId, NodeId)> = rows.iter().map(|&(j, p, _)| (j, p)).collect();
            assert_eq!(assignment, expected.assignment, "{label}: assignment");
            let access: f64 = rows.iter().map(|&(_, _, bits)| f64::from_bits(bits)).sum();
            assert_eq!(
                access.to_bits(),
                expected.costs.access.to_bits(),
                "{label}: access-cost bits"
            );
        }
        assert_eq!(world.network(), &hier_net, "grid{side}: final network");
    }
}
