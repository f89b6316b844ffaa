//! The selective-demand extension: chunks with restricted audiences.
//!
//! The paper assumes every node wants every chunk (§III-A); real apps
//! have per-item audiences. Planning, assignment, and costing honor the
//! per-chunk interest sets configured on the [`Network`].

use peercache::dist::DistributedPlanner;
use peercache::prelude::*;

fn corner_audience(net: &mut Network, chunk: usize) {
    // Only the four grid corners want this chunk.
    let n = net.node_count();
    let side = (n as f64).sqrt() as usize;
    let corners = [0, side - 1, n - side, n - 1];
    net.set_interest(ChunkId::new(chunk), corners.into_iter().map(NodeId::new))
        .unwrap();
}

#[test]
fn assignments_cover_exactly_the_audience() {
    let mut net = paper_grid(6).unwrap();
    corner_audience(&mut net, 1);
    let placement = ApproxPlanner::default().plan(&mut net, 3).unwrap();
    // Chunk 1 is assigned to its four corners only.
    let restricted = &placement.chunks()[1];
    assert_eq!(restricted.assignment.len(), 4);
    for &(client, _) in &restricted.assignment {
        assert!(net.is_interested(client, ChunkId::new(1)));
    }
    // Unrestricted chunks still serve all 35 clients.
    assert_eq!(placement.chunks()[0].assignment.len(), 35);
    assert_eq!(placement.chunks()[2].assignment.len(), 35);
}

#[test]
fn restricted_chunks_cost_less_and_cache_less() {
    let run = |restrict: bool| {
        let mut net = paper_grid(6).unwrap();
        if restrict {
            corner_audience(&mut net, 0);
        }
        let p = ApproxPlanner::default().plan(&mut net, 1).unwrap();
        (p.chunks()[0].costs.access, p.chunks()[0].caches.len())
    };
    let (full_access, full_copies) = run(false);
    let (restricted_access, restricted_copies) = run(true);
    assert!(restricted_access < full_access / 2.0);
    assert!(restricted_copies <= full_copies);
}

#[test]
fn empty_audience_places_nothing() {
    let mut net = paper_grid(4).unwrap();
    net.set_interest(ChunkId::new(0), []).unwrap();
    let placement = ApproxPlanner::default().plan(&mut net, 1).unwrap();
    let cp = &placement.chunks()[0];
    assert!(cp.assignment.is_empty());
    assert_eq!(cp.costs.access, 0.0);
    // Nobody asks for it, so no facility is worth opening.
    assert!(cp.caches.is_empty());
}

#[test]
fn exact_solver_honors_interest() {
    let mut net = Network::new(builders::grid(2, 3), NodeId::new(0), 2).unwrap();
    // Only node 5 (far corner) wants chunk 0: the optimum serves it
    // either from the producer or a cache near node 5 — never pays for
    // mass access.
    net.set_interest(ChunkId::new(0), [NodeId::new(5)]).unwrap();
    let placement = BruteForcePlanner::default().plan(&mut net, 1).unwrap();
    let cp = &placement.chunks()[0];
    assert_eq!(cp.assignment.len(), 1);
    assert_eq!(cp.assignment[0].0, NodeId::new(5));
}

#[test]
fn distributed_reporting_respects_interest() {
    let mut net = paper_grid(4).unwrap();
    corner_audience(&mut net, 0);
    let planner = DistributedPlanner::default();
    let placement = planner.plan(&mut net, 2).unwrap();
    assert_eq!(placement.chunks()[0].assignment.len(), 4);
    assert_eq!(placement.chunks()[1].assignment.len(), 15);
}

#[test]
fn online_cache_honors_interest_of_future_chunks() {
    let mut net = paper_grid(4).unwrap();
    net.set_interest(ChunkId::new(1), [NodeId::new(0)]).unwrap();
    let mut cache = CacheWorld::new(net, ApproxConfig::default());
    let first = cache.insert_chunk().unwrap();
    assert_eq!(first.assignment.len(), 15);
    let second = cache.insert_chunk().unwrap();
    assert_eq!(second.assignment.len(), 1);
}
