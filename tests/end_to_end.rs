//! End-to-end invariants that every planner must uphold, checked across
//! all five algorithms on shared scenarios.

use peercache::dist::DistributedPlanner;
use peercache::graph::mst::UnionFind;
use peercache::prelude::*;

fn planners() -> Vec<Box<dyn CachePlanner>> {
    vec![
        Box::new(ApproxPlanner::default()),
        Box::new(DistributedPlanner::default()),
        Box::new(GreedyBaselinePlanner::hop_count(BaselineConfig::default())),
        Box::new(GreedyBaselinePlanner::contention(BaselineConfig::default())),
    ]
}

/// Checks every structural invariant of a finished placement.
fn check_placement(net: &Network, placement: &Placement, who: &str) {
    for node in net.graph().nodes() {
        assert!(
            net.used(node) <= net.capacity(node),
            "{who}: node {node} over capacity"
        );
    }
    assert!(
        net.used(net.producer()) == 0,
        "{who}: producer must never cache"
    );
    for cp in placement.chunks() {
        // Every cache holds the chunk it was assigned.
        for &c in &cp.caches {
            assert!(net.is_cached(c, cp.chunk), "{who}: missing copy on {c}");
            assert_ne!(c, net.producer(), "{who}: producer in cache set");
        }
        // Every client is assigned to a node that can serve the chunk.
        assert_eq!(
            cp.assignment.len(),
            net.node_count() - 1,
            "{who}: missing clients"
        );
        for &(client, provider) in &cp.assignment {
            assert_ne!(client, net.producer());
            assert!(
                provider == net.producer() || cp.caches.contains(&provider),
                "{who}: client {client} assigned to non-provider {provider}"
            );
        }
        // The dissemination tree spans caches ∪ producer without cycles.
        let mut uf = UnionFind::new(net.node_count());
        for &(u, v) in &cp.tree_edges {
            assert!(
                net.graph().contains_edge(u, v),
                "{who}: tree edge ({u},{v}) not in graph"
            );
            assert!(uf.union(u.index(), v.index()), "{who}: cycle in tree");
        }
        for &c in &cp.caches {
            assert!(
                uf.connected(c.index(), net.producer().index()),
                "{who}: cache {c} not connected to producer"
            );
        }
        // Cost sanity.
        assert!(cp.costs.access >= 0.0 && cp.costs.access.is_finite());
        assert!(cp.costs.dissemination >= 0.0 && cp.costs.dissemination.is_finite());
        assert!(cp.costs.fairness >= 0.0 && cp.costs.fairness.is_finite());
        if cp.caches.is_empty() {
            assert_eq!(cp.costs.dissemination, 0.0);
            assert_eq!(cp.costs.fairness, 0.0);
        }
    }
}

#[test]
fn all_planners_satisfy_invariants_on_the_paper_grid() {
    for planner in planners() {
        let mut net = paper_grid(6).unwrap();
        let placement = planner.plan(&mut net, 5).unwrap();
        assert_eq!(placement.chunks().len(), 5, "{}", planner.name());
        check_placement(&net, &placement, planner.name());
    }
}

#[test]
fn all_planners_satisfy_invariants_on_random_networks() {
    for seed in [1u64, 2, 3] {
        for planner in planners() {
            let mut net = paper_random(40, seed).unwrap();
            let placement = planner.plan(&mut net, 4).unwrap();
            check_placement(&net, &placement, planner.name());
        }
    }
}

#[test]
fn brute_force_satisfies_invariants_on_small_grids() {
    let mut net = ScenarioBuilder::new(Topology::Grid { rows: 3, cols: 3 })
        .capacity(3)
        .producer(4)
        .build()
        .unwrap();
    let placement = BruteForcePlanner::default().plan(&mut net, 3).unwrap();
    check_placement(&net, &placement, "Brtf");
}

#[test]
fn planners_handle_chunks_beyond_total_capacity() {
    // 3x3, capacity 1 => 8 slots; 12 chunks exceed storage. Planners
    // must degrade to producer-only placements, not crash.
    for planner in planners() {
        let mut net = ScenarioBuilder::new(Topology::Grid { rows: 3, cols: 3 })
            .capacity(1)
            .producer(4)
            .build()
            .unwrap();
        let placement = planner.plan(&mut net, 12).unwrap();
        assert_eq!(placement.chunks().len(), 12, "{}", planner.name());
        check_placement(&net, &placement, planner.name());
        let last = placement.chunks().last().unwrap();
        assert!(
            last.caches.is_empty(),
            "{}: storage was exhausted",
            planner.name()
        );
    }
}

#[test]
fn costs_accumulate_monotonically() {
    let mut net = paper_grid(5).unwrap();
    let placement = ApproxPlanner::default().plan(&mut net, 5).unwrap();
    let acc = placement.accumulated_contention();
    for w in acc.windows(2) {
        assert!(w[1] >= w[0]);
    }
    assert!((acc.last().unwrap() - placement.total_contention_cost()).abs() < 1e-9);
}

#[test]
fn identical_scenarios_produce_identical_plans() {
    for planner in planners() {
        let mut a = paper_grid(4).unwrap();
        let mut b = paper_grid(4).unwrap();
        let pa = planner.plan(&mut a, 3).unwrap();
        let pb = planner.plan(&mut b, 3).unwrap();
        assert_eq!(pa, pb, "{} is nondeterministic", planner.name());
        assert_eq!(a, b);
    }
}

#[test]
fn run_planner_leaves_the_original_untouched() {
    let net = paper_grid(4).unwrap();
    let planner = ApproxPlanner::default();
    let (placement, final_state) = peercache_bench::harness::run_planner(&planner, &net, 3);
    assert_eq!(net.load_vector(), vec![0; 16]);
    assert_eq!(placement.chunks().len(), 3);
    assert!(final_state.load_vector().iter().sum::<usize>() > 0);
}
