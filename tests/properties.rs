//! Cross-crate property-based tests (proptest) on randomized networks,
//! capacities and algorithm parameters.

use proptest::prelude::*;

use peercache::costs::{node_contention_terms, ContentionMatrix, CostWeights};
use peercache::graph::{builders, steiner, NodeId};
use peercache::instance::ConflInstance;
use peercache::prelude::*;

/// A random connected scenario: geometric graph + capacities + producer.
fn scenario_strategy() -> impl Strategy<Value = (Network, usize)> {
    (6usize..24, 0u64..500, 1usize..5, 1usize..6).prop_map(|(n, seed, cap, chunks)| {
        let net = ScenarioBuilder::new(Topology::RandomGeometric {
            nodes: n,
            range: 0.35,
        })
        .capacity(cap)
        .producer(0)
        .seed(seed)
        .build()
        .expect("scenario builds");
        (net, chunks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn approx_placements_are_always_valid((net, chunks) in scenario_strategy()) {
        let mut net = net;
        let placement = ApproxPlanner::default().plan(&mut net, chunks).unwrap();
        prop_assert_eq!(placement.chunks().len(), chunks);
        for node in net.graph().nodes() {
            prop_assert!(net.used(node) <= net.capacity(node));
        }
        for cp in placement.chunks() {
            for &(client, provider) in &cp.assignment {
                prop_assert!(net.can_serve(provider, cp.chunk) || cp.caches.contains(&provider));
                prop_assert_ne!(client, net.producer());
            }
            prop_assert!(cp.costs.access.is_finite());
        }
    }

    #[test]
    fn contention_matrix_is_a_metric_on_its_terms((net, _) in scenario_strategy()) {
        let m = ContentionMatrix::compute(&net).unwrap();
        let nodes: Vec<NodeId> = net.graph().nodes().collect();
        for &u in nodes.iter().take(6) {
            prop_assert_eq!(m.cost(u, u), 0.0);
            for &v in nodes.iter().take(6) {
                // Symmetry of the routed (hop-shortest) cost.
                prop_assert!((m.cost(u, v) - m.cost(v, u)).abs() < 1e-9);
                // Lower-bounded by the endpoint terms for u != v.
                if u != v {
                    let lb = m.node_term(u) + m.node_term(v);
                    prop_assert!(m.cost(u, v) >= lb - 1e-9);
                }
            }
        }
    }

    #[test]
    fn node_terms_grow_with_load((net, _) in scenario_strategy()) {
        let mut net = net;
        let before = node_contention_terms(&net);
        // Cache something on the first client with room.
        let target = net.clients().find(|&c| net.remaining(c) > 0);
        prop_assume!(target.is_some());
        let target = target.unwrap();
        net.cache(target, ChunkId::new(0)).unwrap();
        let after = node_contention_terms(&net);
        prop_assert!(after[target.index()] > before[target.index()]);
        // The producer's term also rises: it now serves one published
        // chunk. Everyone else is untouched.
        prop_assert!(after[net.producer().index()] > before[net.producer().index()]);
        for n in net.graph().nodes() {
            if n != target && n != net.producer() {
                prop_assert_eq!(after[n.index()], before[n.index()]);
            }
        }
    }

    #[test]
    fn fairness_cost_is_monotone_in_load(cap in 2usize..10) {
        let g = builders::grid(2, 2);
        let mut net = Network::new(g, NodeId::new(0), cap).unwrap();
        let node = NodeId::new(1);
        let mut last = net.fairness_cost(node);
        for c in 0..cap {
            net.cache(node, ChunkId::new(c)).unwrap();
            let now = net.fairness_cost(node);
            prop_assert!(now > last || now.is_infinite());
            last = now;
        }
        prop_assert!(net.fairness_cost(node).is_infinite());
    }

    #[test]
    fn steiner_tree_cost_is_monotone_in_terminals((net, _) in scenario_strategy()) {
        let g = net.graph();
        let all: Vec<NodeId> = g.nodes().collect();
        let few = &all[..all.len().min(3)];
        let more = &all[..all.len().min(6)];
        let weight = |u: NodeId, v: NodeId| (g.degree(u) + g.degree(v)) as f64;
        let t_few = steiner::steiner_tree(g, few, weight).unwrap();
        let t_more = steiner::steiner_tree(g, more, weight).unwrap();
        // More terminals can only need a costlier (or equal) tree up to
        // the 2x KMB slack.
        prop_assert!(t_more.cost + 1e-9 >= t_few.cost / 2.0);
        // And every tree is within 2x of the spanning-tree upper bound.
        let spanning = steiner::steiner_tree(g, &all, weight).unwrap();
        prop_assert!(t_more.cost <= spanning.cost * 2.0 + 1e-9);
    }

    #[test]
    fn gini_stays_in_unit_interval(loads in prop::collection::vec(0usize..50, 1..64)) {
        let g = metrics::gini(&loads);
        prop_assert!((0.0..=1.0).contains(&g));
    }

    #[test]
    fn percentile_fairness_is_monotone_in_p(loads in prop::collection::vec(0usize..20, 2..40)) {
        let f25 = metrics::p_percentile_fairness(&loads, 0.25);
        let f50 = metrics::p_percentile_fairness(&loads, 0.50);
        let f75 = metrics::p_percentile_fairness(&loads, 0.75);
        prop_assert!(f25 <= f50 + 1e-12);
        prop_assert!(f50 <= f75 + 1e-12);
    }

    #[test]
    fn exact_solver_never_loses_to_approx_on_one_chunk(
        n in 5usize..10,
        seed in 0u64..200,
    ) {
        let net = ScenarioBuilder::new(Topology::RandomGeometric { nodes: n, range: 0.4 })
            .capacity(3)
            .producer(0)
            .seed(seed)
            .build()
            .unwrap();
        let inst = ConflInstance::build(&net, CostWeights::default())
            .unwrap();
        let best = peercache::exact::best_facility_set(&net, &inst, 20).unwrap();
        let (best_costs, _, _) = inst.evaluate_set(&net, &best).unwrap();
        let (facilities, _) = peercache::approx::dual_ascent(
            &net,
            &inst,
            &ApproxConfig::default(),
        )
        .unwrap();
        let pruned = peercache::planner::prune_unused_facilities(&net, &inst, &facilities);
        let (appx_costs, _, _) = inst.evaluate_set(&net, &pruned).unwrap();
        prop_assert!(appx_costs.total() + 1e-9 >= best_costs.total());
        prop_assert!(appx_costs.total() <= 6.55 * best_costs.total() + 1e-9);
    }

    #[test]
    fn bid_increments_do_not_break_validity(
        u_alpha in 0.25f64..4.0,
        u_beta in 0.25f64..4.0,
        u_gamma in 0.25f64..4.0,
    ) {
        let mut net = paper_grid(4).unwrap();
        let cfg = ApproxConfig { u_alpha, u_beta, u_gamma, ..Default::default() };
        let placement = ApproxPlanner::new(cfg).plan(&mut net, 3).unwrap();
        prop_assert_eq!(placement.chunks().len(), 3);
        for node in net.graph().nodes() {
            prop_assert!(net.used(node) <= net.capacity(node));
        }
    }
}
