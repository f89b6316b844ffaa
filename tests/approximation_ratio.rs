//! Theorem 1 in practice: the iterative approximation stays within the
//! 6.55 factor of the (practical) optimum on every instance we can
//! solve exactly. The paper's own measurement saw at most 5.6.

use peercache::exact::solve_chunk_milp;
use peercache::instance::ConflInstance;
use peercache::prelude::*;

use peercache::costs::CostWeights;

fn total_objective(p: &Placement) -> f64 {
    let c = p.total_costs();
    c.fairness + c.access + c.dissemination
}

#[test]
fn ratio_on_small_grids_is_within_bound() {
    for (rows, cols, producer, chunks) in [(2, 2, 0, 2), (2, 3, 0, 2), (3, 3, 4, 3), (3, 4, 5, 3)] {
        let build = || {
            ScenarioBuilder::new(Topology::Grid { rows, cols })
                .capacity(5)
                .producer(producer)
                .build()
                .unwrap()
        };
        let mut exact_net = build();
        let exact = BruteForcePlanner::default()
            .plan(&mut exact_net, chunks)
            .unwrap();
        let mut appx_net = build();
        let appx = ApproxPlanner::default()
            .plan(&mut appx_net, chunks)
            .unwrap();
        let ratio = total_objective(&appx) / total_objective(&exact);
        assert!(
            ratio <= 6.55 + 1e-9,
            "{rows}x{cols}: ratio {ratio:.3} exceeds the proven bound"
        );
        // Both planners are per-chunk optimal/approximate but myopic
        // across chunks: the exact solver's aggressive early caching
        // inflates the contention later chunks see, so on multi-chunk
        // totals the approximation can genuinely come out ahead. The
        // single-chunk dominance (exact <= approx) is asserted
        // separately in `single_chunk_exact_dominates_approx`.
        assert!(
            ratio >= 0.75,
            "{rows}x{cols}: approximation implausibly beat the exact solver ({ratio:.3})"
        );
    }
}

#[test]
fn ratio_on_random_networks_is_within_bound() {
    for seed in 0..6u64 {
        let build = || {
            ScenarioBuilder::new(Topology::RandomGeometric {
                nodes: 12,
                range: 0.35,
            })
            .capacity(4)
            .producer(0)
            .seed(seed)
            .build()
            .unwrap()
        };
        let mut exact_net = build();
        let exact = BruteForcePlanner::default()
            .plan(&mut exact_net, 2)
            .unwrap();
        let mut appx_net = build();
        let appx = ApproxPlanner::default().plan(&mut appx_net, 2).unwrap();
        let ratio = total_objective(&appx) / total_objective(&exact);
        // Lower bound below 1: per-chunk exactness is myopic across
        // chunks (see `ratio_on_small_grids_is_within_bound`).
        assert!(
            (0.9..=6.55).contains(&ratio),
            "seed {seed}: ratio {ratio:.3} out of range"
        );
    }
}

#[test]
fn single_chunk_exact_dominates_approx() {
    // On a single chunk both solve the same ConFL instance, so the
    // exact optimum is a true lower bound and 6.55x a true upper bound.
    for (rows, cols, producer) in [(2, 3, 0), (3, 3, 4), (3, 4, 5)] {
        let build = || {
            ScenarioBuilder::new(Topology::Grid { rows, cols })
                .capacity(5)
                .producer(producer)
                .build()
                .unwrap()
        };
        let mut exact_net = build();
        let exact = BruteForcePlanner::default()
            .plan(&mut exact_net, 1)
            .unwrap();
        let mut appx_net = build();
        let appx = ApproxPlanner::default().plan(&mut appx_net, 1).unwrap();
        let ratio = total_objective(&appx) / total_objective(&exact);
        assert!(
            (1.0 - 1e-9..=6.55).contains(&ratio),
            "{rows}x{cols}: single-chunk ratio {ratio:.3} out of range"
        );
    }
}

#[test]
fn distributed_ratio_stays_moderate() {
    use peercache::dist::DistributedPlanner;
    let build = || {
        ScenarioBuilder::new(Topology::Grid { rows: 3, cols: 4 })
            .capacity(5)
            .producer(5)
            .build()
            .unwrap()
    };
    let mut exact_net = build();
    let exact = BruteForcePlanner::default()
        .plan(&mut exact_net, 3)
        .unwrap();
    let mut dist_net = build();
    let dist = DistributedPlanner::default()
        .plan(&mut dist_net, 3)
        .unwrap();
    let ratio = total_objective(&dist) / total_objective(&exact);
    // The distributed variant has no proven bound (k-hop information
    // only); empirically it stays in the same ballpark.
    assert!(
        ratio < 6.55,
        "distributed ratio {ratio:.3} unexpectedly high"
    );
}

#[test]
fn milp_certifies_the_brute_force_on_tiny_instances() {
    // On a path graph KMB trees are exact, so the brute force equals
    // the certified MILP optimum for each single-chunk instance.
    let net = Network::new(builders::path(5), NodeId::new(0), 2).unwrap();
    let inst = ConflInstance::build(&net, CostWeights::default()).unwrap();
    let brtf = peercache::exact::best_facility_set(&net, &inst, 20).unwrap();
    let (brtf_costs, _, _) = inst.evaluate_set(&net, &brtf).unwrap();
    let (_, milp_obj) = solve_chunk_milp(&net, &inst).unwrap();
    assert!((brtf_costs.total() - milp_obj).abs() < 1e-6);
}

#[test]
fn milp_lower_bounds_brute_force_on_a_grid() {
    let net = Network::new(builders::grid(2, 3), NodeId::new(1), 3).unwrap();
    let inst = ConflInstance::build(&net, CostWeights::default()).unwrap();
    let brtf = peercache::exact::best_facility_set(&net, &inst, 20).unwrap();
    let (brtf_costs, _, _) = inst.evaluate_set(&net, &brtf).unwrap();
    let (_, milp_obj) = solve_chunk_milp(&net, &inst).unwrap();
    assert!(milp_obj <= brtf_costs.total() + 1e-6);
    assert!(brtf_costs.total() <= 2.0 * milp_obj + 1e-6);
}
