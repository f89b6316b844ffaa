//! The paper's headline evaluation claims, asserted as inequalities.
//!
//! Absolute numbers differ from the paper (different Steiner routine,
//! calibrated baseline λ), but the *shapes* must hold: who wins, in
//! which metric, and in which direction things move.

use peercache::dist::DistributedPlanner;
use peercache::prelude::*;

struct Outcome {
    total_contention: f64,
    gini: f64,
    fairness75: f64,
    caching_nodes: usize,
}

fn run(planner: &dyn CachePlanner, net: &mut Network, chunks: usize) -> Outcome {
    let placement = planner.plan(net, chunks).unwrap();
    let loads: Vec<usize> = net.clients().map(|n| net.used(n)).collect();
    Outcome {
        total_contention: placement.total_contention_cost(),
        gini: metrics::gini(&loads),
        fairness75: metrics::p_percentile_fairness(&loads, 0.75),
        caching_nodes: loads.iter().filter(|&&l| l > 0).count(),
    }
}

fn grid_outcomes() -> (Outcome, Outcome, Outcome, Outcome) {
    let mut n1 = paper_grid(6).unwrap();
    let mut n2 = paper_grid(6).unwrap();
    let mut n3 = paper_grid(6).unwrap();
    let mut n4 = paper_grid(6).unwrap();
    (
        run(&ApproxPlanner::default(), &mut n1, 5),
        run(&DistributedPlanner::default(), &mut n2, 5),
        run(
            &GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
            &mut n3,
            5,
        ),
        run(
            &GreedyBaselinePlanner::contention(BaselineConfig::default()),
            &mut n4,
            5,
        ),
    )
}

#[test]
fn fairness_ordering_matches_figure_6_and_7() {
    let (appx, dist, hopc, cont) = grid_outcomes();
    // Gini: fair algorithms < Cont < ~Hopc (paper Fig. 7).
    assert!(
        appx.gini < cont.gini,
        "appx {:.3} vs cont {:.3}",
        appx.gini,
        cont.gini
    );
    assert!(
        dist.gini < cont.gini,
        "dist {:.3} vs cont {:.3}",
        dist.gini,
        cont.gini
    );
    assert!(cont.gini <= hopc.gini + 1e-9);
    // Paper: "our algorithms have Gini coefficient less than 40%".
    assert!(appx.gini < 0.4, "appx gini {:.3}", appx.gini);
    // 75-percentile fairness ordering (Fig. 6): Appx/Dist >> Cont >> Hopc.
    assert!(appx.fairness75 > 2.0 * cont.fairness75);
    assert!(dist.fairness75 > 2.0 * cont.fairness75);
    assert!(cont.fairness75 > hopc.fairness75);
}

#[test]
fn contention_cost_ordering_matches_figure_2() {
    let (appx, dist, hopc, cont) = grid_outcomes();
    // Hopc is clearly the worst on contention (paper: ~52% worse).
    assert!(hopc.total_contention > appx.total_contention);
    assert!(hopc.total_contention > cont.total_contention);
    // Appx is comparable to Cont (paper: within ~9% either way).
    let rel = (appx.total_contention - cont.total_contention) / cont.total_contention;
    assert!(
        rel < 0.15,
        "appx should be within 15% of cont, got {rel:+.2}"
    );
    // Dist is comparable too, with a looser budget (k-hop info only).
    let rel_d = (dist.total_contention - cont.total_contention) / cont.total_contention;
    assert!(rel_d < 0.25, "dist within 25% of cont, got {rel_d:+.2}");
}

#[test]
fn cache_spread_matches_figure_1() {
    let (appx, dist, hopc, cont) = grid_outcomes();
    // Paper Fig. 1/6: fair algorithms recruit ~4x more caching nodes.
    assert!(appx.caching_nodes >= 3 * hopc.caching_nodes);
    assert!(dist.caching_nodes >= 2 * hopc.caching_nodes);
    assert!(appx.caching_nodes > cont.caching_nodes);
    // Baselines concentrate: Hopc picks very few nodes.
    assert!(hopc.caching_nodes <= 4);
}

#[test]
fn hop_limit_sweep_matches_figure_3() {
    // k = 1 starves the protocol; k >= 2 plateaus (paper Fig. 3).
    let mut costs = Vec::new();
    for k in 1..=3u32 {
        let mut net = paper_grid(6).unwrap();
        let planner = DistributedPlanner::with_k_hops(k);
        let placement = planner.plan(&mut net, 5).unwrap();
        costs.push(placement.total_contention_cost());
    }
    assert!(
        costs[0] > 1.1 * costs[1],
        "k=1 ({:.0}) should be clearly worse than k=2 ({:.0})",
        costs[0],
        costs[1]
    );
    let plateau = (costs[1] - costs[2]).abs() / costs[1];
    assert!(
        plateau < 0.15,
        "k=2 vs k=3 should be close, got {plateau:.2}"
    );
}

#[test]
fn gini_stays_low_across_network_sizes() {
    // Paper Fig. 7 claims the fair algorithms' Gini *drops* with size;
    // in our reconstruction the caching set grows slower than the node
    // count, so the coefficient drifts up mildly instead (documented
    // deviation in EXPERIMENTS.md). What must hold: the paper's "<40%"
    // band at every size, while the baselines sit far above it.
    for side in [4usize, 6, 8] {
        let mut net = paper_grid(side).unwrap();
        ApproxPlanner::default().plan(&mut net, 5).unwrap();
        let loads: Vec<usize> = net.clients().map(|n| net.used(n)).collect();
        let g = metrics::gini(&loads);
        assert!(
            g < 0.4,
            "{side}x{side}: appx gini {g:.3} above the paper's band"
        );

        let mut bnet = paper_grid(side).unwrap();
        GreedyBaselinePlanner::hop_count(BaselineConfig::default())
            .plan(&mut bnet, 5)
            .unwrap();
        let bloads: Vec<usize> = bnet.clients().map(|n| bnet.used(n)).collect();
        assert!(
            metrics::gini(&bloads) > 2.0 * g,
            "{side}x{side}: baseline not far above"
        );
    }
}

/// Runs a planner on the Fig. 8/9 scenario and re-costs the placement
/// against the final network state, as §V describes for the multi-item
/// comparison ("putting all the chunks to the original connected graph
/// based on which nodes access which chunks in all rounds").
fn final_costed(planner: &dyn CachePlanner, chunks: usize) -> Placement {
    use peercache::costs::CostWeights;
    let mut net = paper_grid(6).unwrap();
    let placement = planner.plan(&mut net, chunks).unwrap();
    peercache::placement::recost_final(&net, &placement, CostWeights::default()).unwrap()
}

#[test]
fn multi_chunk_growth_matches_figure_8() {
    // Under the multi-item accounting (all rounds priced on the final
    // graph) the fair planner's accumulated cost ends at or below both
    // baselines' (paper: ~4% below Cont, ~25% below Hopc).
    let appx = final_costed(&ApproxPlanner::default(), 10).accumulated_contention();
    let hopc = final_costed(
        &GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
        10,
    )
    .accumulated_contention();
    let cont = final_costed(
        &GreedyBaselinePlanner::contention(BaselineConfig::default()),
        10,
    )
    .accumulated_contention();
    assert!(
        *appx.last().unwrap() < hopc.last().unwrap() * 0.9,
        "appx {:.0} should clearly beat hopc {:.0}",
        appx.last().unwrap(),
        hopc.last().unwrap()
    );
    assert!(
        *appx.last().unwrap() < cont.last().unwrap() * 1.05,
        "appx {:.0} should be within ~5% of cont {:.0}",
        appx.last().unwrap(),
        cont.last().unwrap()
    );
}

#[test]
fn per_chunk_costs_match_figure_9() {
    // Fig. 9: the baselines "always choose the same nodes for the first
    // five chunks, and the same nodes for the next five chunks" — two
    // flat plateaus — while the fair planner's per-chunk costs vary
    // smoothly and sit lower for most chunks.
    let appx = final_costed(&ApproxPlanner::default(), 10).per_chunk_contention();
    let hopc = final_costed(
        &GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
        10,
    )
    .per_chunk_contention();
    // Hopc plateaus: constant within each capacity round.
    for w in hopc[..5].windows(2).chain(hopc[5..].windows(2)) {
        assert!((w[0] - w[1]).abs() < 1e-6, "hopc should plateau: {hopc:?}");
    }
    // Appx is cheaper on at least 8 of the 10 chunks.
    let wins = appx.iter().zip(&hopc).filter(|(a, h)| a < h).count();
    assert!(wins >= 8, "appx cheaper on only {wins}/10 chunks");
    // And its spread stays moderate (no capacity-cliff structure).
    let max = appx.iter().cloned().fold(f64::MIN, f64::max);
    let min = appx.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 1.5, "appx per-chunk spread too wide: {appx:?}");
}

#[test]
fn random_networks_match_figure_4_ordering() {
    for seed in [11u64, 12] {
        let mut n1 = paper_random(60, seed).unwrap();
        let mut n2 = paper_random(60, seed).unwrap();
        let mut n3 = paper_random(60, seed).unwrap();
        let appx = run(&ApproxPlanner::default(), &mut n1, 5);
        let hopc = run(
            &GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
            &mut n2,
            5,
        );
        let cont = run(
            &GreedyBaselinePlanner::contention(BaselineConfig::default()),
            &mut n3,
            5,
        );
        assert!(appx.total_contention < hopc.total_contention, "seed {seed}");
        assert!(appx.gini < cont.gini, "seed {seed}");
    }
}
