//! The battery-fairness extension (footnote 1 of §III-B): storage and
//! battery Fairness Degree Costs combined in weighted summation.

use peercache::prelude::*;

/// Builds the 6x6 grid with a drained western half.
fn half_drained() -> Network {
    let mut net = paper_grid(6).unwrap();
    for n in net.clients().collect::<Vec<_>>() {
        if n.index() % 6 < 3 {
            net.set_battery(n, 0.15).unwrap();
        }
    }
    net
}

fn side_loads(net: &Network) -> (usize, usize) {
    let mut drained = 0;
    let mut charged = 0;
    for n in net.clients() {
        if n.index() % 6 < 3 {
            drained += net.used(n);
        } else {
            charged += net.used(n);
        }
    }
    (drained, charged)
}

fn plan_with_weight(weight: f64) -> Network {
    let mut net = half_drained();
    let config = ApproxConfig {
        weights: CostWeights {
            battery_fairness: weight,
            ..Default::default()
        },
        ..Default::default()
    };
    ApproxPlanner::new(config).plan(&mut net, 5).unwrap();
    net
}

#[test]
fn battery_weight_shifts_load_to_charged_nodes() {
    let (d0, _) = side_loads(&plan_with_weight(0.0));
    let (d16, c16) = side_loads(&plan_with_weight(16.0));
    assert!(
        d16 * 2 < d0,
        "heavy battery weight should at least halve drained-side load: {d0} -> {d16}"
    );
    assert!(c16 > 0);
}

#[test]
fn zero_weight_reproduces_the_storage_only_planner() {
    // With weight 0 the battery state must be completely invisible.
    let mut fresh = paper_grid(6).unwrap();
    let p1 = ApproxPlanner::default().plan(&mut fresh, 5).unwrap();
    let mut drained = half_drained();
    let p2 = ApproxPlanner::default().plan(&mut drained, 5).unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn empty_battery_nodes_are_never_selected_under_battery_weight() {
    let mut net = paper_grid(4).unwrap();
    let dead: Vec<NodeId> = net.clients().take(4).collect();
    for &n in &dead {
        net.set_battery(n, 0.0).unwrap();
    }
    let config = ApproxConfig {
        weights: CostWeights {
            battery_fairness: 1.0,
            ..Default::default()
        },
        ..Default::default()
    };
    ApproxPlanner::new(config).plan(&mut net, 3).unwrap();
    for &n in &dead {
        assert_eq!(net.used(n), 0, "dead node {n} was asked to cache");
    }
}

#[test]
fn exact_solver_honors_battery_costs_too() {
    let mut net = Network::new(builders::grid(2, 3), NodeId::new(0), 3).unwrap();
    // Make node 1 the obvious facility EXCEPT for its dead battery.
    net.set_battery(NodeId::new(1), 0.01).unwrap();
    let config = ExactConfig {
        weights: CostWeights {
            battery_fairness: 5.0,
            ..Default::default()
        },
        ..Default::default()
    };
    BruteForcePlanner::new(config).plan(&mut net, 2).unwrap();
    assert_eq!(net.used(NodeId::new(1)), 0);
}

#[test]
fn draining_battery_over_time_rotates_load_online() {
    let net = paper_grid(5).unwrap();
    let config = ApproxConfig {
        weights: CostWeights {
            battery_fairness: 8.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut cache = CacheWorld::new(net, config).with_retention(3);
    // Caching costs energy: every selected host loses 20% battery per
    // hosted chunk. The planner must keep rotating to charged peers.
    let mut hosts_over_time: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..10 {
        let caches = cache.insert_chunk().unwrap().caches.clone();
        for &n in &caches {
            cache.drain_battery(n, 0.2);
        }
        hosts_over_time.push(caches);
    }
    // Distinct hosts across the session far exceed one round's set.
    let mut all: Vec<NodeId> = hosts_over_time.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    let first_round = hosts_over_time[0].len().max(1);
    assert!(
        all.len() >= first_round * 2,
        "expected host rotation: {} distinct vs {} in round one",
        all.len(),
        first_round
    );
    for n in cache.network().graph().nodes() {
        assert!(cache.network().used(n) <= cache.network().capacity(n));
    }
}
