//! Property tests for the incremental contention recompute: after any
//! sequence of cache commits, departures and link flips, refreshing a
//! carried [`ContentionMatrix`] with [`ContentionMatrix::update`] must
//! be bitwise identical to computing a fresh matrix from the new state,
//! and the threaded refresh bitwise identical to the sequential one.

use proptest::prelude::*;

use peercache_core::costs::ContentionMatrix;
use peercache_core::{ChunkId, Network};
use peercache_graph::paths::Parallelism;
use peercache_graph::{builders, NodeId};

/// Connected Erdős–Rényi networks of 6–31 nodes, and grids of up to
/// 7×7 whose equal-cost ties exercise the parent-id tie rule.
fn network() -> impl Strategy<Value = Network> {
    prop_oneof![
        (
            6usize..32,
            0u64..500,
            prop_oneof![Just(0.08f64), Just(0.2), Just(0.45)],
        )
            .prop_map(|(n, seed, p)| {
                use rand::SeedableRng;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                let g = builders::erdos_renyi_connected(n, p, &mut rng);
                Network::new(g, NodeId::new(0), 8).unwrap()
            }),
        (2usize..8, 3usize..8).prop_map(|(rows, cols)| {
            let producer = NodeId::new(rows * cols / 2);
            Network::new(builders::grid(rows, cols), producer, 8).unwrap()
        }),
    ]
}

fn assert_matrices_identical(a: &ContentionMatrix, b: &ContentionMatrix, n: usize) {
    for u in (0..n).map(NodeId::new) {
        for v in (0..n).map(NodeId::new) {
            assert_eq!(
                a.cost(u, v).to_bits(),
                b.cost(u, v).to_bits(),
                "cost({u},{v}): {} vs {}",
                a.cost(u, v),
                b.cost(u, v)
            );
            assert_eq!(a.hops(u, v), b.hops(u, v), "hops({u},{v})");
            assert_eq!(a.path(u, v), b.path(u, v), "path({u},{v})");
        }
    }
    for k in (0..n).map(NodeId::new) {
        assert_eq!(a.node_term(k).to_bits(), b.node_term(k).to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn update_after_commits_departures_and_link_flips_matches_fresh_compute(
        net in network(),
        ops in prop::collection::vec(
            (
                prop::collection::vec((0usize..64, 0usize..16), 1..17),
                0usize..3,
                0usize..64,
                0usize..64,
            ),
            1..5,
        ),
    ) {
        let n = net.node_count();
        // A batch commits to up to a third of the nodes, as one chunk of
        // a Q = 8 plan does on a 300-node network (about 28 caches).
        let per_batch = (n / 3).max(1);
        let mut incremental = ContentionMatrix::compute(&net).unwrap();
        let mut threaded = incremental.clone();
        let mut net = net.clone();
        for (batch, topology, a, b) in &ops {
            // Apply a batch of cache commits, recording which nodes
            // changed state (plus the producer, whose term follows the
            // distinct-chunk population).
            let mut dirty = vec![net.producer()];
            for &(node, chunk) in batch.iter().take(per_batch) {
                let node = NodeId::new(node % n);
                let chunk = ChunkId::new(chunk);
                if !net.is_cached(node, chunk) && net.cache(node, chunk).is_ok() {
                    dirty.push(node);
                }
            }
            // Then, in the same refresh, a departure or a link flip
            // (either may be refused, e.g. when it would disconnect the
            // network).
            let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
            match topology {
                1 => {
                    if let Ok(dep) = net.deactivate_node(a) {
                        dirty.push(a);
                        dirty.extend(dep.former_neighbors);
                    }
                }
                2 if a != b => {
                    let flipped = if net.graph().contains_edge(a, b) {
                        net.remove_link(a, b)
                    } else {
                        net.add_link(a, b)
                    };
                    if flipped.is_ok_and(|f| f) {
                        dirty.extend([a, b]);
                    }
                }
                _ => {}
            }
            let redone = incremental
                .update(&net, &dirty, Parallelism::Sequential)
                .unwrap();
            prop_assert!(redone <= n, "recomputed more sources than exist");
            let redone_threaded = threaded
                .update(&net, &dirty, Parallelism::Threads(2))
                .unwrap();
            prop_assert_eq!(redone, redone_threaded);
            assert_matrices_identical(&threaded, &incremental, n);
            let fresh = ContentionMatrix::compute(&net).unwrap();
            assert_matrices_identical(&incremental, &fresh, n);
        }
    }

    #[test]
    fn update_with_no_changes_recomputes_nothing(net in network()) {
        let mut m = ContentionMatrix::compute(&net).unwrap();
        let redone = m.update(&net, &[], Parallelism::Sequential).unwrap();
        prop_assert_eq!(redone, 0, "a no-op change set must not invalidate any source");
    }
}
