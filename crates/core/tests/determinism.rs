//! Regression guard for the planning hot path: the optimized pipeline
//! (parallel APSP, incremental contention recompute, event-driven dual
//! ascent, memoised shortest-path trees, ranked-provider removal search)
//! must produce **byte-identical** plans to the original unoptimized
//! pipeline, which stays alive behind the test-only
//! [`ApproxConfig::reference_mode`] flag: it solves every Steiner tree
//! from scratch and re-assigns every client per removal candidate.

use peercache_core::approx::{dual_ascent, ApproxConfig, ApproxPlanner};
use peercache_core::costs::ContentionMatrix;
use peercache_core::instance::ConflInstance;
use peercache_core::planner::{
    commit_chunk_replicated, improve_by_removal, prune_unused_facilities, CachePlanner,
};
use peercache_core::{ChunkId, Network, ReplicationPolicy};
use peercache_graph::paths::Parallelism;
use peercache_graph::{builders, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded 200-node connected random topology — large enough that the
/// incremental APSP, the jump logic and the thread fan-out all engage.
fn random_200(seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = builders::erdos_renyi_connected(200, 0.025, &mut rng);
    Network::new(g, NodeId::new(0), 4).unwrap()
}

fn assert_placements_identical(
    a: &peercache_core::placement::Placement,
    b: &peercache_core::placement::Placement,
    label: &str,
) {
    assert_eq!(a.chunks().len(), b.chunks().len(), "{label}: chunk count");
    for (x, y) in a.chunks().iter().zip(b.chunks()) {
        let q = x.chunk;
        assert_eq!(x.chunk, y.chunk, "{label}: chunk id");
        assert_eq!(x.caches, y.caches, "{label}: caches of chunk {q}");
        assert_eq!(
            x.assignment, y.assignment,
            "{label}: assignment of chunk {q}"
        );
        assert_eq!(x.tree_edges, y.tree_edges, "{label}: tree of chunk {q}");
        for (name, xa, ya) in [
            ("fairness", x.costs.fairness, y.costs.fairness),
            ("access", x.costs.access, y.costs.access),
            (
                "dissemination",
                x.costs.dissemination,
                y.costs.dissemination,
            ),
            ("total", x.costs.total(), y.costs.total()),
        ] {
            assert_eq!(
                xa.to_bits(),
                ya.to_bits(),
                "{label}: {name} cost of chunk {q}: {xa} vs {ya}"
            );
        }
    }
}

#[test]
fn optimized_pipeline_matches_reference_on_random_200() {
    for seed in [3u64, 17] {
        // Optimized path with an explicit thread fan-out, so the test
        // exercises the parallel APSP even on a single-core runner.
        let fast_cfg = ApproxConfig {
            parallelism: Parallelism::Threads(4),
            ..Default::default()
        };
        let reference_cfg = ApproxConfig {
            reference_mode: true,
            parallelism: Parallelism::Sequential,
            ..Default::default()
        };

        let fast = {
            let mut net = random_200(seed);
            ApproxPlanner::new(fast_cfg).plan(&mut net, 3).unwrap()
        };
        let reference = {
            let mut net = random_200(seed);
            ApproxPlanner::new(reference_cfg).plan(&mut net, 3).unwrap()
        };
        assert_placements_identical(&fast, &reference, &format!("seed {seed}"));
        assert!(
            fast.chunks().iter().any(|c| !c.caches.is_empty()),
            "seed {seed}: degenerate run — nothing was cached"
        );
    }
}

#[test]
fn optimized_pipeline_matches_reference_on_grid() {
    let grid = || Network::new(builders::grid(10, 10), NodeId::new(11), 4).unwrap();
    let fast = {
        let mut net = grid();
        ApproxPlanner::default().plan(&mut net, 5).unwrap()
    };
    let reference = {
        let mut net = grid();
        let cfg = ApproxConfig {
            reference_mode: true,
            ..Default::default()
        };
        ApproxPlanner::new(cfg).plan(&mut net, 5).unwrap()
    };
    assert_placements_identical(&fast, &reference, "grid10");
}

#[test]
fn final_network_state_matches_reference() {
    // Placements being equal is necessary; the committed caching state
    // (which feeds every later chunk) must agree too.
    let mut fast_net = random_200(5);
    let mut ref_net = random_200(5);
    ApproxPlanner::default().plan(&mut fast_net, 3).unwrap();
    let cfg = ApproxConfig {
        reference_mode: true,
        ..Default::default()
    };
    ApproxPlanner::new(cfg).plan(&mut ref_net, 3).unwrap();
    for node in fast_net.graph().nodes() {
        assert_eq!(
            fast_net.used(node),
            ref_net.used(node),
            "storage used diverged at {node}"
        );
    }
}

/// `net` with small per-chunk audiences (one to four clients): the
/// ascent opens at most one facility per audience member, so a
/// replication degree above the audience size makes the commit's top-up
/// add replicas, terminals the removal search never solved.
fn with_small_audiences(mut net: Network, seed: u64, chunks: usize) -> Network {
    let n = net.node_count();
    for q in 0..chunks {
        let clients = (0..1 + q % 4).map(|k| {
            let pick = seed as usize * 31 + q * 17 + k * 53;
            NodeId::new(1 + pick % (n - 1))
        });
        net.set_interest(ChunkId::new(q), clients).unwrap();
    }
    net
}

/// Plans `chunks` chunks on two copies of `net`, one with `cfg` and one
/// with `cfg` in reference mode, and demands identical placements.
fn assert_matches_reference(
    net: &Network,
    cfg: &ApproxConfig,
    chunks: usize,
    label: &str,
) -> peercache_core::placement::Placement {
    let fast = ApproxPlanner::new(cfg.clone())
        .plan(&mut net.clone(), chunks)
        .unwrap();
    let reference_cfg = ApproxConfig {
        reference_mode: true,
        ..cfg.clone()
    };
    let reference = ApproxPlanner::new(reference_cfg)
        .plan(&mut net.clone(), chunks)
        .unwrap();
    assert_placements_identical(&fast, &reference, label);
    fast
}

#[test]
fn replicated_pipeline_matches_reference() {
    for degree in [2usize, 3] {
        let cfg = ApproxConfig {
            replication: ReplicationPolicy::with_degree(degree),
            ..Default::default()
        };
        for seed in [7u64, 23] {
            let label = format!("R = {degree}, seed {seed}");
            assert_matches_reference(&random_200(seed), &cfg, 3, &label);
            let chunks = 6;
            let net = with_small_audiences(random_200(seed), seed, chunks);
            let plan = assert_matches_reference(&net, &cfg, chunks, &format!("{label}, small"));
            // Pruned facilities each serve a client, so more copies than
            // audience members means the top-up placed replicas.
            let topped_up = plan
                .chunks()
                .iter()
                .filter(|c| c.caches.len() > net.interested_clients(c.chunk).len())
                .count();
            assert!(topped_up > 0, "{label}: the top-up never added a replica");
        }
    }
}

#[test]
fn interest_restricted_pipeline_matches_reference() {
    for seed in [11u64, 29] {
        let mut net = random_200(seed);
        let chunks = 4;
        for q in 0..chunks {
            // Audiences of every 2nd .. 5th node, offset per chunk.
            let stride = 2 + q;
            let clients = (1..200).filter(|i| (i + q) % stride == 0).map(NodeId::new);
            net.set_interest(ChunkId::new(q), clients).unwrap();
        }
        let plan = assert_matches_reference(
            &net,
            &ApproxConfig::default(),
            chunks,
            &format!("interest, seed {seed}"),
        );
        assert!(plan.chunks().iter().any(|c| !c.caches.is_empty()));
    }
}

/// Each chunk's memo solves exactly one shortest-path tree per distinct
/// terminal its trees use: the removal search's starting set, the
/// producer, and any replica the commit's top-up adds.
#[test]
fn each_chunk_solves_one_shortest_path_tree_per_terminal() {
    let cfg = ApproxConfig {
        replication: ReplicationPolicy::with_degree(3),
        parallelism: Parallelism::Sequential,
        ..Default::default()
    };
    for net in [random_200(41), with_small_audiences(random_200(41), 41, 6)] {
        let mut net = net;
        let mut matrix =
            ContentionMatrix::compute_with(&net, cfg.selection, cfg.parallelism).unwrap();
        for q in 0..6 {
            let chunk = ChunkId::new(q);
            let inst = ConflInstance::build_for_chunk_with_matrix(&net, chunk, cfg.weights, matrix);
            let (opened, _) = dual_ascent(&net, &inst, &cfg).unwrap();
            let pruned = prune_unused_facilities(&net, &inst, &opened);
            let kept = improve_by_removal(&net, &inst, &pruned).unwrap();
            let cp =
                commit_chunk_replicated(&mut net, &inst, chunk, &kept, &cfg.replication).unwrap();
            let mut terminals: Vec<NodeId> = pruned.iter().chain(&cp.caches).copied().collect();
            terminals.sort_unstable();
            terminals.dedup();
            let expected = if terminals.is_empty() {
                0
            } else {
                terminals.len() + 1
            };
            assert_eq!(inst.spt_solved(), expected, "chunk {q}");
            let mut dirty = cp.caches.clone();
            dirty.push(net.producer());
            matrix = inst.into_matrix();
            matrix.update(&net, &dirty, cfg.parallelism).unwrap();
        }
    }
}
