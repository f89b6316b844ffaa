//! Property-based tests of the graph substrate on randomized inputs.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use proptest::prelude::*;

use peercache_graph::mst::{self, kruskal, prim, UnionFind};
use peercache_graph::oracle::LandmarkOracle;
use peercache_graph::paths::{
    bfs_hops, dijkstra_edge_weighted, induced_rows, k_hop_neighborhood, AllPairsPaths, Parallelism,
};
use peercache_graph::regions::RegionPartition;
use peercache_graph::steiner::{SptMemo, SteinerTree};
use peercache_graph::{analysis, builders, components, steiner, Graph, GraphError, NodeId};

fn connected_graph() -> impl Strategy<Value = Graph> {
    (
        4usize..40,
        0u64..1000,
        prop_oneof![Just(0.05f64), Just(0.15), Just(0.4)],
    )
        .prop_map(|(n, seed, p)| {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            builders::erdos_renyi_connected(n, p, &mut rng)
        })
}

/// Connected graphs beside small grids: with unit costs a grid ties
/// every equal-hop route, so the parent-id rule settles most parents.
fn graph_or_grid() -> impl Strategy<Value = Graph> {
    prop_oneof![
        connected_graph(),
        (2usize..8, 2usize..8).prop_map(|(rows, cols)| builders::grid(rows, cols)),
    ]
}

/// Graphs for the Steiner kernel: grids (unit-cost ties everywhere),
/// connected Erdős–Rényi and random geometric graphs, and two disjoint
/// grids, whose cross terminals are disconnected.
fn steiner_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (2usize..7, 2usize..7).prop_map(|(rows, cols)| builders::grid(rows, cols)),
        connected_graph(),
        (
            8usize..40,
            0u64..1000,
            prop_oneof![Just(0.2f64), Just(0.35)]
        )
            .prop_map(|(n, seed, range)| {
                use rand::SeedableRng;
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                builders::random_geometric(n, range, &mut rng)
            }),
        (2usize..5, 2usize..5).prop_map(|(rows, cols)| {
            let half = builders::grid(rows, cols);
            let n = half.node_count();
            let mut g = Graph::new(2 * n);
            for (u, v) in half.edges() {
                g.add_edge(u, v).unwrap();
                g.add_edge(NodeId::new(u.index() + n), NodeId::new(v.index() + n))
                    .unwrap();
            }
            g
        }),
    ]
}

/// The Steiner kernel as it stood before the flat rewrite, kept verbatim
/// (with the `(cost, id)`-heap Dijkstra it ran on) as the reference the
/// memo and the one-shot tree must match bit for bit.
#[allow(clippy::needless_range_loop)]
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Key {
        primary: f64,
        secondary: f64,
    }

    impl Eq for Key {}

    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Key {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.primary
                .total_cmp(&other.primary)
                .then(self.secondary.total_cmp(&other.secondary))
        }
    }

    pub fn dijkstra_edge_weighted<W>(
        g: &Graph,
        src: NodeId,
        weight: W,
    ) -> (Vec<f64>, Vec<Option<NodeId>>)
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        let n = g.node_count();
        let mut cost = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
        cost[src.index()] = 0.0;
        heap.push(Reverse((
            Key {
                primary: 0.0,
                secondary: 0.0,
            },
            src.index(),
        )));
        while let Some(Reverse((key, u))) = heap.pop() {
            if settled[u] || key.primary != cost[u] {
                continue;
            }
            settled[u] = true;
            for v in g.neighbors(NodeId::new(u)) {
                let vi = v.index();
                if settled[vi] {
                    continue;
                }
                let cand = cost[u] + weight(NodeId::new(u), v);
                let better = cand < cost[vi]
                    || (cand == cost[vi] && parent[vi].is_some_and(|p| NodeId::new(u) < p));
                if better {
                    cost[vi] = cand;
                    parent[vi] = Some(NodeId::new(u));
                    heap.push(Reverse((
                        Key {
                            primary: cand,
                            secondary: 0.0,
                        },
                        vi,
                    )));
                }
            }
        }
        (cost, parent)
    }

    pub fn steiner_tree<W>(
        g: &Graph,
        terminals: &[NodeId],
        weight: W,
    ) -> Result<SteinerTree, GraphError>
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        let uniq: BTreeSet<NodeId> = terminals.iter().copied().collect();
        if uniq.is_empty() {
            return Err(GraphError::NoTerminals);
        }
        for &t in &uniq {
            if !g.contains_node(t) {
                return Err(GraphError::NodeOutOfBounds {
                    node: t,
                    node_count: g.node_count(),
                });
            }
        }
        let terms: Vec<NodeId> = uniq.into_iter().collect();
        if terms.len() == 1 {
            return Ok(SteinerTree {
                edges: Vec::new(),
                nodes: terms,
                cost: 0.0,
            });
        }
        let paths: Vec<(Vec<f64>, Vec<Option<NodeId>>)> = terms
            .iter()
            .map(|&t| dijkstra_edge_weighted(g, t, &weight))
            .collect();
        let views: Vec<&(Vec<f64>, Vec<Option<NodeId>>)> = paths.iter().collect();
        tree_from_sssp(&weight, &terms, &views)
    }

    fn tree_from_sssp<W>(
        weight: &W,
        terms: &[NodeId],
        paths: &[&(Vec<f64>, Vec<Option<NodeId>>)],
    ) -> Result<SteinerTree, GraphError>
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        // Step 1: metric closure restricted to terminals.
        let mut closure_edges = Vec::new();
        for a in 0..terms.len() {
            for b in (a + 1)..terms.len() {
                let d = paths[a].0[terms[b].index()];
                if d.is_infinite() {
                    return Err(GraphError::Disconnected);
                }
                closure_edges.push((a, b, d));
            }
        }

        // Step 2: MST of the closure.
        let closure_mst = mst::kruskal(terms.len(), &closure_edges);

        // Step 3: expand closure edges into real paths; collect subgraph.
        let mut sub_nodes: BTreeSet<NodeId> = terms.iter().copied().collect();
        let mut sub_edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for (a, b, _) in closure_mst {
            // Walk parents from terms[b] back to terms[a] in the tree rooted
            // at terms[a].
            let mut cur = terms[b];
            while cur != terms[a] {
                let prev = paths[a].1[cur.index()].expect("finite distance implies a parent");
                sub_edges.insert(ordered(prev, cur));
                sub_nodes.insert(cur);
                sub_nodes.insert(prev);
                cur = prev;
            }
        }

        // Step 4: MST of the expanded subgraph, then prune non-terminal
        // leaves repeatedly.
        let node_list: Vec<NodeId> = sub_nodes.iter().copied().collect();
        let index_of = |n: NodeId| {
            node_list
                .binary_search(&n)
                .expect("node is in the subgraph")
        };
        let weighted: Vec<(usize, usize, f64)> = sub_edges
            .iter()
            .map(|&(u, v)| (index_of(u), index_of(v), weight(u, v)))
            .collect();
        let sub_mst = mst::kruskal(node_list.len(), &weighted);

        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); node_list.len()];
        for &(u, v, _) in &sub_mst {
            adj[u].insert(v);
            adj[v].insert(u);
        }
        let is_terminal: Vec<bool> = node_list
            .iter()
            .map(|n| terms.binary_search(n).is_ok())
            .collect();
        let mut removed = vec![false; node_list.len()];
        loop {
            let mut pruned_any = false;
            for v in 0..node_list.len() {
                if !removed[v] && !is_terminal[v] && adj[v].len() <= 1 {
                    if let Some(&u) = adj[v].iter().next() {
                        adj[u].remove(&v);
                    }
                    adj[v].clear();
                    removed[v] = true;
                    pruned_any = true;
                }
            }
            if !pruned_any {
                break;
            }
        }

        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut cost = 0.0;
        for u in 0..node_list.len() {
            for &v in &adj[u] {
                if v > u {
                    let e = ordered(node_list[u], node_list[v]);
                    cost += weight(e.0, e.1);
                    edges.push(e);
                }
            }
        }
        edges.sort_unstable();
        let nodes: Vec<NodeId> = node_list
            .iter()
            .enumerate()
            .filter(|&(i, _)| !removed[i])
            .map(|(_, &n)| n)
            .collect();
        Ok(SteinerTree { edges, nodes, cost })
    }

    fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a < b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// Bitwise equality of two Steiner answers: edges, nodes, the cost's
/// bits, or the same error.
fn same_tree(
    a: &Result<SteinerTree, GraphError>,
    b: &Result<SteinerTree, GraphError>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(&x.edges, &y.edges);
            prop_assert_eq!(&x.nodes, &y.nodes);
            prop_assert_eq!(x.cost.to_bits(), y.cost.to_bits());
        }
        _ => prop_assert_eq!(a, b),
    }
    Ok(())
}

/// splitmix64: a fixed hash for seeded subset picks.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn induced_rows_match_all_pairs_on_the_induced_subgraph(
        g in graph_or_grid(),
        keep_tenths in 2u64..11,
        source_tenths in 0u64..11,
        salt in any::<u64>(),
        unit in any::<bool>(),
        random_costs in prop::collection::vec(0.25f64..8.0, 64),
    ) {
        // Each node is kept with probability keep_tenths / 10 and each
        // kept node is a source with probability source_tenths / 10.
        // Sparse subsets often induce a disconnected subgraph, whose
        // unreachable pairs must read infinity and u32::MAX.
        let pick = |v: NodeId, tenths: u64, stream: u64| {
            mix(salt ^ stream ^ v.index() as u64) % 10 < tenths
        };
        let nodes: Vec<NodeId> = g.nodes().filter(|&v| pick(v, keep_tenths, 0)).collect();
        let sources: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&v| pick(v, source_tenths, 1 << 40))
            .collect();
        let costs: Vec<f64> = if unit {
            vec![1.0; g.node_count()]
        } else {
            random_costs[..g.node_count()].to_vec()
        };
        let (sub, _) = g.induced_subgraph(&nodes).unwrap();
        let sub_costs: Vec<f64> = nodes.iter().map(|v| costs[v.index()]).collect();
        let b = nodes.len();
        let reference = AllPairsPaths::compute(&sub, &sub_costs).unwrap();
        let (cost, hops) = induced_rows(&g, &nodes, &sources, &costs).unwrap();
        prop_assert_eq!(cost.len(), sources.len() * b);
        prop_assert_eq!(hops.len(), sources.len() * b);
        for (i, s) in sources.iter().enumerate() {
            let row = NodeId::new(nodes.binary_search(s).unwrap());
            for j in 0..b {
                let col = NodeId::new(j);
                prop_assert_eq!(
                    cost[i * b + j].to_bits(),
                    reference.cost(row, col).to_bits(),
                    "cost({s}, {})", nodes[j]
                );
                prop_assert_eq!(
                    hops[i * b + j],
                    reference.hops(row, col).unwrap_or(u32::MAX)
                );
            }
        }
    }

    #[test]
    fn generated_graphs_are_connected_simple(g in connected_graph()) {
        prop_assert!(components::is_connected(&g));
        // Simple: no self-loops, each edge listed once with u < v.
        let edges: Vec<_> = g.edges().collect();
        for &(u, v) in &edges {
            prop_assert!(u < v);
        }
        let mut dedup = edges.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), edges.len());
        prop_assert_eq!(edges.len(), g.edge_count());
    }

    #[test]
    fn bfs_satisfies_the_triangle_property(g in connected_graph()) {
        // Distances differ by at most 1 across an edge.
        let hops = bfs_hops(&g, NodeId::new(0));
        for (u, v) in g.edges() {
            let du = hops[u.index()].unwrap();
            let dv = hops[v.index()].unwrap();
            prop_assert!(du.abs_diff(dv) <= 1);
        }
    }

    #[test]
    fn k_hop_neighborhoods_are_nested(g in connected_graph()) {
        let src = NodeId::new(0);
        let mut prev: Vec<NodeId> = Vec::new();
        for k in 1..=4 {
            let cur = k_hop_neighborhood(&g, src, k);
            for n in &prev {
                prop_assert!(cur.contains(n), "k-hop sets must be nested");
            }
            prev = cur;
        }
        // At the diameter everything is reachable.
        let all = k_hop_neighborhood(&g, src, g.node_count() as u32);
        prop_assert_eq!(all.len(), g.node_count() - 1);
    }

    #[test]
    fn path_costs_match_reconstructed_paths(g in connected_graph()) {
        let costs: Vec<f64> = g.nodes().map(|n| 1.0 + (n.index() % 3) as f64).collect();
        let ap = AllPairsPaths::compute(&g, &costs).unwrap();
        for u in g.nodes().take(5) {
            for v in g.nodes().take(5) {
                let path = ap.path(u, v).unwrap();
                let sum: f64 = if u == v {
                    0.0
                } else {
                    path.iter().map(|n| costs[n.index()]).sum()
                };
                prop_assert!((ap.cost(u, v) - sum).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn mst_algorithms_agree_and_span(g in connected_graph()) {
        let weight = |u: NodeId, v: NodeId| {
            let (a, b) = (u.index().min(v.index()), u.index().max(v.index()));
            1.0 + ((a * 31 + b * 17) % 13) as f64
        };
        let p = prim(&g, weight).unwrap();
        prop_assert_eq!(p.len(), g.node_count() - 1);
        let edges: Vec<(usize, usize, f64)> = g
            .edges()
            .map(|(u, v)| (u.index(), v.index(), weight(u, v)))
            .collect();
        let k = kruskal(g.node_count(), &edges);
        let pw: f64 = p.iter().map(|&(u, v)| weight(u, v)).sum();
        let kw: f64 = k.iter().map(|e| e.2).sum();
        prop_assert!((pw - kw).abs() < 1e-9);
        // Spanning: union-find over prim edges joins everyone.
        let mut uf = UnionFind::new(g.node_count());
        for (u, v) in p {
            uf.union(u.index(), v.index());
        }
        prop_assert_eq!(uf.set_count(), 1);
    }

    #[test]
    fn steiner_interpolates_between_path_and_mst(g in connected_graph()) {
        let weight = |_: NodeId, _: NodeId| 1.0;
        let all: Vec<NodeId> = g.nodes().collect();
        let spanning = steiner::steiner_tree(&g, &all, weight).unwrap();
        prop_assert_eq!(spanning.edges.len(), g.node_count() - 1);
        let some: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        let partial = steiner::steiner_tree(&g, &some, weight).unwrap();
        // A subset of terminals never needs a costlier tree than the
        // full spanning tree.
        prop_assert!(partial.cost <= spanning.cost + 1e-9);
        // And at least the terminals minus one edges' worth of cost is
        // needed if they are distinct components... sanity: tree is
        // large enough to touch every terminal.
        prop_assert!(partial.nodes.len() >= some.len());
    }

    #[test]
    fn betweenness_is_nonnegative_and_bounded(g in connected_graph()) {
        for c in analysis::betweenness(&g) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        }
    }

    #[test]
    fn diameter_bounds_eccentricities(g in connected_graph()) {
        let ecc = analysis::eccentricities(&g).unwrap();
        let d = analysis::diameter(&g).unwrap();
        let r = analysis::radius(&g).unwrap();
        prop_assert!(r <= d);
        prop_assert!(d <= 2 * r, "diameter at most twice the radius");
        for e in ecc {
            prop_assert!(e >= r && e <= d);
        }
        let apl = analysis::average_path_length(&g).unwrap();
        prop_assert!(apl <= f64::from(d));
    }

    #[test]
    fn induced_subgraph_preserves_adjacency(g in connected_graph()) {
        let keep: Vec<NodeId> = g.nodes().step_by(2).collect();
        let (sub, originals) = g.induced_subgraph(&keep).unwrap();
        for u in 0..sub.node_count() {
            for v in (u + 1)..sub.node_count() {
                prop_assert_eq!(
                    sub.contains_edge(NodeId::new(u), NodeId::new(v)),
                    g.contains_edge(originals[u], originals[v])
                );
            }
        }
    }

    #[test]
    fn parallel_apsp_is_bitwise_identical_to_sequential(
        g in connected_graph(),
        threads in 2usize..9,
    ) {
        let costs: Vec<f64> = g.nodes().map(|n| g.degree(n) as f64).collect();
        let seq = AllPairsPaths::compute_with(&g, &costs, Parallelism::Sequential).unwrap();
        let par = AllPairsPaths::compute_with(&g, &costs, Parallelism::Threads(threads)).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(seq.cost(u, v).to_bits(), par.cost(u, v).to_bits());
                prop_assert_eq!(seq.hops(u, v), par.hops(u, v));
                prop_assert_eq!(seq.path(u, v), par.path(u, v));
            }
        }
    }

    #[test]
    fn landmark_bounds_bracket_all_pairs_cost(
        g in connected_graph(),
        count in 1usize..8,
        seed in 0u64..64,
    ) {
        // Bounds bracket the min-cost metric exactly; on the routed
        // (hop-shortest) cost the planners price, the lower bound still
        // holds. The min-cost reference is an edge-weighted sweep that
        // steps onto `y` at `y`'s cost, plus the source's own.
        let costs: Vec<f64> = g.nodes().map(|n| 1.0 + (n.index() % 5) as f64 * 0.5).collect();
        let routed = AllPairsPaths::compute(&g, &costs).unwrap();
        let oracle = LandmarkOracle::build(&g, &costs, count, seed).unwrap();
        for u in g.nodes() {
            let (sweep, _) = dijkstra_edge_weighted(&g, u, |_, y| costs[y.index()]);
            for v in g.nodes() {
                let exact = if u == v { 0.0 } else { costs[u.index()] + sweep[v.index()] };
                let (lo, hi) = (oracle.lower_bound(u, v), oracle.upper_bound(u, v));
                prop_assert!(lo <= exact + 1e-9, "lower bound broken at ({u},{v})");
                prop_assert!(exact <= hi + 1e-9, "upper bound broken at ({u},{v})");
                prop_assert!(exact <= routed.cost(u, v) + 1e-9,
                    "a routed path beat the min-cost metric at ({u},{v})");
                prop_assert!(lo <= routed.cost(u, v) + 1e-9,
                    "routed-cost lower bound broken at ({u},{v})");
            }
        }
    }

    #[test]
    fn landmark_bounds_tighten_monotonically(
        g in connected_graph(),
        seed in 0u64..64,
    ) {
        // Farthest-point selection is prefix-stable, so more landmarks
        // can only shrink the bracket.
        let costs: Vec<f64> = g.nodes().map(|n| 1.0 + (n.index() % 3) as f64).collect();
        let small = LandmarkOracle::build(&g, &costs, 2, seed).unwrap();
        let large = LandmarkOracle::build(&g, &costs, 6, seed).unwrap();
        prop_assert_eq!(small.landmarks(), &large.landmarks()[..small.landmarks().len()]);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert!(large.lower_bound(u, v) >= small.lower_bound(u, v) - 1e-12);
                prop_assert!(large.upper_bound(u, v) <= small.upper_bound(u, v) + 1e-12);
            }
        }
    }

    #[test]
    fn landmark_oracle_is_deterministic_across_replay(
        g in connected_graph(),
        count in 1usize..6,
        seed in 0u64..64,
    ) {
        let costs: Vec<f64> = g.nodes().map(|n| 1.0 + g.degree(n) as f64).collect();
        let a = LandmarkOracle::build(&g, &costs, count, seed).unwrap();
        let b = LandmarkOracle::build(&g, &costs, count, seed).unwrap();
        prop_assert_eq!(a.landmarks(), b.landmarks());
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(a.lower_bound(u, v).to_bits(), b.lower_bound(u, v).to_bits());
                prop_assert_eq!(a.upper_bound(u, v).to_bits(), b.upper_bound(u, v).to_bits());
                prop_assert_eq!(a.hops_lower(u, v), b.hops_lower(u, v));
                prop_assert_eq!(a.hops_upper(u, v), b.hops_upper(u, v));
            }
        }
    }

    #[test]
    fn region_partition_covers_and_bounds(
        g in connected_graph(),
        max_size in 2usize..16,
        seed in 0u64..64,
    ) {
        let p = RegionPartition::grow(&g, max_size, seed);
        let mut seen = vec![false; g.node_count()];
        for r in 0..p.region_count() {
            prop_assert!(p.region(r).len() <= max_size);
            prop_assert!(components::is_connected_subset(&g, p.region(r)));
            for &u in p.region(r) {
                prop_assert!(!seen[u.index()]);
                seen[u.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(p.clone(), RegionPartition::grow(&g, max_size, seed));
    }

    #[test]
    fn incremental_update_matches_fresh_compute(
        g in connected_graph(),
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..64, 1u32..4), 1..5),
            1..4,
        ),
    ) {
        // Arbitrary sequences of positive S(k)-style bumps: after every
        // batch, the incrementally-updated structure must be bitwise
        // identical to a fresh computation on the new costs.
        let n = g.node_count();
        let base: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64).collect();
        let mut incremental =
            AllPairsPaths::compute_with(&g, &base, Parallelism::Sequential).unwrap();
        let mut costs = base.clone();
        for batch in &rounds {
            for &(node, delta) in batch {
                costs[node % n] += f64::from(delta);
            }
            incremental.update(&g, &costs, Parallelism::Sequential).unwrap();
            let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(
                        incremental.cost(u, v).to_bits(),
                        fresh.cost(u, v).to_bits(),
                        "cost({u},{v}) diverged after update"
                    );
                    prop_assert_eq!(incremental.hops(u, v), fresh.hops(u, v));
                    prop_assert_eq!(incremental.path(u, v), fresh.path(u, v));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_steiner_kernel_matches_the_reference_bit_for_bit(
        g in steiner_graph(),
        picks in prop::collection::vec(
            (prop::collection::vec(0usize..64, 0..9), 0usize..8),
            1..6,
        ),
        (modulus, a, b, symmetric) in (1usize..4, 0usize..5, 0usize..5, any::<bool>()),
    ) {
        // Small integer weights tie many closure edges; asymmetric ones
        // make a pair's cost depend on which end's tree is read.
        let weight = move |u: NodeId, v: NodeId| {
            let (x, y) = if symmetric {
                (u.index().min(v.index()), u.index().max(v.index()))
            } else {
                (u.index(), v.index())
            };
            1.0 + ((a * x + b * y) % modulus) as f64
        };
        let n = g.node_count();
        // Picks repeat nodes freely; a pick of 7 past the end adds an
        // out-of-bounds terminal.
        let sets: Vec<Vec<NodeId>> = picks
            .iter()
            .map(|(nodes, extra)| {
                let mut set: Vec<NodeId> = nodes.iter().map(|&i| NodeId::new(i % n)).collect();
                if *extra == 7 {
                    set.push(NodeId::new(n + 1));
                }
                set
            })
            .collect();
        for &src in &[NodeId::new(0), NodeId::new(n - 1)] {
            let (cost, parent) = dijkstra_edge_weighted(&g, src, weight);
            let (ref_cost, ref_parent) = reference::dijkstra_edge_weighted(&g, src, weight);
            prop_assert_eq!(parent, ref_parent);
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&cost), bits(&ref_cost));
        }
        // One memo answers the sets in order, another in reverse: each
        // must answer like a one-shot tree whatever it solved before.
        let forward = SptMemo::new(n);
        let backward = SptMemo::new(n);
        for (set, back) in sets.iter().zip(sets.iter().rev()) {
            let expected = reference::steiner_tree(&g, set, weight);
            same_tree(&steiner::steiner_tree(&g, set, weight), &expected)?;
            same_tree(&forward.tree(&g, set, weight), &expected)?;
            let expected_back = reference::steiner_tree(&g, back, weight);
            same_tree(&backward.tree(&g, back, weight), &expected_back)?;
        }
        prop_assert_eq!(forward.solved(), backward.solved());
    }
}
