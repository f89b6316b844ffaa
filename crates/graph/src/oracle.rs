//! Landmark distance oracle — O(L·N) state replacing O(N²) all-pairs
//! storage for *cross-region* cost queries.
//!
//! [`LandmarkOracle`] selects `L` landmarks deterministically (seeded
//! start, then farthest-point refinement in the hop metric, so a prefix
//! of a larger selection is always a valid smaller selection), and
//! stores two vectors per landmark: BFS hop distances and node-weighted
//! shortest-path distances.
//!
//! # Bound semantics and the error model
//!
//! All cost bounds are stated on the **min-cost metric**: the cheapest
//! node-weighted path cost between `u` and `v`, endpoints included.
//! That quantity is a metric (node weights are non-negative), so the
//! triangle inequality gives, for every landmark `l` with closed
//! distances `Δ(x, y)` (where `Δ(x, x) = w_x`):
//!
//! * `cost(u,v) ≤ Δ(u,l) + Δ(l,v) − w_l`   (concatenation counts `l` once)
//! * `cost(u,v) ≥ Δ(u,l) − Δ(l,v) + w_v`   (and symmetrically)
//!
//! The planners price the *routed* path instead — the hop-shortest path
//! of [`AllPairsPaths::cost`](crate::paths::AllPairsPaths::cost). The
//! *lower* bound still holds for it (a hop-shortest path costs at least
//! the cheapest path), while the upper bound degrades to an estimate:
//! the hop-shortest path may be forced through heavier nodes. The
//! scoped contention store therefore uses exact block state wherever
//! available and treats the oracle value as a documented estimate
//! across regions; the property suite pins the exact bracketing of the
//! min-cost metric and the lower-bound side on routed costs.
//!
//! Each landmark's `Δ(l, ·)` is one
//! [`dijkstra_edge_weighted`](crate::paths::dijkstra_edge_weighted)-style
//! sweep that starts at `w_l` and steps onto `v` at cost `w_v`.

use crate::graph::{Graph, NodeId};
use crate::paths::{bfs_hops, edge_weighted_spt};
use crate::regions::splitmix64;
use crate::GraphError;

/// Hop sentinel for unreachable nodes in the landmark hop vectors.
const FAR: u32 = u32::MAX;

/// A deterministic landmark/sketch distance oracle over a node-weighted
/// graph. See the module docs for the bound semantics.
#[derive(Debug, Clone)]
pub struct LandmarkOracle {
    landmarks: Vec<NodeId>,
    /// Per landmark: closed node-weighted min-cost distance to every
    /// node (`Δ(l, v)`, both endpoints counted; `Δ(l, l) = w_l`).
    dist: Vec<Vec<f64>>,
    /// Per landmark: BFS hop distance to every node ([`FAR`] when
    /// unreachable).
    hops: Vec<Vec<u32>>,
    node_cost: Vec<f64>,
}

impl LandmarkOracle {
    /// Builds the oracle with `count` landmarks (clamped to `1..=n`)
    /// over `g` with per-node costs `node_cost`: the landmarks
    /// [`LandmarkOracle::select`] picks for `(g, count, seed)`, swept by
    /// [`LandmarkOracle::with_landmarks`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] when `node_cost` is
    /// shorter than the node count.
    pub fn build(
        g: &Graph,
        node_cost: &[f64],
        count: usize,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::with_landmarks(g, node_cost, Self::select(g, count, seed))
    }

    /// Seeded farthest-point landmark selection in the hop metric. The
    /// first landmark is seed-derived; each further landmark maximizes
    /// the minimum hop distance to the chosen set (unreachable counts as
    /// farthest, ties break toward the smaller id), so prefixes of the
    /// sequence are themselves valid selections. `count` is clamped to
    /// `1..=n`; an empty graph selects nothing.
    #[must_use]
    pub fn select(g: &Graph, count: usize, seed: u64) -> Vec<NodeId> {
        let n = g.node_count();
        if n == 0 {
            return Vec::new();
        }
        let count = count.clamp(1, n);
        let first = NodeId::new((splitmix64(seed) % n as u64) as usize);
        let mut chosen = vec![first];
        let mut min_hops: Vec<u32> = bfs_hops(g, first)
            .into_iter()
            .map(|h| h.unwrap_or(FAR))
            .collect();
        while chosen.len() < count {
            let mut best = NodeId::new(0);
            let mut best_d = 0u32;
            let mut found = false;
            for (u, &d) in min_hops.iter().enumerate() {
                if d == 0 {
                    continue; // already a landmark
                }
                if !found || d > best_d {
                    best = NodeId::new(u);
                    best_d = d;
                    found = true;
                }
            }
            if !found {
                break; // n < count after dedup — cannot happen with clamp
            }
            chosen.push(best);
            for (u, h) in bfs_hops(g, best).into_iter().enumerate() {
                let h = h.unwrap_or(FAR);
                if h < min_hops[u] {
                    min_hops[u] = h;
                }
            }
        }
        chosen
    }

    /// Builds the oracle over a fixed landmark selection: one hop sweep
    /// and one node-weighted sweep per landmark. The selection depends
    /// only on the hop metric, so a caller whose node costs churn can
    /// keep it and re-sweep, and estimates stay seed-stable.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] when `node_cost` is
    /// shorter than the node count or a landmark is not in `g`.
    pub fn with_landmarks(
        g: &Graph,
        node_cost: &[f64],
        landmarks: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let n = g.node_count();
        if node_cost.len() < n {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count: n,
            });
        }
        if let Some(&node) = landmarks.iter().find(|l| l.index() >= n) {
            return Err(GraphError::NodeOutOfBounds {
                node,
                node_count: n,
            });
        }
        let node_cost = node_cost[..n].to_vec();
        let dist = landmarks
            .iter()
            .map(|&l| edge_weighted_spt(g, l, node_cost[l.index()], |_, v| node_cost[v.index()]).0)
            .collect();
        let hops = landmarks
            .iter()
            .map(|&l| {
                bfs_hops(g, l)
                    .into_iter()
                    .map(|h| h.unwrap_or(FAR))
                    .collect()
            })
            .collect();
        Ok(LandmarkOracle {
            landmarks,
            dist,
            hops,
            node_cost,
        })
    }

    /// The selected landmarks, in selection order (a prefix is itself a
    /// valid farthest-point selection).
    #[must_use]
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Lower bound on the min-cost pair cost, hence on the routed
    /// (hop-shortest) cost too; `0.0` on the diagonal, `f64::INFINITY`
    /// across components.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    #[must_use]
    pub fn lower_bound(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let (cu, cv) = (self.node_cost[u.index()], self.node_cost[v.index()]);
        let mut lo = cu + cv;
        for d in &self.dist {
            let (du, dv) = (d[u.index()], d[v.index()]);
            match (du.is_finite(), dv.is_finite()) {
                (true, true) => {
                    lo = lo.max(du - dv + cv).max(dv - du + cu);
                }
                (false, false) => {}
                // The landmark reaches exactly one endpoint: the pair
                // straddles components.
                _ => return f64::INFINITY,
            }
        }
        lo
    }

    /// Upper bound on the min-cost pair cost (only an *estimate* of the
    /// routed cost); `0.0` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    #[must_use]
    pub fn upper_bound(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let mut hi = f64::INFINITY;
        for (li, d) in self.dist.iter().enumerate() {
            let (du, dv) = (d[u.index()], d[v.index()]);
            if du.is_finite() && dv.is_finite() {
                hi = hi.min(du + dv - self.node_cost[self.landmarks[li].index()]);
            }
        }
        hi
    }

    /// The oracle's point estimate for a cross-ball pair cost: the
    /// upper bound (conservative — it never undersells a detour).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    #[must_use]
    pub fn estimate(&self, u: NodeId, v: NodeId) -> f64 {
        self.upper_bound(u, v)
    }

    /// Upper bound on the hop distance (`None` when every landmark
    /// shows the pair disconnected or no landmark reaches both).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    #[must_use]
    pub fn hops_upper(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let mut best: Option<u32> = None;
        for h in &self.hops {
            let (hu, hv) = (h[u.index()], h[v.index()]);
            match (hu, hv) {
                (FAR, FAR) => {}
                (FAR, _) | (_, FAR) => return None,
                _ => {
                    let through = hu.saturating_add(hv);
                    best = Some(best.map_or(through, |b| b.min(through)));
                }
            }
        }
        best
    }

    /// Lower bound on the hop distance (`0` when no landmark separates
    /// the pair).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    #[must_use]
    pub fn hops_lower(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut lo = 1u32;
        for h in &self.hops {
            let (hu, hv) = (h[u.index()], h[v.index()]);
            if hu != FAR && hv != FAR {
                lo = lo.max(hu.abs_diff(hv));
            }
        }
        lo
    }

    /// Bytes of heap state an oracle over `n` nodes with `landmarks`
    /// landmarks holds once built (landmark vectors + node costs) — the
    /// locality stack's memory accounting, known before any sweep runs.
    #[must_use]
    pub fn state_bytes_for(n: usize, landmarks: usize) -> u64 {
        let per_landmark = (n * (8 + 4)) as u64;
        per_landmark * landmarks as u64 + (n * 8) as u64 + (landmarks * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::paths::dijkstra_edge_weighted;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    // The landmark sweep as it stood before it ran through
    // `edge_weighted_spt`, kept verbatim as the reference the sweeps
    // must match bit for bit.
    /// Single-source node-weighted shortest distances, *closed* form: the
    /// returned `d[v]` counts both endpoints (`d[src] = w_src`), matching
    /// the `Δ` of the module docs. Plain binary-heap Dijkstra with
    /// `total_cmp` ordering and node-id tie-breaks — deterministic.
    fn node_weighted_closed_dist(g: &Graph, node_cost: &[f64], src: NodeId) -> Vec<f64> {
        let n = g.node_count();
        let mut d = vec![f64::INFINITY; n];
        let mut settled = vec![false; n];
        d[src.index()] = node_cost[src.index()];
        let mut heap: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
        heap.push(Reverse((OrdF64(d[src.index()]), src.index())));
        while let Some(Reverse((OrdF64(du), u))) = heap.pop() {
            if settled[u] {
                continue;
            }
            if du > d[u] {
                continue; // stale entry
            }
            settled[u] = true;
            for v in g.neighbors(NodeId::new(u)) {
                let vi = v.index();
                let cand = du + node_cost[vi];
                if cand < d[vi] {
                    d[vi] = cand;
                    heap.push(Reverse((OrdF64(cand), vi)));
                }
            }
        }
        d
    }

    /// Total-order wrapper so finite path distances can live in a heap.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct OrdF64(f64);

    impl Eq for OrdF64 {}

    impl PartialOrd for OrdF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    fn weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect()
    }

    /// The min-cost metric between `u` and `v`, endpoints included.
    fn min_cost(g: &Graph, w: &[f64], u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let (cost, _) = dijkstra_edge_weighted(g, u, |_, y| w[y.index()]);
        w[u.index()] + cost[v.index()]
    }

    #[test]
    fn landmark_sweeps_equal_the_closed_dist_reference_bit_for_bit() {
        // Random geometric graphs, some of whose nodes departed: their
        // links are gone and their term is zero, as a network's are.
        // Half the graphs carry integer contention terms (degree times
        // one plus a cached count), half fractional ones, so the sums
        // round. Every node is a landmark, so every sweep is checked.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        for case in 0..300 {
            let n = rng.gen_range(2usize..48);
            let range = [0.15, 0.25, 0.4][case % 3];
            let mut g = builders::random_geometric(n, range, &mut rng);
            for v in 0..n {
                if rng.gen_bool(0.15) {
                    g.remove_node(NodeId::new(v)).unwrap();
                }
            }
            let terms: Vec<f64> = (0..n)
                .map(|v| {
                    let degree = g.degree(NodeId::new(v)) as f64;
                    if case % 2 == 0 {
                        degree * (1.0 + rng.gen_range(0usize..4) as f64)
                    } else {
                        degree * rng.gen_range(0.1..3.0)
                    }
                })
                .collect();
            let oracle = LandmarkOracle::build(&g, &terms, n, case as u64).unwrap();
            assert_eq!(oracle.landmarks().len(), n);
            for (&l, swept) in oracle.landmarks().iter().zip(&oracle.dist) {
                let reference = node_weighted_closed_dist(&g, &terms, l);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(swept), bits(&reference), "case {case}, landmark {l}");
            }
        }
    }

    #[test]
    fn bounds_bracket_min_cost_metric_on_a_grid() {
        let g = builders::grid(5, 5);
        let w = weights(25);
        let oracle = LandmarkOracle::build(&g, &w, 4, 9).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let exact = min_cost(&g, &w, u, v);
                let lo = oracle.lower_bound(u, v);
                let hi = oracle.upper_bound(u, v);
                assert!(
                    lo <= exact + 1e-9 && exact <= hi + 1e-9,
                    "bracket broken for ({u},{v}): {lo} !<= {exact} !<= {hi}"
                );
            }
        }
    }

    #[test]
    fn landmark_prefixes_are_stable() {
        let g = builders::grid(6, 6);
        let w = weights(36);
        let small = LandmarkOracle::build(&g, &w, 3, 4).unwrap();
        let large = LandmarkOracle::build(&g, &w, 8, 4).unwrap();
        assert_eq!(small.landmarks(), &large.landmarks()[..3]);
    }

    #[test]
    fn hop_bounds_bracket_bfs() {
        let g = builders::grid(4, 6);
        let w = weights(24);
        let oracle = LandmarkOracle::build(&g, &w, 3, 2).unwrap();
        for u in g.nodes() {
            let hops = crate::paths::bfs_hops(&g, u);
            for v in g.nodes() {
                let h = hops[v.index()].unwrap();
                assert!(oracle.hops_lower(u, v) <= h);
                assert!(h <= oracle.hops_upper(u, v).unwrap());
            }
        }
    }

    #[test]
    fn disconnected_pairs_report_infinity() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        let w = vec![1.0; 4];
        let oracle = LandmarkOracle::build(&g, &w, 2, 0).unwrap();
        let (a, b) = (NodeId::new(0), NodeId::new(2));
        assert!(oracle.lower_bound(a, b).is_infinite() || oracle.upper_bound(a, b).is_infinite());
    }

    #[test]
    fn a_kept_selection_tracks_new_node_costs() {
        let g = builders::grid(4, 4);
        let w0 = vec![1.0; 16];
        let oracle = LandmarkOracle::build(&g, &w0, 4, 1).unwrap();
        let before = oracle.upper_bound(NodeId::new(0), NodeId::new(15));
        let w1: Vec<f64> = (0..16).map(|i| 1.0 + i as f64).collect();
        let swept = LandmarkOracle::with_landmarks(&g, &w1, oracle.landmarks().to_vec()).unwrap();
        let after = swept.upper_bound(NodeId::new(0), NodeId::new(15));
        assert!(after > before);
        assert_eq!(swept.landmarks(), oracle.landmarks());
        let fresh = LandmarkOracle::build(&g, &w1, 4, 1).unwrap();
        for (u, v) in [(0, 15), (3, 12), (5, 6)] {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            assert_eq!(
                swept.upper_bound(u, v).to_bits(),
                fresh.upper_bound(u, v).to_bits()
            );
        }
        assert!(LandmarkOracle::state_bytes_for(16, 4) > 0);
        assert!(matches!(
            LandmarkOracle::with_landmarks(&g, &w1, vec![NodeId::new(16)]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }
}
