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
//! node-weighted path cost between `u` and `v`, endpoints included —
//! exactly [`AllPairsPaths::cost`](crate::paths::AllPairsPaths::cost)
//! under [`PathSelection::MinCost`](crate::paths::PathSelection). That
//! quantity is a metric (node weights are non-negative), so the
//! triangle inequality gives, for every landmark `l` with closed
//! distances `Δ(x, y)` (where `Δ(x, x) = w_x`):
//!
//! * `cost(u,v) ≤ Δ(u,l) + Δ(l,v) − w_l`   (concatenation counts `l` once)
//! * `cost(u,v) ≥ Δ(u,l) − Δ(l,v) + w_v`   (and symmetrically)
//!
//! Under `FewestHops` — the planners' selection — the *lower* bound
//! still holds (a hop-shortest path can only cost at least the cheapest
//! path), while the upper bound degrades to an estimate: the
//! hop-shortest path may be forced through heavier nodes. The scoped
//! contention store therefore uses exact block state wherever available
//! and treats the oracle value as a documented estimate across regions;
//! the property suite pins the exact bracketing on `MinCost` and the
//! lower-bound side on `FewestHops`.
//!
//! The **exact fallback** [`LandmarkOracle::exact_in_ball`] answers
//! pairs within a `k`-hop ball precisely (in `FewestHops` semantics) by
//! a bounded BFS-layer sweep: every hop-shortest path between nodes at
//! hop distance `h ≤ k` stays inside the ball of radius `k`, so the
//! restriction loses nothing.

use crate::graph::{Graph, NodeId};
use crate::paths::bfs_hops;
use crate::regions::splitmix64;
use crate::GraphError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
            .map(|&l| node_weighted_closed_dist(g, &node_cost, l))
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

    /// Lower bound on the min-cost pair cost (valid for `FewestHops`
    /// too); `0.0` on the diagonal, `f64::INFINITY` across components.
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

    /// Upper bound on the min-cost pair cost (an *estimate* under
    /// `FewestHops`); `0.0` on the diagonal.
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

    /// Exact `FewestHops` pair cost when `v` lies within the `k`-hop
    /// ball of `u` (`None` otherwise): a bounded BFS plus a layer-order
    /// DP over the ball, matching the all-pairs tie-break (lexicographic
    /// minimum of interior cost then parent id) bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds for `g`, or `node_cost` is
    /// shorter than the node count.
    #[must_use]
    pub fn exact_in_ball(
        g: &Graph,
        node_cost: &[f64],
        u: NodeId,
        v: NodeId,
        k: u32,
    ) -> Option<f64> {
        if u == v {
            return Some(0.0);
        }
        // Bounded BFS from `u`: hop labels plus visit order (layered).
        let mut hops = vec![FAR; g.node_count()];
        hops[u.index()] = 0;
        let mut order: Vec<NodeId> = vec![u];
        let mut head = 0usize;
        while head < order.len() {
            let x = order[head];
            head += 1;
            if hops[x.index()] == k {
                continue;
            }
            for y in g.neighbors(x) {
                if hops[y.index()] == FAR {
                    hops[y.index()] = hops[x.index()] + 1;
                    order.push(y);
                }
            }
        }
        if hops[v.index()] == FAR {
            return None;
        }
        // Layer DP: interior[x] = cheapest interior cost of a
        // hop-shortest u→x path (nodes strictly between u and x).
        let mut interior = vec![f64::INFINITY; g.node_count()];
        interior[u.index()] = 0.0;
        for &x in order.iter().skip(1) {
            let hx = hops[x.index()];
            let mut best = f64::INFINITY;
            let mut best_parent: Option<NodeId> = None;
            for p in g.neighbors(x) {
                if hops[p.index()] == FAR || hops[p.index()] + 1 != hx {
                    continue;
                }
                let step = if p == u { 0.0 } else { node_cost[p.index()] };
                let cand = interior[p.index()] + step;
                let better = match best_parent {
                    None => true,
                    Some(bp) => match cand.total_cmp(&best) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => p < bp,
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    best = cand;
                    best_parent = Some(p);
                }
            }
            interior[x.index()] = best;
        }
        Some(interior[v.index()] + node_cost[u.index()] + node_cost[v.index()])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::paths::{AllPairsPaths, Parallelism, PathSelection};

    fn weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect()
    }

    #[test]
    fn bounds_bracket_min_cost_metric_on_a_grid() {
        let g = builders::grid(5, 5);
        let w = weights(25);
        let ap =
            AllPairsPaths::compute_with(&g, &w, PathSelection::MinCost, Parallelism::Sequential)
                .unwrap();
        let oracle = LandmarkOracle::build(&g, &w, 4, 9).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let exact = ap.cost(u, v);
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
    fn exact_in_ball_matches_all_pairs_fewest_hops() {
        let g = builders::grid(5, 5);
        let w = weights(25);
        let ap =
            AllPairsPaths::compute_with(&g, &w, PathSelection::FewestHops, Parallelism::Sequential)
                .unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let exact = LandmarkOracle::exact_in_ball(&g, &w, u, v, 3);
                match ap.hops(u, v) {
                    Some(h) if h <= 3 => {
                        let e = exact.expect("pair inside the ball");
                        assert_eq!(e.to_bits(), ap.cost(u, v).to_bits(), "({u},{v})");
                    }
                    _ => assert!(exact.is_none(), "({u},{v}) outside the ball"),
                }
            }
        }
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
