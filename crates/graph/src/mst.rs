//! Minimum spanning trees and the union-find helper behind them.
//!
//! The Steiner-tree approximation ([`crate::steiner`]) builds MSTs twice:
//! once over the metric closure of the terminals (a dense Prim of its
//! own, under [`kruskal`]'s edge order), once over the expanded subgraph
//! ([`kruskal`]). Both Kruskal (edge-list) and Prim (adjacency) variants
//! are provided; they are cross-checked against each other in tests.

use crate::{Graph, NodeId};

/// Disjoint-set (union-find) structure with path compression and union
/// by rank.
///
/// # Example
///
/// ```
/// use peercache_graph::mst::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 3));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Representative of the set containing `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= n`.
    pub fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    /// Merges the sets of `x` and `y`; returns `false` if already merged.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is `>= n`.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (hi, lo) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Returns `true` when `x` and `y` share a set.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` is `>= n`.
    pub fn connected(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }
}

/// Kruskal's algorithm over an explicit weighted edge list.
///
/// Returns a minimum spanning *forest* (spanning tree per component) as
/// a subset of the input edges. Ties are broken deterministically by
/// `(weight, u, v)`.
///
/// # Example
///
/// ```
/// use peercache_graph::mst;
///
/// let edges = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 10.0)];
/// let tree = mst::kruskal(3, &edges);
/// let total: f64 = tree.iter().map(|e| e.2).sum();
/// assert_eq!(total, 3.0);
/// ```
pub fn kruskal(n: usize, edges: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let mut sorted: Vec<(usize, usize, f64)> = edges.to_vec();
    sorted.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    let mut uf = UnionFind::new(n);
    let mut out = Vec::new();
    for (u, v, w) in sorted {
        if uf.union(u, v) {
            out.push((u, v, w));
            if out.len() + 1 == n {
                break;
            }
        }
    }
    out
}

/// Prim's algorithm on a [`Graph`] with a per-edge weight closure.
///
/// Returns the MST edges when the graph is connected, `None` otherwise.
/// The run starts from node 0 and breaks ties by smallest endpoint ids.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, mst};
///
/// let g = builders::grid(3, 3);
/// let tree = mst::prim(&g, |_, _| 1.0).expect("grid is connected");
/// assert_eq!(tree.len(), g.node_count() - 1);
/// ```
pub fn prim<W>(g: &Graph, weight: W) -> Option<Vec<(NodeId, NodeId)>>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.node_count();
    if n == 0 {
        return Some(Vec::new());
    }
    let mut in_tree = vec![false; n];
    let mut best: Vec<Option<(f64, NodeId)>> = vec![None; n];
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    in_tree[0] = true;
    for v in g.neighbors(NodeId::new(0)) {
        best[v.index()] = Some((weight(NodeId::new(0), v), NodeId::new(0)));
    }
    for _ in 1..n {
        // Deterministic linear scan keeps the implementation simple; the
        // planners only call Prim on small facility subgraphs.
        let mut pick: Option<(f64, usize)> = None;
        for v in 0..n {
            if in_tree[v] {
                continue;
            }
            if let Some((w, _)) = best[v] {
                if pick.is_none_or(|(pw, pv)| w < pw || (w == pw && v < pv)) {
                    pick = Some((w, v));
                }
            }
        }
        let (_, v) = pick?;
        let (_, from) = best[v].expect("picked nodes have an attachment");
        in_tree[v] = true;
        out.push((from, NodeId::new(v)));
        for u in g.neighbors(NodeId::new(v)) {
            if in_tree[u.index()] {
                continue;
            }
            let w = weight(NodeId::new(v), u);
            if best[u.index()].is_none_or(|(bw, _)| w < bw) {
                best[u.index()] = Some((w, NodeId::new(v)));
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn union_find_tracks_set_count() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(0, 3);
        assert_eq!(uf.set_count(), 2);
        assert!(uf.connected(1, 2));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn kruskal_finds_cheap_tree() {
        let edges = [
            (0, 1, 4.0),
            (0, 2, 1.0),
            (1, 2, 2.0),
            (1, 3, 5.0),
            (2, 3, 8.0),
        ];
        let tree = kruskal(4, &edges);
        assert_eq!(tree.len(), 3);
        let total: f64 = tree.iter().map(|e| e.2).sum();
        assert_eq!(total, 1.0 + 2.0 + 5.0);
    }

    #[test]
    fn kruskal_on_disconnected_graph_returns_forest() {
        let edges = [(0, 1, 1.0), (2, 3, 1.0)];
        let forest = kruskal(4, &edges);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn prim_matches_kruskal_total_weight() {
        let g = builders::grid(4, 4);
        // Deterministic pseudo-random weights from edge endpoints.
        let weight = |u: NodeId, v: NodeId| {
            let (a, b) = (u.index().min(v.index()), u.index().max(v.index()));
            ((a * 7 + b * 13) % 11) as f64 + 1.0
        };
        let prim_tree = prim(&g, weight).unwrap();
        let edges: Vec<(usize, usize, f64)> = g
            .edges()
            .map(|(u, v)| (u.index(), v.index(), weight(u, v)))
            .collect();
        let kruskal_tree = kruskal(g.node_count(), &edges);
        let pw: f64 = prim_tree.iter().map(|&(u, v)| weight(u, v)).sum();
        let kw: f64 = kruskal_tree.iter().map(|e| e.2).sum();
        assert!((pw - kw).abs() < 1e-9);
    }

    #[test]
    fn prim_on_disconnected_graph_is_none() {
        let g = Graph::new(3);
        assert_eq!(prim(&g, |_, _| 1.0), None);
    }

    #[test]
    fn prim_on_empty_and_singleton() {
        assert_eq!(prim(&Graph::new(0), |_, _| 1.0), Some(vec![]));
        assert_eq!(prim(&Graph::new(1), |_, _| 1.0), Some(vec![]));
    }

    use crate::Graph;
}
