//! Steiner-tree approximation for the dissemination phase.
//!
//! Phase 2 of the paper's approximation algorithm connects the selected
//! caching (ADMIN) nodes and the producer with a Steiner tree, along
//! which the chunk is disseminated (the `z_en` variables of the ILP).
//! The paper cites an LP-based 1.55-approximation \[25\]; as documented in
//! DESIGN.md we substitute the classical metric-closure MST algorithm
//! (Kou–Markowsky–Berman), a deterministic 2-approximation:
//!
//! 1. build the metric closure over the terminals (edge-weighted
//!    shortest paths),
//! 2. take its MST,
//! 3. expand MST edges into real paths and take the MST of the expanded
//!    subgraph,
//! 4. prune non-terminal leaves.

use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

use crate::paths::{edge_weighted_spt, NO_PARENT};
use crate::{mst, Graph, GraphError, NodeId};

/// A Steiner tree: edges of the host graph connecting all terminals.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// Tree edges `(u, v)` with `u < v`, sorted.
    pub edges: Vec<(NodeId, NodeId)>,
    /// All nodes spanned by the tree (terminals plus Steiner points).
    pub nodes: Vec<NodeId>,
    /// Total weight of [`SteinerTree::edges`] under the weight function
    /// given to [`steiner_tree`].
    pub cost: f64,
}

impl SteinerTree {
    /// A tree with no edges (single- or zero-terminal case).
    fn trivial(nodes: Vec<NodeId>) -> Self {
        SteinerTree {
            edges: Vec::new(),
            nodes,
            cost: 0.0,
        }
    }
}

/// Computes an approximate minimum Steiner tree connecting `terminals`.
///
/// `weight` gives the cost of each *graph edge*; in the caching problem
/// this is the Path Contention Cost of the one-hop link, `c_e`. The
/// returned tree's cost is within 2x of the optimal Steiner tree
/// (Kou–Markowsky–Berman bound).
///
/// Duplicate terminals are allowed and ignored.
///
/// # Errors
///
/// * [`GraphError::NoTerminals`] if `terminals` is empty.
/// * [`GraphError::NodeOutOfBounds`] for unknown terminals.
/// * [`GraphError::Disconnected`] if some terminal cannot reach another.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, steiner, NodeId};
///
/// let g = builders::grid(3, 3);
/// let terminals = [NodeId::new(0), NodeId::new(2), NodeId::new(6)];
/// let tree = steiner::steiner_tree(&g, &terminals, |_, _| 1.0)?;
/// // Corner terminals of a 3x3 grid need 4 unit edges.
/// assert_eq!(tree.cost, 4.0);
/// # Ok::<(), peercache_graph::GraphError>(())
/// ```
pub fn steiner_tree<W>(
    g: &Graph,
    terminals: &[NodeId],
    weight: W,
) -> Result<SteinerTree, GraphError>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    SptMemo::new(g.node_count()).tree(g, terminals, weight)
}

/// Per-terminal shortest-path trees, each solved on first use.
///
/// The metric-closure algorithm's only expensive ingredient is one
/// shortest-path tree per terminal, and that tree depends solely on the
/// graph and the edge weights, **not** on which other terminals are in
/// play. A memo holds one cell per node; [`SptMemo::tree`] solves the
/// tree of each terminal it has not met yet and reads the rest from
/// their cells, so a caller that prices many terminal sets against the
/// same graph and weights pays one Dijkstra per distinct terminal. An
/// answer is bit-for-bit the tree [`steiner_tree`] returns: the same
/// kernel runs on the same shortest-path trees, whatever order the
/// queries come in. Cells fill through `&self`, so a shared memo stays
/// `Sync`.
///
/// A memo is only as valid as its inputs: every query must pass the
/// graph and the weight function the memo serves.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, steiner::{steiner_tree, SptMemo}, NodeId};
///
/// let g = builders::grid(3, 3);
/// let memo = SptMemo::new(g.node_count());
/// let sub = [NodeId::new(0), NodeId::new(2), NodeId::new(6)];
/// assert_eq!(memo.tree(&g, &sub, |_, _| 1.0)?, steiner_tree(&g, &sub, |_, _| 1.0)?);
/// assert_eq!(memo.solved(), 3);
/// # Ok::<(), peercache_graph::GraphError>(())
/// ```
#[derive(Clone)]
pub struct SptMemo {
    cells: Vec<OnceLock<Spt>>,
}

impl SptMemo {
    /// An empty memo for a graph of `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        SptMemo {
            cells: (0..node_count).map(|_| OnceLock::new()).collect(),
        }
    }

    /// [`steiner_tree`] over `terminals`, solving only the
    /// shortest-path trees no earlier query needed.
    ///
    /// # Errors
    ///
    /// As [`steiner_tree`].
    ///
    /// # Panics
    ///
    /// Panics if `g` has more nodes than the memo was built for.
    pub fn tree<W>(
        &self,
        g: &Graph,
        terminals: &[NodeId],
        weight: W,
    ) -> Result<SteinerTree, GraphError>
    where
        W: Fn(NodeId, NodeId) -> f64,
    {
        let mut terms = terminals.to_vec();
        terms.sort_unstable();
        terms.dedup();
        if terms.is_empty() {
            return Err(GraphError::NoTerminals);
        }
        if let Some(&node) = terms.iter().find(|&&t| !g.contains_node(t)) {
            return Err(GraphError::NodeOutOfBounds {
                node,
                node_count: g.node_count(),
            });
        }
        if terms.len() == 1 {
            return Ok(SteinerTree::trivial(terms));
        }
        let views: Vec<&Spt> = terms
            .iter()
            .map(|&t| {
                self.cells[t.index()].get_or_init(|| {
                    let (cost, parent) = edge_weighted_spt(g, t, 0.0, &weight);
                    Spt { cost, parent }
                })
            })
            .collect();
        tree_from_sssp(&weight, &terms, &views)
    }

    /// How many shortest-path trees the memo has solved.
    pub fn solved(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }
}

impl fmt::Debug for SptMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SptMemo")
            .field("nodes", &self.cells.len())
            .field("solved", &self.solved())
            .finish()
    }
}

/// One terminal's shortest-path tree: edge-weighted `cost` from the
/// root and the `parent` toward it ([`NO_PARENT`] at the root and at
/// unreachable nodes).
#[derive(Debug, Clone)]
struct Spt {
    cost: Vec<f64>,
    parent: Vec<u32>,
}

/// Steps 1–4 of Kou–Markowsky–Berman given the per-terminal
/// shortest-path trees (`spts[i]` rooted at `terms[i]`); `terms` must be
/// sorted, deduplicated, and have at least two entries.
///
/// Closure edge `(a, b)`, `a < b`, weighs `terms[b]`'s cost in
/// `terms[a]`'s tree. Under the strict order `(weight, a, b)` the
/// closure MST is unique, so the dense Prim below picks the edges
/// Kruskal would; the expanded subgraph's MST is unique the same way,
/// and leaf pruning ends in the same tree whatever order it removes
/// leaves in. The cost sums the kept edges in ascending `(u, v)` order.
fn tree_from_sssp<W>(weight: &W, terms: &[NodeId], spts: &[&Spt]) -> Result<SteinerTree, GraphError>
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let k = terms.len();
    // Step 1: metric closure restricted to terminals.
    let closure_edge = |x: usize, y: usize| {
        let (a, b) = (x.min(y), x.max(y));
        (spts[a].cost[terms[b].index()], a, b)
    };
    for a in 0..k {
        if terms[a + 1..]
            .iter()
            .any(|t| spts[a].cost[t.index()].is_infinite())
        {
            return Err(GraphError::Disconnected);
        }
    }

    // Step 2: MST of the closure, by a dense Prim from terminal 0.
    let precedes = |e: (f64, usize, usize), f: (f64, usize, usize)| {
        e.0.total_cmp(&f.0).then(e.1.cmp(&f.1)).then(e.2.cmp(&f.2)) == Ordering::Less
    };
    let mut joined = vec![false; k];
    joined[0] = true;
    let mut lightest: Vec<(f64, usize, usize)> = (0..k).map(|v| closure_edge(0, v)).collect();
    let mut closure_mst = Vec::with_capacity(k - 1);
    for _ in 1..k {
        let mut next: Option<usize> = None;
        for v in (0..k).filter(|&v| !joined[v]) {
            if next.is_none_or(|w| precedes(lightest[v], lightest[w])) {
                next = Some(v);
            }
        }
        let v = next.expect("an unjoined terminal remains");
        joined[v] = true;
        closure_mst.push((lightest[v].1, lightest[v].2));
        for w in (0..k).filter(|&w| !joined[w]) {
            let e = closure_edge(v, w);
            if precedes(e, lightest[w]) {
                lightest[w] = e;
            }
        }
    }

    // Step 3: expand closure edges into real paths; collect subgraph.
    let mut sub_nodes: Vec<NodeId> = terms.to_vec();
    let mut sub_edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (a, b) in closure_mst {
        // Walk parents from terms[b] back to terms[a] in the tree rooted
        // at terms[a].
        let mut cur = terms[b];
        while cur != terms[a] {
            let p = spts[a].parent[cur.index()];
            assert_ne!(p, NO_PARENT, "finite distance implies a parent");
            let prev = NodeId::new(p as usize);
            sub_edges.push(ordered(prev, cur));
            sub_nodes.push(prev);
            cur = prev;
        }
    }
    sub_nodes.sort_unstable();
    sub_nodes.dedup();
    sub_edges.sort_unstable();
    sub_edges.dedup();

    // Step 4: MST of the expanded subgraph, then prune non-terminal
    // leaves repeatedly.
    let index_of = |n: NodeId| {
        sub_nodes
            .binary_search(&n)
            .expect("node is in the subgraph")
    };
    let weighted: Vec<(usize, usize, f64)> = sub_edges
        .iter()
        .map(|&(u, v)| (index_of(u), index_of(v), weight(u, v)))
        .collect();
    let sub_mst = mst::kruskal(sub_nodes.len(), &weighted);

    // A leaf's one remaining neighbour is the XOR of its neighbours
    // still attached.
    let m = sub_nodes.len();
    let mut degree = vec![0u32; m];
    let mut attached = vec![0usize; m];
    for &(u, v, _) in &sub_mst {
        degree[u] += 1;
        degree[v] += 1;
        attached[u] ^= v;
        attached[v] ^= u;
    }
    let prunable =
        |v: usize, degree: &[u32]| degree[v] <= 1 && terms.binary_search(&sub_nodes[v]).is_err();
    let mut removed = vec![false; m];
    let mut leaves: Vec<usize> = (0..m).filter(|&v| prunable(v, &degree)).collect();
    while let Some(v) = leaves.pop() {
        if removed[v] {
            continue;
        }
        removed[v] = true;
        if degree[v] == 1 {
            let u = attached[v];
            degree[u] -= 1;
            attached[u] ^= v;
            if !removed[u] && prunable(u, &degree) {
                leaves.push(u);
            }
        }
    }

    let mut edges: Vec<(NodeId, NodeId)> = sub_mst
        .iter()
        .filter(|&&(u, v, _)| !removed[u] && !removed[v])
        .map(|&(u, v, _)| ordered(sub_nodes[u], sub_nodes[v]))
        .collect();
    edges.sort_unstable();
    let mut cost = 0.0;
    for &(u, v) in &edges {
        cost += weight(u, v);
    }
    let nodes: Vec<NodeId> = sub_nodes
        .iter()
        .zip(&removed)
        .filter(|&(_, &gone)| !gone)
        .map(|(&n, _)| n)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::mst::UnionFind;

    fn assert_is_tree_spanning(g: &Graph, tree: &SteinerTree, terminals: &[NodeId]) {
        // Every terminal present.
        for t in terminals {
            assert!(tree.nodes.contains(t), "terminal {t} missing from tree");
        }
        // Edge count = node count - 1 (a tree), and edges connect all nodes.
        assert_eq!(tree.edges.len() + 1, tree.nodes.len().max(1));
        let mut uf = UnionFind::new(g.node_count());
        for &(u, v) in &tree.edges {
            assert!(g.contains_edge(u, v), "tree edge must exist in graph");
            assert!(uf.union(u.index(), v.index()), "cycle in steiner tree");
        }
        for t in terminals {
            assert!(uf.connected(terminals[0].index(), t.index()));
        }
    }

    #[test]
    fn single_terminal_is_trivial() {
        let g = builders::grid(3, 3);
        let tree = steiner_tree(&g, &[NodeId::new(4)], |_, _| 1.0).unwrap();
        assert_eq!(tree.cost, 0.0);
        assert!(tree.edges.is_empty());
        assert_eq!(tree.nodes, vec![NodeId::new(4)]);
    }

    #[test]
    fn duplicate_terminals_are_deduplicated() {
        let g = builders::path(3);
        let tree = steiner_tree(
            &g,
            &[NodeId::new(0), NodeId::new(0), NodeId::new(2)],
            |_, _| 1.0,
        )
        .unwrap();
        assert_eq!(tree.cost, 2.0);
    }

    #[test]
    fn no_terminals_is_an_error() {
        let g = builders::path(3);
        assert_eq!(
            steiner_tree(&g, &[], |_, _| 1.0),
            Err(GraphError::NoTerminals)
        );
    }

    #[test]
    fn disconnected_terminals_error() {
        let g = Graph::new(2);
        let r = steiner_tree(&g, &[NodeId::new(0), NodeId::new(1)], |_, _| 1.0);
        assert_eq!(r, Err(GraphError::Disconnected));
    }

    #[test]
    fn two_terminals_use_shortest_path() {
        let g = builders::grid(4, 4);
        let tree = steiner_tree(&g, &[NodeId::new(0), NodeId::new(15)], |_, _| 1.0).unwrap();
        assert_eq!(tree.cost, 6.0); // manhattan distance in the grid
        assert_is_tree_spanning(&g, &tree, &[NodeId::new(0), NodeId::new(15)]);
    }

    #[test]
    fn steiner_point_is_used_when_beneficial() {
        // Star: center 0, leaves 1..=3. Terminals are the leaves; the
        // optimal tree must include the non-terminal center.
        let g = builders::star(4);
        let terms = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
        let tree = steiner_tree(&g, &terms, |_, _| 1.0).unwrap();
        assert_eq!(tree.cost, 3.0);
        assert!(tree.nodes.contains(&NodeId::new(0)));
        assert_is_tree_spanning(&g, &tree, &terms);
    }

    #[test]
    fn non_terminal_leaves_are_pruned() {
        let g = builders::grid(5, 5);
        let terms = [NodeId::new(0), NodeId::new(4), NodeId::new(20)];
        let tree = steiner_tree(&g, &terms, |_, _| 1.0).unwrap();
        // Every leaf of the tree must be a terminal.
        for &n in &tree.nodes {
            let deg = tree
                .edges
                .iter()
                .filter(|&&(u, v)| u == n || v == n)
                .count();
            if deg <= 1 {
                assert!(terms.contains(&n), "non-terminal leaf {n} not pruned");
            }
        }
    }

    #[test]
    fn respects_edge_weights() {
        // Path 0-1-2 plus shortcut 0-2; shortcut is expensive.
        let mut g = builders::path(3);
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        let weight = |u: NodeId, v: NodeId| {
            if (u.index(), v.index()) == (0, 2) {
                10.0
            } else {
                1.0
            }
        };
        let tree = steiner_tree(&g, &[NodeId::new(0), NodeId::new(2)], weight).unwrap();
        assert_eq!(tree.cost, 2.0); // via node 1
        assert!(tree.nodes.contains(&NodeId::new(1)));
    }

    #[test]
    fn spanning_all_nodes_costs_at_most_mst() {
        let g = builders::grid(4, 4);
        let all: Vec<NodeId> = g.nodes().collect();
        let tree = steiner_tree(&g, &all, |_, _| 1.0).unwrap();
        // With every node a terminal the Steiner tree IS a spanning tree.
        assert_eq!(tree.edges.len(), g.node_count() - 1);
        assert_eq!(tree.cost, (g.node_count() - 1) as f64);
    }

    #[test]
    fn out_of_bounds_terminal_is_an_error() {
        let g = builders::path(3);
        let r = steiner_tree(&g, &[NodeId::new(0), NodeId::new(9)], |_, _| 1.0);
        assert!(matches!(r, Err(GraphError::NodeOutOfBounds { .. })));
    }

    #[test]
    fn memo_matches_one_shot_on_every_subset() {
        let g = builders::grid(4, 4);
        let weight = |u: NodeId, v: NodeId| 1.0 + ((u.index() * 7 + v.index() * 3) % 5) as f64;
        let cands = [
            NodeId::new(0),
            NodeId::new(5),
            NodeId::new(10),
            NodeId::new(15),
        ];
        let memo = SptMemo::new(g.node_count());
        // Every non-empty subset of the candidates must agree bitwise,
        // largest masks last so early queries leave cells unsolved.
        for mask in 1u32..16 {
            let subset: Vec<NodeId> = cands
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, &n)| n)
                .collect();
            let fresh = steiner_tree(&g, &subset, weight).unwrap();
            let cached = memo.tree(&g, &subset, weight).unwrap();
            assert_eq!(cached, fresh, "mask {mask:#b}");
            assert_eq!(cached.cost.to_bits(), fresh.cost.to_bits());
        }
        assert_eq!(memo.solved(), cands.len());
    }

    #[test]
    fn memo_solves_each_terminal_once_and_skips_single_terminals() {
        let g = builders::grid(3, 3);
        let memo = SptMemo::new(g.node_count());
        memo.tree(&g, &[NodeId::new(4)], |_, _| 1.0).unwrap();
        assert_eq!(memo.solved(), 0, "a one-terminal tree needs no search");
        memo.tree(&g, &[NodeId::new(0), NodeId::new(8)], |_, _| 1.0)
            .unwrap();
        memo.tree(
            &g,
            &[NodeId::new(8), NodeId::new(0), NodeId::new(2)],
            |_, _| 1.0,
        )
        .unwrap();
        assert_eq!(memo.solved(), 3);
        assert_eq!(format!("{memo:?}"), "SptMemo { nodes: 9, solved: 3 }");
    }

    #[test]
    fn memo_reports_the_one_shot_errors() {
        let g = builders::path(3);
        let memo = SptMemo::new(g.node_count());
        assert_eq!(memo.tree(&g, &[], |_, _| 1.0), Err(GraphError::NoTerminals));
        assert!(matches!(
            memo.tree(&g, &[NodeId::new(0), NodeId::new(9)], |_, _| 1.0),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        let split = Graph::new(2);
        let memo = SptMemo::new(split.node_count());
        assert_eq!(
            memo.tree(&split, &[NodeId::new(0), NodeId::new(1)], |_, _| 1.0),
            Err(GraphError::Disconnected)
        );
    }
}
