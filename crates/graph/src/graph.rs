use std::fmt;

use crate::GraphError;

/// Dense identifier of a node in a [`Graph`].
///
/// Node ids are indices in `0..graph.node_count()`. The newtype prevents
/// accidentally mixing node ids with chunk ids or other counters in the
/// caching planners.
///
/// # Example
///
/// ```
/// use peercache_graph::NodeId;
///
/// let producer = NodeId::new(9);
/// assert_eq!(producer.index(), 9);
/// assert_eq!(producer.to_string(), "9");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the raw index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(id: NodeId) -> usize {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An undirected simple graph stored as adjacency lists.
///
/// Nodes are dense indices `0..node_count`; edges are unweighted (the
/// wireless model of the paper attaches all costs to *nodes*, not links,
/// so weights live in the caching layer).
///
/// Neighbor lists are kept sorted, which makes iteration deterministic —
/// important for reproducible simulations.
///
/// # Example
///
/// ```
/// use peercache_graph::{Graph, NodeId};
///
/// let mut g = Graph::new(3);
/// g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// g.add_edge(NodeId::new(1), NodeId::new(2))?;
///
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.contains_edge(NodeId::new(0), NodeId::new(1)));
/// assert!(!g.contains_edge(NodeId::new(0), NodeId::new(2)));
/// # Ok::<(), peercache_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl Graph {
    /// Creates a graph with `node_count` isolated nodes.
    pub fn new(node_count: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); node_count],
            edge_count: 0,
        }
    }

    /// Builds a graph from an explicit edge list.
    ///
    /// Duplicate edges are ignored; see [`Graph::add_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `>=
    /// node_count` and [`GraphError::SelfLoop`] for `(u, u)` entries.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::Graph;
    ///
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
    /// assert_eq!(g.edge_count(), 3);
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn from_edges(node_count: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Graph::new(node_count);
        for &(u, v) in edges {
            g.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(g)
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges in the graph.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if `node` is a valid index for this graph.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.adjacency.len()
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if self.contains_node(node) {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count(),
            })
        }
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Adding an edge that already exists is a no-op, which keeps random
    /// topology generators simple.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint is not a
    /// node of this graph, or [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.contains_edge(u, v) {
            return Ok(());
        }
        let (ua, va) = (u.index(), v.index());
        let pos_u = self.adjacency[ua].binary_search(&v).unwrap_err();
        self.adjacency[ua].insert(pos_u, v);
        let pos_v = self.adjacency[va].binary_search(&u).unwrap_err();
        self.adjacency[va].insert(pos_v, u);
        self.edge_count += 1;
        Ok(())
    }

    /// Appends a new isolated node and returns its id.
    ///
    /// Existing node ids are unaffected, so snapshots keyed by id (CSR,
    /// path tables) stay consistent with the nodes they already cover —
    /// though any [`Csr`] or all-pairs table built before the call does
    /// not know the new node and must be rebuilt to include it.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId::new(self.adjacency.len() - 1)
    }

    /// Removes the undirected edge `(u, v)` if present.
    ///
    /// Returns `true` if an edge was removed, `false` if it did not
    /// exist. Any [`Csr`] snapshot taken before the call is stale
    /// afterwards and must be rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if either endpoint is not
    /// a node of this graph.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let Ok(pos_u) = self.adjacency[u.index()].binary_search(&v) else {
            return Ok(false);
        };
        self.adjacency[u.index()].remove(pos_u);
        let pos_v = self.adjacency[v.index()]
            .binary_search(&u)
            .expect("adjacency lists are symmetric");
        self.adjacency[v.index()].remove(pos_v);
        self.edge_count -= 1;
        Ok(true)
    }

    /// Removes all edges incident to `node`, leaving it as an isolated
    /// "ghost" node, and returns its former neighbors in ascending order.
    ///
    /// The node itself stays in the graph so every other node keeps its
    /// dense id — downstream tables indexed by id (costs, path tables,
    /// cache state) remain aligned. An isolated node is unreachable and
    /// has degree 0, which is exactly how a departed peer should look to
    /// the planners. Any [`Csr`] snapshot taken before the call is stale
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node` is not a node of
    /// this graph.
    pub fn remove_node(&mut self, node: NodeId) -> Result<Vec<NodeId>, GraphError> {
        self.check_node(node)?;
        let neighbors = std::mem::take(&mut self.adjacency[node.index()]);
        for &v in &neighbors {
            let pos = self.adjacency[v.index()]
                .binary_search(&node)
                .expect("adjacency lists are symmetric");
            self.adjacency[v.index()].remove(pos);
        }
        self.edge_count -= neighbors.len();
        Ok(neighbors)
    }

    /// Returns `true` if the undirected edge `(u, v)` exists.
    ///
    /// Out-of-bounds endpoints simply yield `false`.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency
            .get(u.index())
            .is_some_and(|adj| adj.binary_search(&v).is_ok())
    }

    /// Degree (number of one-hop neighbors) of `node`.
    ///
    /// This is exactly the paper's Node Contention Cost `w_k`: every
    /// neighbor sends requests through `k`, so contention grows with the
    /// neighbor count.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Iterates over the neighbors of `node` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn neighbors(&self, node: NodeId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.adjacency[node.index()].iter(),
        }
    }

    /// Iterates over all nodes of the graph.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            graph: self,
            u: 0,
            pos: 0,
        }
    }

    /// Returns the induced subgraph on `keep` together with the mapping
    /// from new ids to the original ids.
    ///
    /// Nodes listed in `keep` receive dense ids `0..keep.len()` in the
    /// order given; edges of the original graph with both endpoints kept
    /// are preserved. Used by the multi-item baseline extension, which
    /// repeatedly re-plans on the residual subgraph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `keep` mentions an
    /// unknown node.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::{builders, NodeId};
    ///
    /// let g = builders::path(4); // 0 - 1 - 2 - 3
    /// let keep = [NodeId::new(1), NodeId::new(2)];
    /// let (sub, original) = g.induced_subgraph(&keep)?;
    /// assert_eq!(sub.node_count(), 2);
    /// assert_eq!(sub.edge_count(), 1);
    /// assert_eq!(original[1], NodeId::new(2));
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
        for &n in keep {
            self.check_node(n)?;
        }
        let mut new_id = vec![usize::MAX; self.node_count()];
        for (new, &orig) in keep.iter().enumerate() {
            new_id[orig.index()] = new;
        }
        let mut sub = Graph::new(keep.len());
        for (u, v) in self.edges() {
            let (nu, nv) = (new_id[u.index()], new_id[v.index()]);
            if nu != usize::MAX && nv != usize::MAX {
                sub.add_edge(NodeId::new(nu), NodeId::new(nv))?;
            }
        }
        Ok((sub, keep.to_vec()))
    }
}

/// Flat compressed-sparse-row snapshot of a [`Graph`]'s adjacency.
///
/// The per-node `Vec<NodeId>` lists of [`Graph`] are pointer-chasing
/// hostile in hot loops: every neighbor scan dereferences a separate
/// heap allocation. `Csr` packs all neighbor lists into one contiguous
/// `targets` array indexed by an `offsets` prefix-sum, which is what the
/// all-pairs Dijkstra fan-out iterates. Neighbor order is preserved
/// (ascending id), so algorithms behave identically on either
/// representation.
///
/// A `Csr` is a snapshot: edges added to the `Graph` afterwards are not
/// reflected.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, Csr, NodeId};
///
/// let g = builders::grid(3, 3);
/// let csr = Csr::from_graph(&g);
/// let via_graph: Vec<NodeId> = g.neighbors(NodeId::new(4)).collect();
/// let via_csr: Vec<NodeId> = csr.neighbors(4).iter().map(|&v| NodeId::new(v as usize)).collect();
/// assert_eq!(via_graph, via_csr);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for node `u`.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists, ascending within each node.
    targets: Vec<u32>,
}

impl Csr {
    /// Builds the CSR snapshot of `g`'s adjacency.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for u in 0..n {
            for v in &g.adjacency[u] {
                targets.push(v.index() as u32);
            }
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// The CSR snapshot of the subgraph of `g` induced by `nodes`, read
    /// from the members' own adjacency lists only: local id `i` is
    /// `nodes[i]`. `nodes` must be strictly ascending and in bounds;
    /// positions in such a list are monotone in global id, so each local
    /// list stays ascending and the snapshot equals
    /// `Csr::from_graph(&g.induced_subgraph(nodes)?.0)`.
    pub(crate) fn induced(g: &Graph, nodes: &[NodeId]) -> Self {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &u in nodes {
            let local = g.adjacency[u.index()]
                .iter()
                .filter_map(|v| nodes.binary_search(v).ok());
            targets.extend(local.map(|i| i as u32));
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    /// The undirected edges on which `g` differs from this snapshot —
    /// what a store solved on the snapshot must absorb. Each edge is
    /// listed once as `(u, v)` with `u < v`, ascending. A node `g` has
    /// beyond the snapshot has an empty snapshot list, so its links
    /// count as added. Costs one pass over both adjacencies.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::{builders, Csr, NodeId};
    ///
    /// let mut g = builders::path(3); // 0 - 1 - 2
    /// let csr = Csr::from_graph(&g);
    /// g.remove_edge(NodeId::new(0), NodeId::new(1))?;
    /// g.add_edge(NodeId::new(0), NodeId::new(2))?;
    /// let diff = csr.edge_diff(&g);
    /// assert_eq!(diff.removed, [(NodeId::new(0), NodeId::new(1))]);
    /// assert_eq!(diff.added, [(NodeId::new(0), NodeId::new(2))]);
    /// assert_eq!(diff.endpoints(), [NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn edge_diff(&self, g: &Graph) -> EdgeDiff {
        let mut diff = EdgeDiff::default();
        for u in 0..self.node_count().max(g.node_count()) {
            let old = if u < self.node_count() {
                self.neighbors(u)
            } else {
                &[]
            };
            let new = g.adjacency.get(u).map_or(&[][..], Vec::as_slice);
            // Merge the two ascending lists; an exhausted list reads as
            // `usize::MAX`, above every id.
            let (mut i, mut j) = (0, 0);
            while i < old.len() || j < new.len() {
                let a = old.get(i).map_or(usize::MAX, |&v| v as usize);
                let b = new.get(j).map_or(usize::MAX, |v| v.index());
                let (list, v) = match a.cmp(&b) {
                    std::cmp::Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        continue;
                    }
                    std::cmp::Ordering::Less => {
                        i += 1;
                        (&mut diff.removed, a)
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        (&mut diff.added, b)
                    }
                };
                if u < v {
                    list.push((NodeId::new(u), NodeId::new(v)));
                }
            }
        }
        diff
    }

    /// Number of nodes in the snapshot.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The neighbors of `u` as a raw index slice, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    #[inline]
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
}

/// The edges one graph gained and lost against a [`Csr`] snapshot,
/// created by [`Csr::edge_diff`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDiff {
    /// Edges the snapshot has and the graph lacks, `(u, v)` with
    /// `u < v`, ascending.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Edges the graph has and the snapshot lacks, `(u, v)` with
    /// `u < v`, ascending.
    pub added: Vec<(NodeId, NodeId)>,
}

impl EdgeDiff {
    /// Whether the adjacency is unchanged.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }

    /// The nodes whose neighbor list changed — every endpoint of a
    /// removed or added edge — ascending and deduplicated.
    pub fn endpoints(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .removed
            .iter()
            .chain(&self.added)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Iterator over the neighbors of a node, created by [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

/// Iterator over undirected edges, created by [`Graph::edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a Graph,
    u: usize,
    pos: usize,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        while self.u < self.graph.node_count() {
            let adj = &self.graph.adjacency[self.u];
            while self.pos < adj.len() {
                let v = adj[self.pos];
                self.pos += 1;
                if v.index() > self.u {
                    return Some((NodeId::new(self.u), v));
                }
            }
            self.u += 1;
            self.pos = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_has_no_edges() {
        let g = Graph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 0);
        }
    }

    #[test]
    fn add_edge_is_undirected_and_idempotent() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(0)).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_edge(NodeId::new(0), NodeId::new(2)));
        assert!(g.contains_edge(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        let err = g.add_edge(NodeId::new(1), NodeId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GraphError::SelfLoop {
                node: NodeId::new(1)
            }
        );
    }

    #[test]
    fn edge_diff_sees_degree_preserving_swaps_and_grown_nodes() {
        let ids = |e: &[(usize, usize)]| -> Vec<(NodeId, NodeId)> {
            e.iter()
                .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
                .collect()
        };
        let mut g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let csr = Csr::from_graph(&g);
        assert!(csr.edge_diff(&g).is_empty());
        // Every degree stays 1, yet both pairs swapped partners.
        g.remove_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.remove_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(3)).unwrap();
        let new = g.add_node();
        g.add_edge(new, NodeId::new(1)).unwrap();
        let diff = csr.edge_diff(&g);
        assert_eq!(diff.removed, ids(&[(0, 1), (2, 3)]));
        assert_eq!(diff.added, ids(&[(0, 2), (1, 3), (1, 4)]));
        assert_eq!(diff.endpoints().len(), 5);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut g = Graph::new(2);
        let err = g.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = Graph::new(5);
        for v in [4, 1, 3] {
            g.add_edge(NodeId::new(0), NodeId::new(v)).unwrap();
        }
        let ns: Vec<usize> = g.neighbors(NodeId::new(0)).map(NodeId::index).collect();
        assert_eq!(ns, vec![1, 3, 4]);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let edges: Vec<(usize, usize)> = g.edges().map(|(u, v)| (u.index(), v.index())).collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let keep = [NodeId::new(2), NodeId::new(3), NodeId::new(4)];
        let (sub, orig) = g.induced_subgraph(&keep).unwrap();
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert!(sub.contains_edge(NodeId::new(1), NodeId::new(2)));
        assert_eq!(orig[0], NodeId::new(2));
    }

    #[test]
    fn add_node_appends_isolated_node() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let id = g.add_node();
        assert_eq!(id, NodeId::new(3));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(id), 0);
        assert_eq!(g.edge_count(), 2);
        g.add_edge(id, NodeId::new(0)).unwrap();
        assert!(g.contains_edge(NodeId::new(0), id));
    }

    #[test]
    fn remove_edge_is_symmetric() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(g.remove_edge(NodeId::new(1), NodeId::new(0)).unwrap());
        assert_eq!(g.edge_count(), 1);
        assert!(!g.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.contains_edge(NodeId::new(1), NodeId::new(0)));
        // Removing a missing edge reports false and changes nothing.
        assert!(!g.remove_edge(NodeId::new(0), NodeId::new(1)).unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_edge_out_of_bounds_rejected() {
        let mut g = Graph::new(2);
        let err = g.remove_edge(NodeId::new(0), NodeId::new(9)).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    #[test]
    fn remove_node_leaves_isolated_ghost() {
        let mut g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]).unwrap();
        let former = g.remove_node(NodeId::new(1)).unwrap();
        assert_eq!(former, vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)]);
        // Ids are stable: node 1 still exists, just isolated.
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(NodeId::new(1)), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.contains_edge(NodeId::new(2), NodeId::new(3)));
        assert!(!g.contains_edge(NodeId::new(0), NodeId::new(1)));
        // Removing an already-isolated node is a no-op.
        assert_eq!(g.remove_node(NodeId::new(1)).unwrap(), Vec::new());
    }

    #[test]
    fn mutations_match_rebuilt_graph() {
        let mut g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        g.remove_edge(NodeId::new(2), NodeId::new(3)).unwrap();
        g.remove_node(NodeId::new(0)).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(4)).unwrap();
        let rebuilt = Graph::from_edges(5, &[(1, 2), (3, 4), (2, 4)]).unwrap();
        assert_eq!(g, rebuilt);
        assert_eq!(Csr::from_graph(&g), Csr::from_graph(&rebuilt));
    }

    #[test]
    fn induced_csr_matches_the_induced_subgraph() {
        let g = crate::builders::grid(4, 4);
        for keep in [
            vec![0, 1, 2, 5, 6, 9, 15],
            vec![3, 12],
            vec![],
            (0..16).collect(),
        ] {
            let keep: Vec<NodeId> = keep.into_iter().map(NodeId::new).collect();
            let (sub, _) = g.induced_subgraph(&keep).unwrap();
            assert_eq!(Csr::induced(&g, &keep), Csr::from_graph(&sub), "{keep:?}");
        }
    }

    #[test]
    fn node_id_conversions_roundtrip() {
        let id: NodeId = 42usize.into();
        let back: usize = id.into();
        assert_eq!(back, 42);
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
