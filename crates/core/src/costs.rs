//! The paper's cost model: Fairness Degree Cost (Eq. 1) and Contention
//! Cost (Eq. 2).
//!
//! *Fairness Degree Cost* lives on [`crate::Network::fairness_cost`]
//! (it is a property of a node's storage state). This module owns the
//! *contention* side:
//!
//! * the **Node Contention Cost** `w_k` — the node's degree, since every
//!   neighbor pushes requests and chunk transfers through `k`;
//! * the per-node path term `w_k (1 + S(k))` — already-cached chunks
//!   inflate contention because each cached chunk is also transmitted to
//!   neighbors;
//! * the **Path Contention Cost** `c_ij = Σ_{k ∈ PATH(i,j)} w_k (1 + S(k))`
//!   along the shortest path, with `c_ii = 0` (serving yourself needs no
//!   transmission);
//! * the **edge cost** `c_e = c_ij` for adjacent `i`, `j`, used by the
//!   dissemination (Steiner) phase.

use peercache_graph::paths::{AllPairsPaths, Parallelism, PathSelection};
use peercache_graph::NodeId;

use crate::{CoreError, Network};

/// Absolute tolerance for comparing accumulated cost values.
///
/// Costs are sums of per-node contention terms and fairness ratios, all of
/// magnitude well below `1e12`, so an absolute epsilon is adequate; it
/// matches the `1e-12` payment slack used by the dual-ascent solver.
pub const COST_EPS: f64 = 1e-9;

/// Is a cost value zero up to [`COST_EPS`]?
///
/// This is the sanctioned way to compare an f64 cost with zero (lint
/// rule N1 forbids direct `==`/`!=` on cost values).
#[inline]
#[must_use]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= COST_EPS
}

/// *Exact* equality of two cost values, by design.
///
/// The deterministic layers break ties on exact bitwise-equal costs (e.g.
/// client assignment prefers the lower node id only when connection costs
/// are *identical*); using an epsilon there would change which ties exist
/// and break the byte-identical replan guarantee. Routing those sites
/// through this helper documents the intent and keeps them auditable — the
/// N1 lint flags raw `==` but allows this named helper.
#[inline]
#[must_use]
pub fn cost_tie_eq(a: f64, b: f64) -> bool {
    a == b
}

/// Relative weights of the three objective terms of ILP (3).
///
/// The paper weighs fairness and contention equally and scales the
/// dissemination term by `M` (formulation (8)); all default to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight of the storage Fairness Degree Cost term.
    pub fairness: f64,
    /// Weight of the battery Fairness Degree Cost term (footnote 1 of
    /// §III-B; 0 by default, i.e. storage-only fairness as in the
    /// paper's evaluation).
    pub battery_fairness: f64,
    /// Weight of the accessing-phase Contention Cost term.
    pub contention: f64,
    /// `M`, the scale of the dissemination (Steiner tree) term.
    pub dissemination: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            fairness: 1.0,
            battery_fairness: 0.0,
            contention: 1.0,
            dissemination: 1.0,
        }
    }
}

/// Per-node contention terms `w_k (1 + S(k))` for the current caching
/// state, indexed by node id.
///
/// # Example
///
/// ```
/// use peercache_core::{costs, ChunkId, Network};
/// use peercache_graph::{builders, NodeId};
///
/// let mut net = Network::new(builders::grid(3, 3), NodeId::new(4), 5)?;
/// let before = costs::node_contention_terms(&net);
/// assert_eq!(before[0], 2.0); // corner: degree 2, nothing cached
///
/// net.cache(NodeId::new(0), ChunkId::new(0))?;
/// let after = costs::node_contention_terms(&net);
/// assert_eq!(after[0], 4.0); // degree 2 * (1 + 1 cached chunk)
/// # Ok::<(), peercache_core::CoreError>(())
/// ```
pub fn node_contention_terms(net: &Network) -> Vec<f64> {
    let producer_load = net.distinct_cached_chunks();
    net.graph()
        .nodes()
        .map(|k| {
            let w = net.graph().degree(k) as f64;
            // The producer originates every published chunk and keeps
            // serving all of them, so it carries the full chunk
            // population in its term even though it caches nothing.
            let load = if k == net.producer() {
                producer_load
            } else {
                net.used(k)
            };
            w * (1.0 + load as f64)
        })
        .collect()
}

/// All-pairs Path Contention Costs for a caching state, plus the hop
/// distances the Hop-Count baseline needs.
///
/// A `ContentionMatrix` is a *snapshot* of one caching state. After the
/// state changes it can either be recomputed from scratch
/// ([`ContentionMatrix::compute`]) or refreshed in place with
/// [`ContentionMatrix::update`], which touches only the sources whose
/// routes pass *through* a node whose term changed, and within such a
/// row re-solves only the nodes routed below a changed node. A committed
/// chunk's new caches and the producer lie on most rows' routes (on a
/// 300-node random network or a 20×20 grid, on every row's), so the
/// saving is within rows: about half of each row is re-solved.
#[derive(Debug, Clone)]
pub struct ContentionMatrix {
    terms: Vec<f64>,
    paths: AllPairsPaths,
}

impl ContentionMatrix {
    /// Computes the matrix for the network's current caching state.
    ///
    /// `selection` controls whether packets follow the hop-shortest path
    /// (the paper's model) or the contention-cheapest path (ablation).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn compute(net: &Network, selection: PathSelection) -> Result<Self, CoreError> {
        ContentionMatrix::compute_with(net, selection, Parallelism::Sequential)
    }

    /// Computes the matrix with a configurable thread fan-out for the
    /// per-source shortest-path runs; byte-identical to
    /// [`ContentionMatrix::compute`] for every [`Parallelism`] choice.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn compute_with(
        net: &Network,
        selection: PathSelection,
        parallelism: Parallelism,
    ) -> Result<Self, CoreError> {
        let terms = node_contention_terms(net);
        let paths = AllPairsPaths::compute_with(net.graph(), &terms, selection, parallelism)?;
        Ok(ContentionMatrix { terms, paths })
    }

    /// Refreshes the matrix in place after the network's caching state
    /// changed, touching only the invalidated shortest-path sources
    /// (see [`AllPairsPaths::update`]).
    ///
    /// `dirty` is the caller's account of which nodes changed caching
    /// state since the snapshot (for the planners: the committed
    /// facilities plus the producer, whose term tracks the distinct
    /// chunk population). It is cross-checked in debug builds — the
    /// actual invalidation diffs the recomputed per-node terms, so a
    /// stale `dirty` set can never produce a wrong matrix.
    ///
    /// Returns the number of shortest-path sources refreshed or
    /// recomputed. The result is byte-identical to a fresh
    /// [`ContentionMatrix::compute`] on the new state.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn update(
        &mut self,
        net: &Network,
        dirty: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        let terms = node_contention_terms(net);
        debug_assert!(
            terms
                .iter()
                .zip(&self.terms)
                .enumerate()
                .all(|(k, (new, old))| new == old || dirty.contains(&NodeId::new(k))),
            "a node outside the declared dirty set {dirty:?} changed its contention term"
        );
        let _ = dirty;
        let recomputed = self.paths.update(net.graph(), &terms, parallelism)?;
        self.terms = terms;
        Ok(recomputed)
    }

    /// Refreshes the matrix in place after a **topology** change —
    /// links or nodes added or removed — together with whatever node
    /// terms moved with it (a departure drops the degree term of every
    /// former neighbor, for instance).
    ///
    /// `removed_edges` / `added_edges` describe the net structural
    /// difference since the snapshot; `net` must already be in its
    /// post-churn state. Delegates to
    /// [`AllPairsPaths::update_topology`], whose per-row invalidation
    /// rules keep the recompute scoped to the sources the edit can
    /// actually affect.
    ///
    /// Returns the number of shortest-path sources recomputed. The
    /// result is byte-identical to a fresh
    /// [`ContentionMatrix::compute`] on the new state.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] if an edit mentions a node the
    /// graph does not know.
    pub fn update_topology(
        &mut self,
        net: &Network,
        removed_edges: &[(NodeId, NodeId)],
        added_edges: &[(NodeId, NodeId)],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        let terms = node_contention_terms(net);
        let recomputed = self.paths.update_topology(
            net.graph(),
            &terms,
            removed_edges,
            added_edges,
            parallelism,
        )?;
        self.terms = terms;
        Ok(recomputed)
    }

    /// The Path Contention Cost `c_ij` (0 on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn cost(&self, i: NodeId, j: NodeId) -> f64 {
        self.paths.cost(i, j)
    }

    /// Hop count of the routed path (the Hop-Count baseline's metric).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn hops(&self, i: NodeId, j: NodeId) -> Option<u32> {
        self.paths.hops(i, j)
    }

    /// The routed path between two nodes, endpoints included.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn path(&self, i: NodeId, j: NodeId) -> Option<Vec<NodeId>> {
        self.paths.path(i, j)
    }

    /// The contention term `w_k (1 + S(k))` of one node.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    pub fn node_term(&self, k: NodeId) -> f64 {
        self.terms[k.index()]
    }

    /// Edge cost `c_e` for an adjacent pair: the one-hop path cost,
    /// i.e. the two endpoint terms.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn edge_cost(&self, u: NodeId, v: NodeId) -> f64 {
        self.terms[u.index()] + self.terms[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkId;
    use peercache_graph::builders;

    fn net() -> Network {
        Network::new(builders::grid(3, 3), NodeId::new(4), 5).unwrap()
    }

    #[test]
    fn node_terms_use_degree() {
        let net = net();
        let terms = node_contention_terms(&net);
        assert_eq!(terms[0], 2.0); // corner
        assert_eq!(terms[1], 3.0); // edge
        assert_eq!(terms[4], 4.0); // center
    }

    #[test]
    fn cached_chunks_inflate_terms() {
        let mut net = net();
        net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
        net.cache(NodeId::new(1), ChunkId::new(1)).unwrap();
        let terms = node_contention_terms(&net);
        assert_eq!(terms[1], 3.0 * 3.0); // degree 3 * (1 + 2)
    }

    #[test]
    fn diagonal_cost_is_zero() {
        let net = net();
        let m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        for n in net.graph().nodes() {
            assert_eq!(m.cost(n, n), 0.0);
        }
    }

    #[test]
    fn adjacent_cost_sums_both_endpoints() {
        let net = net();
        let m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        // corner 0 (w=2) and edge 1 (w=3), nothing cached.
        assert_eq!(m.cost(NodeId::new(0), NodeId::new(1)), 5.0);
        assert_eq!(m.edge_cost(NodeId::new(0), NodeId::new(1)), 5.0);
    }

    #[test]
    fn matrix_reflects_state_changes_after_recompute() {
        let mut net = net();
        let before = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
        let after = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        assert!(
            after.cost(NodeId::new(0), NodeId::new(1))
                > before.cost(NodeId::new(0), NodeId::new(1))
        );
    }

    #[test]
    fn hops_are_available_for_the_hopc_baseline() {
        let net = net();
        let m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(8)), Some(4));
    }

    #[test]
    fn default_weights_are_all_one() {
        let w = CostWeights::default();
        assert_eq!((w.fairness, w.contention, w.dissemination), (1.0, 1.0, 1.0));
    }

    fn assert_matrices_identical(a: &ContentionMatrix, b: &ContentionMatrix, net: &Network) {
        for u in net.graph().nodes() {
            assert_eq!(a.node_term(u).to_bits(), b.node_term(u).to_bits());
            for v in net.graph().nodes() {
                assert_eq!(a.cost(u, v).to_bits(), b.cost(u, v).to_bits(), "{u}->{v}");
                assert_eq!(a.hops(u, v), b.hops(u, v));
                assert_eq!(a.path(u, v), b.path(u, v));
            }
        }
    }

    #[test]
    fn update_after_commits_matches_fresh_compute() {
        let mut net = net();
        let mut m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        for (chunk, node) in [(0usize, 1usize), (1, 7), (2, 1)] {
            net.cache(NodeId::new(node), ChunkId::new(chunk)).unwrap();
            let dirty = [NodeId::new(node), net.producer()];
            let redone = m.update(&net, &dirty, Parallelism::Sequential).unwrap();
            assert!(redone <= net.node_count());
            let fresh = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
            assert_matrices_identical(&m, &fresh, &net);
        }
    }

    #[test]
    fn topology_update_after_departure_matches_fresh() {
        let mut net = net();
        net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
        let mut m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        let dep = net.deactivate_node(NodeId::new(8)).unwrap();
        let removed: Vec<(NodeId, NodeId)> = dep
            .former_neighbors
            .iter()
            .map(|&v| (NodeId::new(8), v))
            .collect();
        let redone = m
            .update_topology(&net, &removed, &[], Parallelism::Sequential)
            .unwrap();
        assert!(redone <= net.node_count());
        let fresh = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        assert_matrices_identical(&m, &fresh, &net);
        assert!(m.cost(NodeId::new(0), NodeId::new(8)).is_infinite());
        // The ghost node contributes nothing to contention.
        assert_eq!(m.node_term(NodeId::new(8)), 0.0);
    }

    #[test]
    fn topology_update_after_link_churn_matches_fresh() {
        let mut net = net();
        let mut m = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        net.remove_link(NodeId::new(4), NodeId::new(5)).unwrap();
        m.update_topology(
            &net,
            &[(NodeId::new(4), NodeId::new(5))],
            &[],
            Parallelism::Sequential,
        )
        .unwrap();
        net.add_link(NodeId::new(0), NodeId::new(4)).unwrap();
        m.update_topology(
            &net,
            &[],
            &[(NodeId::new(0), NodeId::new(4))],
            Parallelism::Sequential,
        )
        .unwrap();
        let fresh = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        assert_matrices_identical(&m, &fresh, &net);
    }

    #[test]
    fn parallel_compute_matches_sequential() {
        let mut net = net();
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        let seq = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        let par = ContentionMatrix::compute_with(
            &net,
            PathSelection::FewestHops,
            Parallelism::Threads(3),
        )
        .unwrap();
        assert_matrices_identical(&seq, &par, &net);
    }
}
