//! Per-node k-hop local views — the product of the CC (contention
//! collection) exchange.
//!
//! A node cannot see the whole topology; it learns, within `k` hops,
//! which peers exist and their `(degree, load)` pairs, and estimates the
//! Path Contention Cost to each of them *through its local subgraph*.
//! Estimates are conservative: paths leaving the k-hop ball are
//! invisible, so a local estimate is never lower than the true global
//! cost restricted to local routes.
//!
//! A node prices only its own paths, so a view is one shortest-path row
//! from the center over the subgraph its ball induces
//! ([`induced_rows`]), not an all-pairs table of the ball.

use peercache_core::Network;
use peercache_graph::paths::{induced_rows, k_hop_neighborhood};
use peercache_graph::NodeId;

use crate::error::ProtocolError;
use crate::protocol::{MessageKind, MessageStats};

/// One node's view of its k-hop neighborhood.
#[derive(Debug, Clone)]
pub struct LocalView {
    center: NodeId,
    members: Vec<NodeId>,
    cost: Vec<f64>,
    hops: Vec<u32>,
}

impl LocalView {
    /// The node owning this view.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// Peers within k hops (sorted by id, center excluded).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Estimated Path Contention Cost from the center to `members()[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    // Out-of-range `idx` panics by documented contract (`# Panics`).
    #[allow(clippy::indexing_slicing)]
    pub fn cost(&self, idx: usize) -> f64 {
        self.cost[idx]
    }

    /// Hop distance from the center to `members()[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    // Out-of-range `idx` panics by documented contract (`# Panics`).
    #[allow(clippy::indexing_slicing)]
    pub fn hops(&self, idx: usize) -> u32 {
        self.hops[idx]
    }

    /// Index of `node` within [`LocalView::members`], if visible.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Largest finite member cost (0 for an empty view).
    pub fn max_cost(&self) -> f64 {
        self.cost.iter().copied().fold(0.0, f64::max)
    }
}

/// Builds every client's local view for the network's current state and
/// accounts the CC message traffic (one request + one reply per member).
///
/// Each node reports its own degree and load, so a view prices node `v`
/// at `degree(v) · (1 + used(v))` — the producer included, which the
/// centralized [`ContentionMatrix`](peercache_core::costs::ContentionMatrix)
/// prices at its distinct-chunk count instead.
///
/// # Errors
///
/// Returns [`ProtocolError::Graph`] if the path solver rejects a ball —
/// not possible for a ball [`k_hop_neighborhood`] returned on the same
/// graph.
pub fn build_views(
    net: &Network,
    k_hops: u32,
) -> Result<(Vec<LocalView>, MessageStats), ProtocolError> {
    let graph = net.graph();
    let terms: Vec<f64> = graph
        .nodes()
        .map(|v| graph.degree(v) as f64 * (1.0 + net.used(v) as f64))
        .collect();
    let mut stats = MessageStats::default();
    let mut views = Vec::with_capacity(graph.node_count());
    for center in graph.nodes() {
        let members = k_hop_neighborhood(graph, center, k_hops);
        if center != net.producer() {
            stats.add(MessageKind::Cc, 2 * members.len() as u64);
        }
        // The ball {center} ∪ members, ascending: the center goes where
        // its id sorts, and its own column is dropped from the row.
        let at = members.partition_point(|&m| m < center);
        let mut ball = members.clone();
        ball.insert(at, center);
        let (mut cost, mut hops) = induced_rows(graph, &ball, &[center], &terms)?;
        cost.remove(at);
        hops.remove(at);
        views.push(LocalView {
            center,
            members,
            cost,
            hops,
        });
    }
    Ok((views, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_core::workload::{paper_grid, paper_random};
    use peercache_core::ChunkId;
    use peercache_graph::paths::AllPairsPaths;

    /// Reference construction: the ball's induced subgraph,
    /// `AllPairsPaths` over all of it, and the center's row read off by
    /// position.
    fn reference_views(net: &Network, k_hops: u32) -> Vec<LocalView> {
        let graph = net.graph();
        graph
            .nodes()
            .map(|center| {
                let members = k_hop_neighborhood(graph, center, k_hops);
                let mut keep = members.clone();
                keep.push(center);
                keep.sort_unstable();
                let (sub, originals) = graph.induced_subgraph(&keep).unwrap();
                let terms: Vec<f64> = originals
                    .iter()
                    .map(|&o| graph.degree(o) as f64 * (1.0 + net.used(o) as f64))
                    .collect();
                let paths = AllPairsPaths::compute(&sub, &terms).unwrap();
                let local =
                    |node: NodeId| NodeId::new(originals.iter().position(|&o| o == node).unwrap());
                let c = local(center);
                LocalView {
                    center,
                    cost: members.iter().map(|&m| paths.cost(c, local(m))).collect(),
                    hops: members
                        .iter()
                        .map(|&m| paths.hops(c, local(m)).unwrap_or(u32::MAX))
                        .collect(),
                    members,
                }
            })
            .collect()
    }

    #[test]
    fn views_equal_the_induced_ball_reference() {
        let nets = [
            paper_grid(7).unwrap(),
            paper_random(60, 3).unwrap(),
            paper_random(90, 11).unwrap(),
        ];
        for mut net in nets {
            // Load every third client with one to three chunks, so node
            // terms differ and equal-hop ties break on cost.
            let n = net.node_count();
            for (i, v) in (0..n).step_by(3).map(NodeId::new).enumerate() {
                if v != net.producer() {
                    for c in 0..=(i % 3) {
                        net.cache(v, ChunkId::new(c)).unwrap();
                    }
                }
            }
            for k in 1..=3 {
                let (views, _) = build_views(&net, k).unwrap();
                let reference = reference_views(&net, k);
                assert_eq!(views.len(), reference.len());
                for (v, r) in views.iter().zip(&reference) {
                    assert_eq!(v.center(), r.center());
                    assert_eq!(v.members(), r.members(), "k={k} center {}", v.center());
                    assert_eq!(v.hops, r.hops, "k={k} center {}", v.center());
                    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&v.cost), bits(&r.cost), "k={k} center {}", v.center());
                }
            }
        }
    }

    #[test]
    fn two_hop_view_of_a_grid_center() {
        let net = paper_grid(5).unwrap();
        let (views, stats) = build_views(&net, 2).unwrap();
        let center = &views[12];
        assert_eq!(center.center(), NodeId::new(12));
        assert_eq!(center.members().len(), 12);
        assert!(stats[MessageKind::Cc] > 0);
    }

    #[test]
    fn view_costs_match_global_costs_when_paths_stay_local() {
        let net = paper_grid(4).unwrap();
        let (views, _) = build_views(&net, 1).unwrap();
        // Adjacent pair: local estimate equals the exact two-term cost.
        let v = &views[0];
        let idx = v.index_of(NodeId::new(1)).unwrap();
        // degree(0) = 2, degree(1) = 3, nothing cached.
        assert_eq!(v.cost(idx), 2.0 + 3.0);
        assert_eq!(v.hops(idx), 1);
    }

    #[test]
    fn views_reflect_cached_load() {
        let mut net = paper_grid(4).unwrap();
        let (before, _) = build_views(&net, 1).unwrap();
        net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
        let (after, _) = build_views(&net, 1).unwrap();
        let idx = before[0].index_of(NodeId::new(1)).unwrap();
        assert!(after[0].cost(idx) > before[0].cost(idx));
    }

    #[test]
    fn producer_sends_no_cc_traffic() {
        // 3x3 grid, producer min(9, 8) = 8 (a corner). Two-hop balls:
        // 5 members at a corner, 6 at an edge middle, 8 at the center.
        let net = paper_grid(3).unwrap();
        assert_eq!(net.producer(), NodeId::new(8));
        let (views, stats) = build_views(&net, 2).unwrap();
        let clients: u64 = views
            .iter()
            .filter(|v| v.center() != net.producer())
            .map(|v| 2 * v.members().len() as u64)
            .sum();
        assert_eq!(stats[MessageKind::Cc], clients);
        assert_eq!(clients, 2 * (4 * 5 + 4 * 6 + 8 - 5));
    }

    #[test]
    fn larger_k_sees_no_smaller_costs() {
        let net = paper_grid(5).unwrap();
        let (k1, _) = build_views(&net, 1).unwrap();
        let (k2, _) = build_views(&net, 2).unwrap();
        for (v1, v2) in k1.iter().zip(&k2) {
            for (i, &m) in v1.members().iter().enumerate() {
                let j = v2.index_of(m).unwrap();
                // More topology visible => equal or cheaper local route.
                assert!(v2.cost(j) <= v1.cost(i) + 1e-9);
            }
        }
    }
}
