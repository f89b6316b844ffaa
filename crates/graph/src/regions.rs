//! Deterministic bounded-size region partitioning (the hierarchical
//! planner's decomposition substrate).
//!
//! [`RegionPartition::grow`] covers the graph with connected regions of
//! at most `max_size` nodes by seeded BFS-ball growth: region seeds are
//! visited in a seeded pseudo-random order, and each region floods
//! breadth-first over still-unassigned nodes (neighbors in ascending-id
//! order) until it hits the size bound. The construction touches every
//! node and edge once, is fully deterministic for a given `(graph,
//! max_size, seed)`, and never leaves a node unassigned.
//!
//! The partition also exposes k-hop *halos* around each region, which
//! is exactly the locality the paper's distributed Algorithm 2
//! exchanges messages over: planning a region only needs exact cost
//! state for its own nodes plus a k-hop fringe.

use crate::graph::{Graph, NodeId};

/// SplitMix64 — the tiny seeded mixer used wherever the graph layer
/// needs deterministic pseudo-randomness without an injected RNG
/// (region seed order, landmark start). Public so downstream crates can
/// derive sub-seeds the same way.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A cover of the node set by connected, bounded-size regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionPartition {
    /// Region index per node.
    region_of: Vec<u32>,
    /// Node lists per region, each sorted ascending.
    regions: Vec<Vec<NodeId>>,
}

impl RegionPartition {
    /// Grows the partition over `g` with regions of at most `max_size`
    /// nodes (clamped to at least 1), visiting region seeds in an order
    /// derived from `seed`.
    ///
    /// Every node is assigned to exactly one region; regions are
    /// connected in the subgraph induced on their own nodes (a region
    /// is one BFS flood over unassigned nodes). Enclaves left behind by
    /// earlier floods simply become their own (possibly small) regions.
    #[must_use]
    pub fn grow(g: &Graph, max_size: usize, seed: u64) -> RegionPartition {
        let n = g.node_count();
        let max_size = max_size.max(1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&u| (splitmix64(seed ^ u64::from(u)), u));

        const UNASSIGNED: u32 = u32::MAX;
        let mut region_of = vec![UNASSIGNED; n];
        let mut regions: Vec<Vec<NodeId>> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for &start in &order {
            if region_of[start as usize] != UNASSIGNED {
                continue;
            }
            let r = regions.len() as u32;
            let mut members: Vec<NodeId> = Vec::new();
            queue.clear();
            queue.push(start);
            region_of[start as usize] = r;
            let mut head = 0usize;
            while head < queue.len() && members.len() < max_size {
                let u = queue[head];
                head += 1;
                members.push(NodeId::new(u as usize));
                for v in g.neighbors(NodeId::new(u as usize)) {
                    if members.len() + (queue.len() - head) >= max_size {
                        break;
                    }
                    if region_of[v.index()] == UNASSIGNED {
                        region_of[v.index()] = r;
                        queue.push(v.index() as u32);
                    }
                }
            }
            // Nodes still queued but past the size bound go back to the
            // pool for a later region.
            for &u in &queue[head..] {
                region_of[u as usize] = UNASSIGNED;
            }
            members.sort_unstable();
            regions.push(members);
        }
        RegionPartition { region_of, regions }
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The (sorted) nodes of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn region(&self, r: usize) -> &[NodeId] {
        &self.regions[r]
    }

    /// The region index of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[must_use]
    pub fn region_of(&self, node: NodeId) -> usize {
        self.region_of[node.index()] as usize
    }

    /// The k-hop halo of region `r`: nodes *outside* the region within
    /// `k` hops of one of its members, sorted ascending. `k == 0`
    /// yields an empty halo.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn halo_of(&self, g: &Graph, r: usize, k: u32) -> Vec<NodeId> {
        let mut depth = vec![u32::MAX; g.node_count()];
        let mut queue: Vec<NodeId> = Vec::new();
        for &u in &self.regions[r] {
            depth[u.index()] = 0;
            queue.push(u);
        }
        let mut head = 0usize;
        let mut halo = Vec::new();
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            if depth[u.index()] == k {
                continue;
            }
            for v in g.neighbors(u) {
                if depth[v.index()] == u32::MAX {
                    depth[v.index()] = depth[u.index()] + 1;
                    queue.push(v);
                    halo.push(v);
                }
            }
        }
        halo.sort_unstable();
        halo
    }

    /// The k-hop demand ball of region `r`: the region's own members
    /// plus its [`halo_of`](RegionPartition::halo_of), sorted ascending.
    /// This is the column set of a scoped-contention block and the
    /// candidate scope of shard-local repair decisions.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn ball_of(&self, g: &Graph, r: usize, k: u32) -> Vec<NodeId> {
        let mut ball = self.regions[r].clone();
        ball.extend(self.halo_of(g, r, k));
        ball.sort_unstable();
        ball
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn covers_every_node_within_bound() {
        let g = builders::grid(10, 10);
        let p = RegionPartition::grow(&g, 16, 7);
        let mut seen = [false; 100];
        for r in 0..p.region_count() {
            assert!(p.region(r).len() <= 16, "region over the size bound");
            assert!(!p.region(r).is_empty());
            for &u in p.region(r) {
                assert!(!seen[u.index()], "node assigned twice");
                seen[u.index()] = true;
                assert_eq!(p.region_of(u), r);
            }
        }
        assert!(seen.iter().all(|&s| s), "node left unassigned");
    }

    #[test]
    fn regions_are_connected_internally() {
        let g = builders::grid(12, 12);
        let p = RegionPartition::grow(&g, 20, 3);
        for r in 0..p.region_count() {
            assert!(
                crate::components::is_connected_subset(&g, p.region(r)),
                "region {r} is disconnected"
            );
        }
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_it() {
        let g = builders::grid(8, 8);
        let a = RegionPartition::grow(&g, 12, 1);
        let b = RegionPartition::grow(&g, 12, 1);
        assert_eq!(a, b);
        let c = RegionPartition::grow(&g, 12, 2);
        // Different seeds are allowed to coincide on tiny graphs, but on
        // an 8x8 grid the seed order virtually always differs.
        assert!(a != c || a.region_count() == c.region_count());
    }

    #[test]
    fn halos_are_consistent() {
        let g = builders::grid(6, 6);
        let p = RegionPartition::grow(&g, 9, 11);
        for r in 0..p.region_count() {
            let halo = p.halo_of(&g, r, 1);
            for &h in &halo {
                assert_ne!(p.region_of(h), r);
                assert!(g.neighbors(h).any(|v| p.region_of(v) == r));
            }
            assert!(p.halo_of(&g, r, 0).is_empty());
        }
    }

    #[test]
    fn ball_is_sorted_union_of_region_and_halo() {
        let g = builders::grid(6, 6);
        let p = RegionPartition::grow(&g, 9, 11);
        for r in 0..p.region_count() {
            for k in 0..3u32 {
                let ball = p.ball_of(&g, r, k);
                let halo = p.halo_of(&g, r, k);
                assert_eq!(ball.len(), p.region(r).len() + halo.len());
                assert!(ball.windows(2).all(|w| w[0] < w[1]), "ball not sorted");
                for &u in p.region(r) {
                    assert!(ball.binary_search(&u).is_ok());
                }
                for &u in &halo {
                    assert!(ball.binary_search(&u).is_ok());
                }
            }
        }
    }

    #[test]
    fn single_region_when_bound_covers_graph() {
        let g = builders::grid(4, 4);
        let p = RegionPartition::grow(&g, 100, 5);
        assert_eq!(p.region_count(), 1);
        assert!(p.halo_of(&g, 0, 1).is_empty());
    }
}
