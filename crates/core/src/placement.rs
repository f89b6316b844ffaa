//! Placement results produced by the planners.
//!
//! A [`Placement`] records, per chunk, which nodes cache it, how every
//! client accesses it, the dissemination tree, and the cost breakdown at
//! placement time — everything the evaluation figures need.

use peercache_graph::paths::PathSelection;
use peercache_graph::NodeId;

use crate::costs::{ContentionMatrix, CostWeights};
use crate::instance::SetCosts;
use crate::{ChunkId, CoreError, Network};

/// The plan for a single chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPlacement {
    /// The chunk this plan is for.
    pub chunk: ChunkId,
    /// Nodes selected to cache the chunk (sorted; may be empty when
    /// every client simply fetches from the producer).
    pub caches: Vec<NodeId>,
    /// `(client, provider)` pairs: where each client gets the chunk.
    pub assignment: Vec<(NodeId, NodeId)>,
    /// Edges of the dissemination (Steiner) tree.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// Cost breakdown at placement time.
    pub costs: SetCosts,
}

impl ChunkPlacement {
    /// Contention cost of this chunk: accessing + dissemination phases
    /// (what Fig. 9 plots per chunk).
    pub fn contention_cost(&self) -> f64 {
        self.costs.access + self.costs.dissemination
    }
}

/// A full multi-chunk placement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Placement {
    chunks: Vec<ChunkPlacement>,
}

impl Placement {
    /// Creates a placement from per-chunk plans.
    pub fn new(chunks: Vec<ChunkPlacement>) -> Self {
        Placement { chunks }
    }

    /// Per-chunk plans in placement order.
    pub fn chunks(&self) -> &[ChunkPlacement] {
        &self.chunks
    }

    /// Appends one chunk's plan.
    pub fn push(&mut self, chunk: ChunkPlacement) {
        self.chunks.push(chunk);
    }

    /// The smallest copy count over all chunks (0 for an empty
    /// placement): how many copies the worst-protected chunk has, i.e.
    /// the replication degree the placement actually guarantees.
    pub fn min_copies(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.caches.len())
            .min()
            .unwrap_or(0)
    }

    /// Summed cost breakdown over all chunks.
    pub fn total_costs(&self) -> SetCosts {
        let mut total = SetCosts::default();
        for c in &self.chunks {
            total.fairness += c.costs.fairness;
            total.access += c.costs.access;
            total.dissemination += c.costs.dissemination;
        }
        total
    }

    /// Total Contention Cost (accessing + dissemination, all chunks) —
    /// the headline metric of Figs. 2, 3, 4 and 8.
    pub fn total_contention_cost(&self) -> f64 {
        self.chunks
            .iter()
            .map(ChunkPlacement::contention_cost)
            .sum()
    }

    /// Contention cost per chunk, in chunk order (Fig. 9).
    pub fn per_chunk_contention(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .map(ChunkPlacement::contention_cost)
            .collect()
    }

    /// Running (accumulated) contention cost after each chunk (Fig. 8).
    pub fn accumulated_contention(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.chunks
            .iter()
            .map(|c| {
                acc += c.contention_cost();
                acc
            })
            .collect()
    }
}

/// Re-costs a finished placement against a network state.
///
/// §V's cross-algorithm comparisons "put all the chunks to the original
/// connected graph based on which nodes access which chunks in all
/// rounds" — i.e. the recorded assignments and dissemination trees are
/// priced under the **final** caching state, where every cached copy
/// contributes its `(1 + S(k))` contention inflation. Pass the network
/// as it stands after planning.
///
/// Assignments and trees are kept as recorded; only the access and
/// dissemination costs change (fairness stays at its placement-time
/// value — it is not part of the contention figures).
///
/// # Errors
///
/// Propagates path-computation failures (cannot occur for a placement
/// produced on `net`).
pub fn recost_final(
    net: &Network,
    placement: &Placement,
    weights: CostWeights,
    selection: PathSelection,
) -> Result<Placement, CoreError> {
    let matrix = ContentionMatrix::compute(net, selection)?;
    let chunks = placement
        .chunks()
        .iter()
        .map(|cp| {
            let access: f64 = cp
                .assignment
                .iter()
                .map(|&(client, provider)| weights.contention * matrix.cost(provider, client))
                .sum();
            let dissemination: f64 = cp
                .tree_edges
                .iter()
                .map(|&(u, v)| weights.dissemination * matrix.edge_cost(u, v))
                .sum();
            ChunkPlacement {
                costs: SetCosts {
                    fairness: cp.costs.fairness,
                    access,
                    dissemination,
                },
                ..cp.clone()
            }
        })
        .collect();
    Ok(Placement { chunks })
}

impl FromIterator<ChunkPlacement> for Placement {
    fn from_iter<T: IntoIterator<Item = ChunkPlacement>>(iter: T) -> Self {
        Placement::new(iter.into_iter().collect())
    }
}

impl Extend<ChunkPlacement> for Placement {
    fn extend<T: IntoIterator<Item = ChunkPlacement>>(&mut self, iter: T) {
        self.chunks.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(chunk: usize, access: f64, diss: f64, fair: f64) -> ChunkPlacement {
        ChunkPlacement {
            chunk: ChunkId::new(chunk),
            caches: vec![NodeId::new(chunk)],
            assignment: vec![],
            tree_edges: vec![],
            costs: SetCosts {
                fairness: fair,
                access,
                dissemination: diss,
            },
        }
    }

    #[test]
    fn totals_sum_over_chunks() {
        let p = Placement::new(vec![plan(0, 1.0, 2.0, 0.5), plan(1, 3.0, 4.0, 1.5)]);
        let t = p.total_costs();
        assert_eq!(t.fairness, 2.0);
        assert_eq!(t.access, 4.0);
        assert_eq!(t.dissemination, 6.0);
        assert_eq!(p.total_contention_cost(), 10.0);
    }

    #[test]
    fn per_chunk_and_accumulated_series() {
        let p = Placement::new(vec![plan(0, 1.0, 1.0, 0.0), plan(1, 2.0, 0.0, 0.0)]);
        assert_eq!(p.per_chunk_contention(), vec![2.0, 2.0]);
        assert_eq!(p.accumulated_contention(), vec![2.0, 4.0]);
    }

    #[test]
    fn collect_and_extend() {
        let mut p: Placement = vec![plan(0, 1.0, 0.0, 0.0)].into_iter().collect();
        p.extend(vec![plan(1, 1.0, 0.0, 0.0)]);
        assert_eq!(p.chunks().len(), 2);
    }

    #[test]
    fn empty_placement_has_zero_costs() {
        let p = Placement::default();
        assert_eq!(p.total_contention_cost(), 0.0);
        assert!(p.per_chunk_contention().is_empty());
    }

    mod recost {
        use super::super::*;
        use crate::approx::ApproxPlanner;
        use crate::planner::CachePlanner;
        use crate::workload::paper_grid;
        use peercache_graph::paths::PathSelection;

        #[test]
        fn final_recosting_preserves_structure_and_fairness() {
            let mut net = paper_grid(4).unwrap();
            let placed = ApproxPlanner::default().plan(&mut net, 3).unwrap();
            let recosted = recost_final(
                &net,
                &placed,
                CostWeights::default(),
                PathSelection::FewestHops,
            )
            .unwrap();
            for (a, b) in placed.chunks().iter().zip(recosted.chunks()) {
                assert_eq!(a.caches, b.caches);
                assert_eq!(a.assignment, b.assignment);
                assert_eq!(a.tree_edges, b.tree_edges);
                assert_eq!(a.costs.fairness, b.costs.fairness);
            }
        }

        #[test]
        fn later_chunks_cost_no_less_under_final_state() {
            // Final-state pricing sees every copy, so each chunk's cost
            // is at least its placement-time cost (loads only grew).
            let mut net = paper_grid(4).unwrap();
            let placed = ApproxPlanner::default().plan(&mut net, 3).unwrap();
            let recosted = recost_final(
                &net,
                &placed,
                CostWeights::default(),
                PathSelection::FewestHops,
            )
            .unwrap();
            for (a, b) in placed.chunks().iter().zip(recosted.chunks()) {
                assert!(b.costs.access + 1e-9 >= a.costs.access);
                assert!(b.costs.dissemination + 1e-9 >= a.costs.dissemination);
            }
        }

        #[test]
        fn recosting_an_empty_placement_is_empty() {
            let net = paper_grid(3).unwrap();
            let p = recost_final(
                &net,
                &Placement::default(),
                CostWeights::default(),
                PathSelection::FewestHops,
            )
            .unwrap();
            assert!(p.chunks().is_empty());
        }

        #[test]
        fn contention_weight_scales_recosted_access() {
            let mut net = paper_grid(4).unwrap();
            let placed = ApproxPlanner::default().plan(&mut net, 2).unwrap();
            let base = recost_final(
                &net,
                &placed,
                CostWeights::default(),
                PathSelection::FewestHops,
            )
            .unwrap();
            let doubled = recost_final(
                &net,
                &placed,
                CostWeights {
                    contention: 2.0,
                    ..Default::default()
                },
                PathSelection::FewestHops,
            )
            .unwrap();
            for (a, b) in base.chunks().iter().zip(doubled.chunks()) {
                assert!((b.costs.access - 2.0 * a.costs.access).abs() < 1e-9);
            }
        }
    }
}
