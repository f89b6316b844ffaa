//! Prior-work baselines: Hop-Count-based and Contention-based caching.
//!
//! The evaluation compares against two wireless-caching schemes:
//!
//! * **Hopc** — Nuggehalli et al. \[13\]: cache-location selection driven
//!   by *hop-count* access delay;
//! * **Cont** — Sung et al. \[4\]: the same style of selection driven by a
//!   *contention* delay metric (degree-based path costs).
//!
//! Both select caching nodes from the **topology only** — no storage
//! feedback — so they pick the same set for every chunk. Selection is a
//! greedy facility-location sweep: starting from the producer, keep
//! adding the node that most reduces total access cost in the scheme's
//! own metric, while each added cache charges `λ · |clients|` (the
//! scheme's caching-energy weight; the paper sets `λ = 1`).
//!
//! The **multi-item extension** of §V is implemented as described: the
//! chosen set absorbs chunks until no member has vacancy, then the
//! procedure recurses on the subgraph of untouched nodes (largest
//! connected component when it falls apart), until every chunk is
//! placed or storage is exhausted.
//!
//! Costs reported per chunk use the same Contention Cost model as every
//! other planner, so the figures compare like with like.

use peercache_graph::paths::{induced_rows, Parallelism};
use peercache_graph::{components, NodeId};

use crate::costs::CostWeights;
use crate::placement::Placement;
use crate::planner::{plan_chunks, CachePlanner};
use crate::{ChunkId, CoreError, Network, ReplicationPolicy};

/// Which delay metric drives the baseline's greedy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMetric {
    /// Hop count (Nuggehalli et al. \[13\]).
    HopCount,
    /// Static degree-based contention (Sung et al. \[4\]) — node term
    /// `w_k` without the `(1 + S(k))` storage feedback.
    StaticContention,
}

/// Configuration shared by both baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Caching-cost weight `λ`; each cache charges `λ · |clients|`
    /// in metric units during selection. The paper uses `λ = 1`.
    pub lambda: f64,
    /// Objective weights used when *reporting* costs.
    pub weights: CostWeights,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            lambda: 1.0,
            weights: CostWeights::default(),
        }
    }
}

/// Greedy baseline planner (Hopc or Cont depending on the metric).
#[derive(Debug, Clone)]
pub struct GreedyBaselinePlanner {
    metric: BaselineMetric,
    /// Planner parameters.
    pub config: BaselineConfig,
}

impl GreedyBaselinePlanner {
    /// The Hop-Count-based planner ("Hopc").
    pub fn hop_count(config: BaselineConfig) -> Self {
        GreedyBaselinePlanner {
            metric: BaselineMetric::HopCount,
            config,
        }
    }

    /// The Contention-based planner ("Cont").
    pub fn contention(config: BaselineConfig) -> Self {
        GreedyBaselinePlanner {
            metric: BaselineMetric::StaticContention,
            config,
        }
    }

    /// The metric driving this planner's selection.
    pub fn metric(&self) -> BaselineMetric {
        self.metric
    }
}

/// Greedily selects a caching set on (a component of) the topology.
///
/// `component` lists the nodes of the currently active subgraph in
/// original ids, strictly ascending; the producer participates as a
/// free pre-opened provider when it belongs to the component. Returns
/// chosen nodes (never the producer), sorted.
fn greedy_select(
    net: &Network,
    metric: BaselineMetric,
    lambda: f64,
    component: &[NodeId],
) -> Result<Vec<NodeId>, CoreError> {
    let size = component.len();
    if size == 0 {
        return Ok(Vec::new());
    }
    // Metric within the subgraph the component induces: Cont's node
    // cost is the degree inside it; Hopc reads hops only.
    let g = net.graph();
    let mut node_costs = vec![0.0; g.node_count()];
    if metric == BaselineMetric::StaticContention {
        for &k in component {
            let inside = g
                .neighbors(k)
                .filter(|v| component.binary_search(v).is_ok());
            node_costs[k.index()] = inside.count() as f64;
        }
    }
    // Every member is a source: the greedy sweep reads every
    // candidate-to-client pair.
    let (costs, hops) = induced_rows(g, component, component, &node_costs)?;
    let cost = |i: usize, j: usize| -> f64 {
        match metric {
            BaselineMetric::HopCount => match hops[i * size + j] {
                u32::MAX => f64::INFINITY,
                h => f64::from(h),
            },
            BaselineMetric::StaticContention => costs[i * size + j],
        }
    };

    let producer_local = component.binary_search(&net.producer()).ok();
    let clients: Vec<usize> = (0..size).filter(|&i| Some(i) != producer_local).collect();
    if clients.is_empty() {
        return Ok(Vec::new());
    }
    let facility_charge = lambda * clients.len() as f64;

    let mut current: Vec<f64> = clients
        .iter()
        .map(|&j| producer_local.map_or(f64::INFINITY, |p| cost(p, j)))
        .collect();
    let mut chosen_local: Vec<usize> = Vec::new();
    loop {
        let mut best: Option<(f64, usize)> = None;
        for &cand in &clients {
            if chosen_local.contains(&cand) {
                continue;
            }
            let gain: f64 = clients
                .iter()
                .enumerate()
                .map(|(idx, &j)| {
                    let c = cost(cand, j);
                    if current[idx].is_infinite() {
                        // Unreached clients value any provider highly but
                        // finitely: use the subgraph diameter surrogate.
                        (size as f64) - c.min(size as f64)
                    } else {
                        (current[idx] - c).max(0.0)
                    }
                })
                .sum();
            if best.is_none_or(|(bg, bc)| gain > bg || (gain == bg && cand < bc)) {
                best = Some((gain, cand));
            }
        }
        // Both schemes always deploy at least one cache (the paper's
        // baselines "choose a group of nodes" unconditionally); further
        // caches must beat the λ-scaled caching charge.
        let force = chosen_local.is_empty();
        match best {
            Some((gain, cand)) if force || gain > facility_charge => {
                chosen_local.push(cand);
                for (idx, &j) in clients.iter().enumerate() {
                    current[idx] = current[idx].min(cost(cand, j));
                }
            }
            _ => break,
        }
    }
    let mut out: Vec<NodeId> = chosen_local.into_iter().map(|l| component[l]).collect();
    out.sort_unstable();
    Ok(out)
}

impl CachePlanner for GreedyBaselinePlanner {
    fn name(&self) -> &str {
        self.label()
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        if !(self.config.lambda.is_finite() && self.config.lambda >= 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "lambda must be nonnegative and finite, got {}",
                self.config.lambda
            )));
        }
        // `claimed` marks nodes already claimed by a previous round's set.
        let mut claimed = vec![false; net.node_count()];
        let mut round_set: Vec<NodeId> = Vec::new();
        plan_chunks(
            self.label(),
            net,
            (0..chunk_count).map(ChunkId::new),
            self.config.weights,
            Parallelism::Sequential,
            &ReplicationPolicy::default(),
            |net, _, _, _| {
                // Refresh the round set when nobody in it has vacancy left.
                if round_set.iter().all(|&i| net.remaining(i) == 0) {
                    round_set = self.next_round_set(net, &mut claimed)?;
                }
                Ok(round_set
                    .iter()
                    .copied()
                    .filter(|&i| net.remaining(i) > 0)
                    .collect())
            },
        )
    }
}

impl GreedyBaselinePlanner {
    /// The figure legend of this planner's metric.
    fn label(&self) -> &'static str {
        match self.metric {
            BaselineMetric::HopCount => "Hopc",
            BaselineMetric::StaticContention => "Cont",
        }
    }

    /// Selects the next round's caching set on the residual subgraph
    /// (§V's multi-item extension), marking its members as claimed.
    fn next_round_set(
        &self,
        net: &Network,
        claimed: &mut [bool],
    ) -> Result<Vec<NodeId>, CoreError> {
        // Residual nodes: unclaimed, with capacity, plus the producer.
        let residual: Vec<NodeId> = net
            .graph()
            .nodes()
            .filter(|&n| n == net.producer() || (!claimed[n.index()] && net.remaining(n) > 0))
            .collect();
        if residual.len() <= 1 {
            return Ok(Vec::new()); // nothing but the producer left
        }
        let (sub, originals) = net.graph().induced_subgraph(&residual)?;
        let comp_local = components::largest_component(&sub);
        let component: Vec<NodeId> = comp_local.iter().map(|&l| originals[l.index()]).collect();
        let set = greedy_select(net, self.metric, self.config.lambda, &component)?;
        for &i in &set {
            claimed[i.index()] = true;
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    fn net6() -> Network {
        Network::new(builders::grid(6, 6), NodeId::new(9), 5).unwrap()
    }

    #[test]
    fn baselines_choose_a_fixed_set_while_capacity_lasts() {
        for planner in [
            GreedyBaselinePlanner::hop_count(BaselineConfig::default()),
            GreedyBaselinePlanner::contention(BaselineConfig::default()),
        ] {
            let mut net = net6();
            let placement = planner.plan(&mut net, 5).unwrap();
            let first = &placement.chunks()[0].caches;
            assert!(!first.is_empty(), "{} chose nothing", planner.name());
            for cp in placement.chunks() {
                assert_eq!(&cp.caches, first, "{} set changed early", planner.name());
            }
        }
    }

    #[test]
    fn contention_baseline_spreads_more_than_hop_count() {
        let mut hnet = net6();
        let mut cnet = net6();
        let hopc = GreedyBaselinePlanner::hop_count(BaselineConfig::default())
            .plan(&mut hnet, 1)
            .unwrap();
        let cont = GreedyBaselinePlanner::contention(BaselineConfig::default())
            .plan(&mut cnet, 1)
            .unwrap();
        assert!(
            cont.chunks()[0].caches.len() >= hopc.chunks()[0].caches.len(),
            "cont {} < hopc {}",
            cont.chunks()[0].caches.len(),
            hopc.chunks()[0].caches.len()
        );
    }

    #[test]
    fn multi_item_extension_recruits_a_second_set() {
        // Capacity 2, 5 chunks: the first set fills after 2 chunks.
        let mut net = Network::new(builders::grid(4, 4), NodeId::new(5), 2).unwrap();
        let planner = GreedyBaselinePlanner::contention(BaselineConfig::default());
        let placement = planner.plan(&mut net, 5).unwrap();
        let set0 = &placement.chunks()[0].caches;
        let set2 = &placement.chunks()[2].caches;
        assert!(!set0.is_empty());
        assert!(
            set0.iter().all(|n| !set2.contains(n)),
            "sets must be disjoint"
        );
    }

    #[test]
    fn exhausted_storage_falls_back_to_producer_only() {
        let mut net = Network::new(builders::grid(3, 3), NodeId::new(4), 1).unwrap();
        let planner = GreedyBaselinePlanner::hop_count(BaselineConfig::default());
        // 9 chunks cannot all be cached with 8 slots; late chunks get
        // empty cache sets instead of errors.
        let placement = planner.plan(&mut net, 9).unwrap();
        assert_eq!(placement.chunks().len(), 9);
        assert!(placement.chunks().last().unwrap().caches.is_empty());
    }

    #[test]
    fn negative_lambda_is_rejected() {
        let mut net = net6();
        let planner = GreedyBaselinePlanner::hop_count(BaselineConfig {
            lambda: -1.0,
            ..Default::default()
        });
        assert!(matches!(
            planner.plan(&mut net, 1),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn names_match_the_figures() {
        assert_eq!(
            GreedyBaselinePlanner::hop_count(BaselineConfig::default()).name(),
            "Hopc"
        );
        assert_eq!(
            GreedyBaselinePlanner::contention(BaselineConfig::default()).name(),
            "Cont"
        );
    }

    #[test]
    fn selection_is_deterministic() {
        let planner = GreedyBaselinePlanner::contention(BaselineConfig::default());
        let mut n1 = net6();
        let mut n2 = net6();
        let p1 = planner.plan(&mut n1, 3).unwrap();
        let p2 = planner.plan(&mut n2, 3).unwrap();
        assert_eq!(p1, p2);
    }
}
