//! The per-chunk Connected Facility Location instance.
//!
//! §III-D shows the caching ILP (3) is a *sum of ConFL problems*, one
//! per chunk (formulation (8)). A [`ConflInstance`] is the snapshot of
//! one summand: facility opening costs are the Fairness Degree Costs
//! `f_i`, client connection costs are Path Contention Costs `c_ij`,
//! Steiner edges cost `M · c_e`, and the producer acts as a pre-opened,
//! zero-cost facility that the dissemination tree must reach.
//!
//! An instance memoises one edge-weighted shortest-path tree per
//! dissemination terminal ([`SptMemo`]): its matrix is frozen,
//! so every tree a chunk prices — each removal candidate, the commit,
//! a repair's trim and final tree — shares the same per-terminal
//! searches.

use peercache_graph::paths::PathSelection;
use peercache_graph::steiner::{SptMemo, SteinerTree};
use peercache_graph::NodeId;

use crate::costs::{ContentionMatrix, CostWeights};
use crate::{ChunkId, CoreError, Network};

/// Cost breakdown of evaluating one facility set for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SetCosts {
    /// Σ fairness cost of the opened facilities.
    pub fairness: f64,
    /// Σ over clients of the connection cost to the nearest provider.
    pub access: f64,
    /// `M ·` Steiner tree cost over facilities ∪ {producer}.
    pub dissemination: f64,
}

impl SetCosts {
    /// Weighted total of the three terms (the ConFL objective value).
    pub fn total(&self) -> f64 {
        self.fairness + self.access + self.dissemination
    }
}

/// Outcome of [`ConflInstance::evaluate_set`]: the cost breakdown, the
/// `(client, provider)` assignment, and the dissemination-tree edges.
pub type SetEvaluation = (SetCosts, Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// One chunk's ConFL instance, frozen at the current caching state.
#[derive(Debug, Clone)]
pub struct ConflInstance {
    producer: NodeId,
    facility_cost: Vec<f64>,
    matrix: ContentionMatrix,
    weights: CostWeights,
    clients: Vec<NodeId>,
    /// Shortest-path trees under [`ContentionMatrix::edge_cost`], solved
    /// on first use.
    spt: SptMemo,
}

impl ConflInstance {
    /// Builds the instance for the network's current state.
    ///
    /// Facility cost is `weights.fairness · f_i`; nodes with exhausted
    /// storage (and the producer) get `f64::INFINITY` and are not
    /// [`candidates`](ConflInstance::candidates).
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] from the path computation.
    pub fn build(net: &Network, weights: CostWeights) -> Result<Self, CoreError> {
        ConflInstance::build_with_clients(net, weights, net.clients().collect())
    }

    /// Builds the instance for one specific chunk, honoring its
    /// interest restriction ([`Network::set_interest`]): only the
    /// chunk's audience appears as ConFL clients. `_selection` is
    /// unread: [`PathSelection`] names the one route model.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] from the path computation.
    pub fn build_for_chunk(
        net: &Network,
        chunk: ChunkId,
        weights: CostWeights,
        _selection: PathSelection,
    ) -> Result<Self, CoreError> {
        ConflInstance::build_with_clients(net, weights, net.interested_clients(chunk))
    }

    /// Builds the instance for one chunk around an already-computed
    /// contention snapshot — the fast path of the iterative planners,
    /// which carry one [`ContentionMatrix`] across chunks and refresh it
    /// with [`ContentionMatrix::update`] instead of recomputing all
    /// shortest paths.
    ///
    /// `matrix` must reflect `net`'s *current* caching state; the
    /// facility (fairness) costs are rebuilt here, so only the path
    /// snapshot is taken on trust. Recover the matrix for the next chunk
    /// with [`ConflInstance::into_matrix`].
    pub fn build_for_chunk_with_matrix(
        net: &Network,
        chunk: ChunkId,
        weights: CostWeights,
        matrix: ContentionMatrix,
    ) -> Self {
        ConflInstance {
            producer: net.producer(),
            facility_cost: ConflInstance::facility_costs(net, weights),
            matrix,
            weights,
            clients: net.interested_clients(chunk),
            spt: SptMemo::new(net.node_count()),
        }
    }

    /// Consumes the instance, handing back its contention snapshot so
    /// the next chunk can refresh it incrementally.
    pub fn into_matrix(self) -> ContentionMatrix {
        self.matrix
    }

    /// Restricts the instance to the given client audience (sorted and
    /// deduplicated).
    ///
    /// The per-component planning hook: a partitioned world narrows a
    /// chunk's audience to the clients its data can actually reach
    /// before running the ascent, deferring the rest explicitly instead
    /// of feeding infinite connection costs into the solver.
    pub fn with_clients(mut self, mut clients: Vec<NodeId>) -> Self {
        clients.sort_unstable();
        clients.dedup();
        self.clients = clients;
        self
    }

    fn build_with_clients(
        net: &Network,
        weights: CostWeights,
        clients: Vec<NodeId>,
    ) -> Result<Self, CoreError> {
        let matrix = ContentionMatrix::compute(net)?;
        Ok(ConflInstance {
            producer: net.producer(),
            facility_cost: ConflInstance::facility_costs(net, weights),
            matrix,
            weights,
            clients,
            spt: SptMemo::new(net.node_count()),
        })
    }

    pub(crate) fn facility_costs(net: &Network, weights: CostWeights) -> Vec<f64> {
        net.graph()
            .nodes()
            .map(|i| {
                // Weighted summation of the storage and battery
                // fairness terms (footnote 1 of §III-B). With the
                // default battery weight of 0 this is exactly Eq. 1.
                let storage = weights.fairness * net.fairness_cost(i);
                if weights.battery_fairness > 0.0 {
                    storage + weights.battery_fairness * net.battery_fairness_cost(i)
                } else {
                    storage
                }
            })
            .collect()
    }

    /// The ConFL clients of this instance (the chunk's audience),
    /// sorted.
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// The producer (pre-opened root facility).
    pub fn producer(&self) -> NodeId {
        self.producer
    }

    /// The cost weights the instance was built with.
    pub fn weights(&self) -> CostWeights {
        self.weights
    }

    /// The contention snapshot backing this instance.
    pub fn matrix(&self) -> &ContentionMatrix {
        &self.matrix
    }

    /// Facility opening cost `f_i` (already fairness-weighted);
    /// `f64::INFINITY` for full nodes and the producer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn facility_cost(&self, i: NodeId) -> f64 {
        self.facility_cost[i.index()]
    }

    /// Connection cost of client `j` to facility `i` (contention
    /// weighted).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn connection_cost(&self, i: NodeId, j: NodeId) -> f64 {
        self.weights.contention * self.matrix.cost(i, j)
    }

    /// Nodes that may open as facilities (finite cost), sorted by id.
    pub fn candidates(&self) -> Vec<NodeId> {
        (0..self.facility_cost.len())
            .map(NodeId::new)
            .filter(|&i| self.facility_cost[i.index()].is_finite())
            .collect()
    }

    /// Number of nodes in the instance.
    pub fn node_count(&self) -> usize {
        self.facility_cost.len()
    }

    /// Assigns each client to its cheapest provider among
    /// `facilities ∪ {producer}`; returns `(client, provider)` pairs in
    /// client order plus the summed access cost.
    ///
    /// A client's provider is the least under `(cost, id)`; a facility
    /// node serves itself at zero cost.
    pub fn assign_clients(&self, facilities: &[NodeId]) -> (Vec<(NodeId, NodeId)>, f64) {
        let mut assignment = Vec::new();
        let mut access = 0.0;
        for &j in &self.clients {
            let mut best = (self.producer, self.connection_cost(self.producer, j));
            for &i in facilities {
                let c = self.connection_cost(i, j);
                if c < best.1 || (crate::costs::cost_tie_eq(c, best.1) && i < best.0) {
                    best = (i, c);
                }
            }
            access += best.1;
            assignment.push((j, best.0));
        }
        (assignment, access)
    }

    /// The approximate Steiner tree over `terminals` under this
    /// instance's edge costs ([`ContentionMatrix::edge_cost`]),
    /// bit-for-bit [`peercache_graph::steiner::steiner_tree`]'s. Each
    /// terminal's shortest-path tree is solved on its first use and
    /// read from the instance's memo afterwards.
    ///
    /// `net` must have the topology the instance was built for.
    ///
    /// # Errors
    ///
    /// Propagates Steiner-tree failures (cannot occur on a connected
    /// [`Network`] with valid terminals).
    pub fn dissemination_tree(
        &self,
        net: &Network,
        terminals: &[NodeId],
    ) -> Result<SteinerTree, CoreError> {
        Ok(self
            .spt
            .tree(net.graph(), terminals, |u, v| self.matrix.edge_cost(u, v))?)
    }

    /// How many per-terminal shortest-path trees the instance has
    /// solved so far.
    pub fn spt_solved(&self) -> usize {
        self.spt.solved()
    }

    /// Evaluates opening exactly `facilities` for this chunk: fairness +
    /// access + `M ·` Steiner(facilities ∪ {producer}).
    ///
    /// Returns the breakdown and the dissemination tree edges.
    ///
    /// # Errors
    ///
    /// Propagates Steiner-tree failures (cannot occur on a connected
    /// [`Network`] with valid facilities).
    pub fn evaluate_set(
        &self,
        net: &Network,
        facilities: &[NodeId],
    ) -> Result<SetEvaluation, CoreError> {
        let fairness: f64 = facilities.iter().map(|&i| self.facility_cost(i)).sum();
        let (assignment, access) = self.assign_clients(facilities);
        let mut terminals: Vec<NodeId> = facilities.to_vec();
        terminals.push(self.producer);
        let tree = self.dissemination_tree(net, &terminals)?;
        let costs = SetCosts {
            fairness,
            access,
            dissemination: self.weights.dissemination * tree.cost,
        };
        Ok((costs, assignment, tree.edges))
    }
}

/// The cost surface the dual ascent consumes — exactly the six queries
/// [`crate::approx::dual_ascent`] makes against an instance.
///
/// [`ConflInstance`] implements it over the dense [`ContentionMatrix`];
/// the scoped planner implements it over
/// [`crate::scoped::ScopedContention`] (exact inside region blocks,
/// landmark estimates across), so the *same* event-driven ascent runs
/// unchanged on either substrate.
///
/// Dual state is indexed by raw node id, so [`ConflCosts::node_count`]
/// must report the ambient graph's node count even when `clients` and
/// `candidates` are restricted to a region.
pub trait ConflCosts {
    /// Number of nodes in the ambient graph.
    fn node_count(&self) -> usize;
    /// The producer (pre-opened root facility).
    fn producer(&self) -> NodeId;
    /// The ConFL clients (a chunk's audience), sorted.
    fn clients(&self) -> &[NodeId];
    /// Nodes that may open as facilities (finite cost), sorted by id.
    fn candidates(&self) -> Vec<NodeId>;
    /// Facility opening cost `f_i` (already fairness-weighted).
    fn facility_cost(&self, i: NodeId) -> f64;
    /// Connection cost of client `j` to facility `i` (contention
    /// weighted).
    fn connection_cost(&self, i: NodeId, j: NodeId) -> f64;
    /// The cost weights of the instance.
    fn weights(&self) -> CostWeights;
}

impl ConflCosts for ConflInstance {
    fn node_count(&self) -> usize {
        ConflInstance::node_count(self)
    }

    fn producer(&self) -> NodeId {
        ConflInstance::producer(self)
    }

    fn clients(&self) -> &[NodeId] {
        ConflInstance::clients(self)
    }

    fn candidates(&self) -> Vec<NodeId> {
        ConflInstance::candidates(self)
    }

    fn facility_cost(&self, i: NodeId) -> f64 {
        ConflInstance::facility_cost(self, i)
    }

    fn connection_cost(&self, i: NodeId, j: NodeId) -> f64 {
        ConflInstance::connection_cost(self, i, j)
    }

    fn weights(&self) -> CostWeights {
        ConflInstance::weights(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkId;
    use peercache_graph::builders;

    fn net() -> Network {
        Network::new(builders::grid(3, 3), NodeId::new(4), 2).unwrap()
    }

    fn instance(net: &Network) -> ConflInstance {
        ConflInstance::build(net, CostWeights::default()).unwrap()
    }

    #[test]
    fn producer_is_not_a_candidate() {
        let net = net();
        let inst = instance(&net);
        assert!(!inst.candidates().contains(&NodeId::new(4)));
        assert!(inst.facility_cost(NodeId::new(4)).is_infinite());
        assert_eq!(inst.candidates().len(), 8);
    }

    #[test]
    fn full_nodes_drop_out_of_candidates() {
        let mut net = net();
        net.cache(NodeId::new(0), ChunkId::new(0)).unwrap();
        net.cache(NodeId::new(0), ChunkId::new(1)).unwrap();
        let inst = instance(&net);
        assert!(!inst.candidates().contains(&NodeId::new(0)));
    }

    #[test]
    fn empty_facility_set_assigns_everyone_to_producer() {
        let net = net();
        let inst = instance(&net);
        let (assignment, access) = inst.assign_clients(&[]);
        assert_eq!(assignment.len(), 8);
        assert!(assignment.iter().all(|&(_, p)| p == NodeId::new(4)));
        assert!(access > 0.0);
    }

    #[test]
    fn facility_serves_itself_for_free() {
        let net = net();
        let inst = instance(&net);
        let (assignment, _) = inst.assign_clients(&[NodeId::new(0)]);
        let self_assigned = assignment
            .iter()
            .find(|&&(j, _)| j == NodeId::new(0))
            .unwrap();
        assert_eq!(self_assigned.1, NodeId::new(0));
    }

    #[test]
    fn evaluate_empty_set_has_zero_tree_and_fairness() {
        let net = net();
        let inst = instance(&net);
        let (costs, _, tree) = inst.evaluate_set(&net, &[]).unwrap();
        assert_eq!(costs.fairness, 0.0);
        assert_eq!(costs.dissemination, 0.0);
        assert!(tree.is_empty());
        assert!(costs.access > 0.0);
    }

    #[test]
    fn more_facilities_reduce_access_cost() {
        let net = net();
        let inst = instance(&net);
        let (none, _, _) = inst.evaluate_set(&net, &[]).unwrap();
        let corners = [
            NodeId::new(0),
            NodeId::new(2),
            NodeId::new(6),
            NodeId::new(8),
        ];
        let (four, _, _) = inst.evaluate_set(&net, &corners).unwrap();
        assert!(four.access < none.access);
        assert!(four.dissemination > 0.0);
    }

    #[test]
    fn dissemination_scales_with_m() {
        let net = net();
        let weights = CostWeights {
            dissemination: 3.0,
            ..Default::default()
        };
        let base = instance(&net);
        let scaled = ConflInstance::build(&net, weights).unwrap();
        let set = [NodeId::new(0)];
        let (c1, _, _) = base.evaluate_set(&net, &set).unwrap();
        let (c3, _, _) = scaled.evaluate_set(&net, &set).unwrap();
        assert!((c3.dissemination - 3.0 * c1.dissemination).abs() < 1e-9);
    }

    #[test]
    fn fairness_weight_scales_facility_cost() {
        let mut net = net();
        net.cache(NodeId::new(0), ChunkId::new(0)).unwrap();
        let weights = CostWeights {
            fairness: 2.0,
            ..Default::default()
        };
        let inst = ConflInstance::build(&net, weights).unwrap();
        // f_0 = 1/(2-1) = 1, weighted by 2.
        assert_eq!(inst.facility_cost(NodeId::new(0)), 2.0);
    }

    #[test]
    fn battery_weight_penalizes_drained_nodes() {
        let mut net = net();
        net.set_battery(NodeId::new(0), 0.25).unwrap(); // f_batt = 3
        let weights = CostWeights {
            battery_fairness: 2.0,
            ..Default::default()
        };
        let inst = ConflInstance::build(&net, weights).unwrap();
        // storage term 0 + 2 * 3 = 6.
        assert_eq!(inst.facility_cost(NodeId::new(0)), 6.0);
        // Full-battery peers are unaffected.
        assert_eq!(inst.facility_cost(NodeId::new(1)), 0.0);
    }

    #[test]
    fn zero_battery_weight_ignores_battery_state() {
        let mut net = net();
        net.set_battery(NodeId::new(0), 0.1).unwrap();
        let inst = instance(&net);
        assert_eq!(inst.facility_cost(NodeId::new(0)), 0.0);
    }

    #[test]
    fn empty_battery_removes_candidate_under_battery_weight() {
        let mut net = net();
        net.set_battery(NodeId::new(0), 0.0).unwrap();
        let weights = CostWeights {
            battery_fairness: 1.0,
            ..Default::default()
        };
        let inst = ConflInstance::build(&net, weights).unwrap();
        assert!(!inst.candidates().contains(&NodeId::new(0)));
    }

    #[test]
    fn set_costs_total_sums_terms() {
        let c = SetCosts {
            fairness: 1.0,
            access: 2.0,
            dissemination: 3.0,
        };
        assert_eq!(c.total(), 6.0);
    }

    #[test]
    fn matrix_roundtrip_build_matches_fresh_build() {
        let mut net = net();
        net.cache(NodeId::new(0), ChunkId::new(0)).unwrap();
        let fresh = ConflInstance::build_for_chunk(
            &net,
            ChunkId::new(1),
            CostWeights::default(),
            PathSelection::FewestHops,
        )
        .unwrap();
        let matrix = crate::costs::ContentionMatrix::compute(&net).unwrap();
        let rebuilt = ConflInstance::build_for_chunk_with_matrix(
            &net,
            ChunkId::new(1),
            CostWeights::default(),
            matrix,
        );
        assert_eq!(rebuilt.clients(), fresh.clients());
        for i in net.graph().nodes() {
            assert_eq!(
                rebuilt.facility_cost(i).to_bits(),
                fresh.facility_cost(i).to_bits()
            );
            for j in net.graph().nodes() {
                assert_eq!(
                    rebuilt.connection_cost(i, j).to_bits(),
                    fresh.connection_cost(i, j).to_bits()
                );
            }
        }
        // The snapshot survives the round trip.
        let back = rebuilt.into_matrix();
        assert_eq!(
            back.cost(NodeId::new(0), NodeId::new(8)).to_bits(),
            fresh
                .matrix()
                .cost(NodeId::new(0), NodeId::new(8))
                .to_bits()
        );
    }

    #[test]
    fn evaluate_set_matches_a_one_shot_tree_whatever_the_query_order() {
        use peercache_graph::steiner::steiner_tree;
        let net = net();
        let inst = instance(&net);
        let sets: [&[NodeId]; 4] = [
            &[NodeId::new(0), NodeId::new(2), NodeId::new(8)],
            &[],
            &[NodeId::new(0)],
            &[NodeId::new(8), NodeId::new(6)],
        ];
        for set in sets {
            let (costs, _, edges) = inst.evaluate_set(&net, set).unwrap();
            let mut terminals = set.to_vec();
            terminals.push(inst.producer());
            let fresh = steiner_tree(net.graph(), &terminals, |u, v| {
                inst.matrix().edge_cost(u, v)
            })
            .unwrap();
            assert_eq!(edges, fresh.edges);
            assert_eq!(
                costs.dissemination.to_bits(),
                (inst.weights().dissemination * fresh.cost).to_bits()
            );
        }
        // Nodes 0, 2, 6, 8 and the producer: one search each.
        assert_eq!(inst.spt_solved(), 5);
    }
}
