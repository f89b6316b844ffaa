use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use peercache_graph::{components, Graph, NodeId};

use crate::CoreError;

/// Identifier of a data chunk.
///
/// The paper divides the shared data into `Q` equal-size chunks; chunk
/// ids are dense indices `0..Q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChunkId(usize);

impl ChunkId {
    /// Creates a chunk id from a raw index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        ChunkId(index)
    }

    /// Raw index of the chunk.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ChunkId {
    fn from(index: usize) -> Self {
        ChunkId(index)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The system model of §III-A: a connected wireless topology plus the
/// caching state of every node.
///
/// One designated **producer** originates all chunks; it never caches
/// (its storage is not part of the cost model). Every other node is both
/// a potential caching **facility** and a **client** that wants every
/// chunk. A node stores at most one copy of a given chunk and at most
/// `capacity` chunks in total.
///
/// # Example
///
/// ```
/// use peercache_core::{ChunkId, Network};
/// use peercache_graph::{builders, NodeId};
///
/// let mut net = Network::new(builders::grid(3, 3), NodeId::new(4), 2)?;
/// net.cache(NodeId::new(0), ChunkId::new(0))?;
/// assert_eq!(net.used(NodeId::new(0)), 1);
/// assert!(net.is_cached(NodeId::new(0), ChunkId::new(0)));
/// // Fairness Degree Cost: 1 used / (2 - 1) remaining = 1.0
/// assert_eq!(net.fairness_cost(NodeId::new(0)), 1.0);
/// # Ok::<(), peercache_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    graph: Graph,
    producer: NodeId,
    capacity: Vec<usize>,
    cached: Vec<BTreeSet<ChunkId>>,
    /// Remaining battery fraction per node in `[0, 1]` (1 = full).
    battery: Vec<f64>,
    /// Per-chunk interest sets; chunks without an entry are wanted by
    /// every client (the paper's default assumption).
    interest: BTreeMap<ChunkId, BTreeSet<NodeId>>,
    /// Churn mask: departed peers stay in the graph as isolated ghost
    /// nodes (so every id-indexed table stays aligned) but are inactive —
    /// they are not clients, never facilities, and cache nothing.
    active: Vec<bool>,
    /// Whether mutators may split the active subgraph.
    policy: PartitionPolicy,
    /// Incremental component labels over the active subgraph: each active
    /// node carries the smallest node index of its connected component;
    /// inactive nodes carry [`NO_COMPONENT`]. Maintained by every
    /// topology mutator under both policies, so `strict-invariants` can
    /// cross-check it against a from-scratch BFS.
    comp: Vec<usize>,
}

/// How [`Network`] mutators respond to an edit that would split the
/// active subgraph.
///
/// The paper's cost model assumes a connected topology, so the historical
/// (and default) behavior is to [reject](PartitionPolicy::Reject) any
/// departure or link removal that would partition the active nodes. The
/// partition-tolerant world layer switches to
/// [`PartitionPolicy::Allow`], under which splits succeed and the
/// network's incremental component tracking records them instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionPolicy {
    /// Reject partitioning edits with [`CoreError::DisconnectedNetwork`].
    #[default]
    Reject,
    /// Allow partitioning edits; component tracking records the split.
    Allow,
}

/// Component label of inactive (departed) nodes. Active nodes are
/// labelled with the smallest node index of their component, which is
/// always `< node_count() < usize::MAX`.
const NO_COMPONENT: usize = usize::MAX;

/// What a node departure left behind, returned by
/// [`Network::deactivate_node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Departure {
    /// Chunks whose copy on the departed node was lost.
    pub lost_chunks: Vec<ChunkId>,
    /// The departed node's former neighbors, ascending; the removed
    /// edges are `(node, neighbor)` for each entry.
    pub former_neighbors: Vec<NodeId>,
}

impl Network {
    /// Creates a network with the same caching capacity on every node.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] if `producer` is not a node of `graph`.
    /// * [`CoreError::DisconnectedNetwork`] if `graph` is disconnected.
    pub fn new(graph: Graph, producer: NodeId, capacity: usize) -> Result<Self, CoreError> {
        let capacities = vec![capacity; graph.node_count()];
        Network::with_capacities(graph, producer, capacities)
    }

    /// Creates a network with per-node caching capacities.
    ///
    /// The producer's capacity entry is ignored (it never caches).
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] if `producer` is out of bounds or
    ///   `capacities` is shorter than the node count.
    /// * [`CoreError::DisconnectedNetwork`] if `graph` is disconnected.
    pub fn with_capacities(
        graph: Graph,
        producer: NodeId,
        capacities: Vec<usize>,
    ) -> Result<Self, CoreError> {
        if !graph.contains_node(producer) {
            return Err(CoreError::Graph(
                peercache_graph::GraphError::NodeOutOfBounds {
                    node: producer,
                    node_count: graph.node_count(),
                },
            ));
        }
        if capacities.len() != graph.node_count() {
            return Err(CoreError::Graph(
                peercache_graph::GraphError::NodeOutOfBounds {
                    node: NodeId::new(capacities.len()),
                    node_count: graph.node_count(),
                },
            ));
        }
        if !components::is_connected(&graph) {
            return Err(CoreError::DisconnectedNetwork);
        }
        let n = graph.node_count();
        Ok(Network {
            graph,
            producer,
            capacity: capacities,
            cached: vec![BTreeSet::new(); n],
            battery: vec![1.0; n],
            interest: BTreeMap::new(),
            active: vec![true; n],
            policy: PartitionPolicy::default(),
            // Connected at birth: one component labelled by node 0.
            comp: vec![0; n],
        })
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The producer node.
    pub fn producer(&self) -> NodeId {
        self.producer
    }

    /// Number of nodes, producer included.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Iterates over the client nodes: every *active* node except the
    /// producer. Departed peers are not clients.
    pub fn clients(&self) -> impl Iterator<Item = NodeId> + '_ {
        let producer = self.producer;
        self.graph
            .nodes()
            .filter(move |&n| n != producer && self.active[n.index()])
    }

    /// Returns `true` if `node` is currently part of the network (has
    /// not departed).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active[node.index()]
    }

    /// The active nodes, producer included, ascending.
    pub fn active_nodes(&self) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&n| self.active[n.index()])
            .collect()
    }

    /// The current [`PartitionPolicy`].
    pub fn partition_policy(&self) -> PartitionPolicy {
        self.policy
    }

    /// Sets how future mutators respond to partitioning edits.
    ///
    /// Switching policies never changes current state: component labels
    /// are maintained under both.
    pub fn set_partition_policy(&mut self, policy: PartitionPolicy) {
        self.policy = policy;
    }

    /// Component label of `node`: the smallest node index of its
    /// connected component. `None` for inactive or out-of-bounds nodes.
    pub fn component_of(&self, node: NodeId) -> Option<usize> {
        match self.comp.get(node.index()) {
            Some(&c) if c != NO_COMPONENT => Some(c),
            _ => None,
        }
    }

    /// Returns `true` if `a` and `b` are both active and mutually
    /// reachable through active nodes.
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        match (self.component_of(a), self.component_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Returns `true` if `node` is active and can reach the producer
    /// through active nodes.
    pub fn in_producer_component(&self, node: NodeId) -> bool {
        self.same_component(node, self.producer)
    }

    /// Number of connected components of the active subgraph.
    pub fn component_count(&self) -> usize {
        let mut labels: Vec<usize> = self
            .comp
            .iter()
            .copied()
            .filter(|&c| c != NO_COMPONENT)
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// The connected components of the active subgraph, each sorted
    /// ascending, ordered by smallest member id — the same shape as
    /// [`peercache_graph::components::components_of_subset`].
    pub fn active_components(&self) -> Vec<Vec<NodeId>> {
        let mut by_label: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for (i, &c) in self.comp.iter().enumerate() {
            if c != NO_COMPONENT {
                by_label.entry(c).or_default().push(NodeId::new(i));
            }
        }
        by_label.into_values().collect()
    }

    /// Rewrites every occurrence of component label `from` to `to`.
    fn relabel_component(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        for c in &mut self.comp {
            if *c == from {
                *c = to;
            }
        }
    }

    /// Members currently carrying component label `id`, ascending.
    fn component_members(&self, id: usize) -> Vec<NodeId> {
        self.comp
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == id)
            .map(|(i, _)| NodeId::new(i))
            .collect()
    }

    /// Re-derives component labels over `members`, which must be the
    /// full membership of one former component (ascending). A scoped BFS
    /// suffices: any active neighbor of a member was reachable before
    /// the edit, hence also a member.
    fn split_components(&mut self, members: &[NodeId]) {
        for &n in members {
            self.comp[n.index()] = NO_COMPONENT;
        }
        let mut stack = Vec::new();
        for &start in members {
            if self.comp[start.index()] != NO_COMPONENT {
                continue;
            }
            // `members` is ascending, so the first unvisited member is
            // the smallest index of its sub-component — the new label.
            let label = start.index();
            self.comp[start.index()] = label;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for v in self.graph.neighbors(u) {
                    if self.active[v.index()] && self.comp[v.index()] == NO_COMPONENT {
                        self.comp[v.index()] = label;
                        stack.push(v);
                    }
                }
            }
        }
    }

    /// Total caching capacity of `node` in chunks (`S_tot(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn capacity(&self, node: NodeId) -> usize {
        self.capacity[node.index()]
    }

    /// Chunks currently cached on `node` (`S(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn used(&self, node: NodeId) -> usize {
        self.cached[node.index()].len()
    }

    /// Free chunk slots remaining on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn remaining(&self, node: NodeId) -> usize {
        self.capacity(node).saturating_sub(self.used(node))
    }

    /// The set of chunks cached on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn cached_chunks(&self, node: NodeId) -> &BTreeSet<ChunkId> {
        &self.cached[node.index()]
    }

    /// Returns `true` if `node` holds a copy of `chunk` in its cache.
    ///
    /// The producer is *not* reported here even though it can always
    /// serve every chunk; use [`Network::can_serve`] for serving checks.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn is_cached(&self, node: NodeId, chunk: ChunkId) -> bool {
        self.cached[node.index()].contains(&chunk)
    }

    /// Returns `true` if `node` can serve `chunk` — it either caches it
    /// or is the producer.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn can_serve(&self, node: NodeId, chunk: ChunkId) -> bool {
        node == self.producer || self.is_cached(node, chunk)
    }

    /// Nodes caching `chunk`, sorted (producer excluded).
    pub fn holders(&self, chunk: ChunkId) -> Vec<NodeId> {
        self.graph
            .nodes()
            .filter(|&n| self.is_cached(n, chunk))
            .collect()
    }

    /// Caches `chunk` on `node`, consuming one storage slot.
    ///
    /// # Errors
    ///
    /// * [`CoreError::ProducerCannotCache`] for the producer.
    /// * [`CoreError::StorageFull`] when the node is at capacity.
    /// * [`CoreError::AlreadyCached`] for duplicate copies.
    /// * [`CoreError::InvalidParameter`] for a departed node.
    pub fn cache(&mut self, node: NodeId, chunk: ChunkId) -> Result<(), CoreError> {
        if node == self.producer {
            return Err(CoreError::ProducerCannotCache {
                producer: self.producer,
            });
        }
        if !self.active[node.index()] {
            return Err(CoreError::InvalidParameter(format!(
                "node {node} has departed and cannot cache"
            )));
        }
        if self.used(node) >= self.capacity(node) {
            return Err(CoreError::StorageFull {
                node,
                capacity: self.capacity(node),
            });
        }
        if !self.cached[node.index()].insert(chunk) {
            return Err(CoreError::AlreadyCached { node, chunk });
        }
        Ok(())
    }

    /// Evicts `chunk` from `node`; returns whether a copy was present.
    ///
    /// Cache replacement is future work in the paper, but eviction is
    /// needed by the online-arrival extension.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn uncache(&mut self, node: NodeId, chunk: ChunkId) -> bool {
        self.cached[node.index()].remove(&chunk)
    }

    /// The Fairness Degree Cost of Eq. 1: `S(i) / (S_tot(i) - S(i))`.
    ///
    /// Returns `0.0` for an empty cache, `f64::INFINITY` when storage is
    /// exhausted (or has zero capacity), and `f64::INFINITY` for the
    /// producer, which may never be selected as a caching facility.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn fairness_cost(&self, node: NodeId) -> f64 {
        if node == self.producer || !self.active[node.index()] {
            return f64::INFINITY;
        }
        // Compare the integer count, not its f64 cast (lint rule N1).
        let remaining = self.remaining(node);
        if remaining == 0 {
            f64::INFINITY
        } else {
            self.used(node) as f64 / remaining as f64
        }
    }

    /// Number of chunks cached per node, indexed by node id.
    pub fn load_vector(&self) -> Vec<usize> {
        self.cached.iter().map(BTreeSet::len).collect()
    }

    /// Remaining battery fraction of `node` (1.0 unless set).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn battery(&self, node: NodeId) -> f64 {
        self.battery[node.index()]
    }

    /// Sets the remaining battery fraction of `node`.
    ///
    /// Footnote 1 of §III-B: battery is the second resource users care
    /// about; a Fairness Degree Cost on it is "defined similarly and
    /// considered together in weighted summation" — see
    /// [`Network::battery_fairness_cost`] and
    /// [`crate::costs::CostWeights::battery_fairness`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `fraction` is in
    /// `[0, 1]`.
    pub fn set_battery(&mut self, node: NodeId, fraction: f64) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(CoreError::InvalidParameter(format!(
                "battery fraction must be in [0, 1], got {fraction}"
            )));
        }
        self.battery[node.index()] = fraction;
        Ok(())
    }

    /// Drains `amount` battery from `node`, saturating at empty.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn drain_battery(&mut self, node: NodeId, amount: f64) {
        let b = &mut self.battery[node.index()];
        *b = (*b - amount.max(0.0)).max(0.0);
    }

    /// The battery analog of Eq. 1: consumed over remaining,
    /// `(1 - b) / b` for battery fraction `b`.
    ///
    /// Returns `0.0` for a full battery, `f64::INFINITY` for an empty
    /// one, and `f64::INFINITY` for the producer (never a facility).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn battery_fairness_cost(&self, node: NodeId) -> f64 {
        if node == self.producer || !self.active[node.index()] {
            return f64::INFINITY;
        }
        let b = self.battery[node.index()];
        if b <= 0.0 {
            f64::INFINITY
        } else {
            (1.0 - b) / b
        }
    }

    /// Restricts `chunk` to the given interested clients.
    ///
    /// §III-A assumes "every node wants to acquire all the cached
    /// data"; real sharing apps have per-item audiences (only some
    /// attendees care about a given video clip). A restricted chunk is
    /// planned, assigned, and costed for its audience only. An empty
    /// iterator removes the chunk's audience entirely (it will be
    /// placed with zero access demand).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] for out-of-range nodes and
    /// [`CoreError::InvalidParameter`] if the producer is listed (it
    /// already has everything).
    pub fn set_interest(
        &mut self,
        chunk: ChunkId,
        clients: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), CoreError> {
        let mut set = BTreeSet::new();
        for n in clients {
            if !self.graph.contains_node(n) {
                return Err(CoreError::Graph(
                    peercache_graph::GraphError::NodeOutOfBounds {
                        node: n,
                        node_count: self.node_count(),
                    },
                ));
            }
            if n == self.producer {
                return Err(CoreError::InvalidParameter(format!(
                    "producer {n} cannot be an interested client"
                )));
            }
            set.insert(n);
        }
        self.interest.insert(chunk, set);
        Ok(())
    }

    /// The clients that want `chunk`, sorted — all clients unless a
    /// restriction was set with [`Network::set_interest`]. Departed
    /// nodes are never interested (their restriction entries are kept in
    /// case they rejoin, but filtered here).
    pub fn interested_clients(&self, chunk: ChunkId) -> Vec<NodeId> {
        match self.interest.get(&chunk) {
            Some(set) => set
                .iter()
                .copied()
                .filter(|&n| self.active[n.index()])
                .collect(),
            None => self.clients().collect(),
        }
    }

    /// Returns `true` if `node` wants `chunk`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn is_interested(&self, node: NodeId, chunk: ChunkId) -> bool {
        if node == self.producer || !self.active[node.index()] {
            return false;
        }
        match self.interest.get(&chunk) {
            Some(set) => set.contains(&node),
            None => true,
        }
    }

    /// Number of distinct chunks present anywhere in the network.
    ///
    /// This doubles as the producer's effective load in the contention
    /// model: the producer originates every published chunk and keeps
    /// transmitting each of them to its neighbors, so its node term
    /// inflates with the number of chunks in circulation even though it
    /// "caches" nothing.
    pub fn distinct_cached_chunks(&self) -> usize {
        let mut all = BTreeSet::new();
        for set in &self.cached {
            all.extend(set.iter().copied());
        }
        all.len()
    }

    /// Returns `true` if the *active* nodes are mutually connected.
    ///
    /// The constructor guarantees this at birth; under the default
    /// [`PartitionPolicy::Reject`] every churn mutator preserves it by
    /// rejecting edits that would partition the active subgraph. Under
    /// [`PartitionPolicy::Allow`] it may return `false`; consult
    /// [`Network::active_components`] for the pieces. Deliberately
    /// answered by a from-scratch BFS, independent of the incremental
    /// component labels.
    pub fn active_connected(&self) -> bool {
        components::is_connected_subset(&self.graph, &self.active_nodes())
    }

    /// Removes `node` from the network: drops its incident links, clears
    /// its cache, and marks it inactive. The node stays in the graph as
    /// an isolated ghost so all id-indexed state keeps its alignment.
    ///
    /// Returns the lost chunk copies and former neighbors — exactly what
    /// the repair layer needs to find orphaned placements and to feed
    /// the incremental path update.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if `node` is the producer (the
    ///   chunk origin cannot depart) or already departed.
    /// * [`CoreError::DisconnectedNetwork`] under
    ///   [`PartitionPolicy::Reject`] if the departure would partition the
    ///   remaining active nodes; the network is unchanged. Under
    ///   [`PartitionPolicy::Allow`] the departure succeeds and component
    ///   tracking records the split.
    pub fn deactivate_node(&mut self, node: NodeId) -> Result<Departure, CoreError> {
        if node == self.producer {
            return Err(CoreError::InvalidParameter(format!(
                "producer {node} cannot depart"
            )));
        }
        if !self.graph.contains_node(node) || !self.active[node.index()] {
            return Err(CoreError::InvalidParameter(format!(
                "node {node} is not an active member of the network"
            )));
        }
        if self.policy == PartitionPolicy::Reject {
            let survivors: Vec<NodeId> = self
                .active_nodes()
                .into_iter()
                .filter(|&n| n != node)
                .collect();
            if !components::is_connected_subset(&self.graph, &survivors) {
                return Err(CoreError::DisconnectedNetwork);
            }
        }
        let old_label = self.comp[node.index()];
        let former_neighbors = self.graph.remove_node(node).map_err(CoreError::Graph)?;
        let lost_chunks: Vec<ChunkId> = std::mem::take(&mut self.cached[node.index()])
            .into_iter()
            .collect();
        self.active[node.index()] = false;
        self.comp[node.index()] = NO_COMPONENT;
        // The victim's former component may have split (and loses its
        // label if the victim carried the smallest index): re-derive it.
        let members = self.component_members(old_label);
        self.split_components(&members);
        Ok(Departure {
            lost_chunks,
            former_neighbors,
        })
    }

    /// Adds a brand-new node with the given links and capacity, and
    /// returns its id.
    ///
    /// The node arrives with an empty cache and a full battery.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `neighbors` is empty
    /// (the newcomer would be unreachable) or lists an inactive or
    /// unknown node; the network is unchanged on error.
    pub fn join_node(
        &mut self,
        neighbors: &[NodeId],
        capacity: usize,
    ) -> Result<NodeId, CoreError> {
        if neighbors.is_empty() {
            return Err(CoreError::InvalidParameter(
                "a joining node needs at least one link".into(),
            ));
        }
        for &v in neighbors {
            if !self.graph.contains_node(v) || !self.active[v.index()] {
                return Err(CoreError::InvalidParameter(format!(
                    "cannot link joining node to inactive or unknown node {v}"
                )));
            }
        }
        let node = self.graph.add_node();
        for &v in neighbors {
            self.graph.add_edge(node, v).map_err(CoreError::Graph)?;
        }
        self.capacity.push(capacity);
        self.cached.push(BTreeSet::new());
        self.battery.push(1.0);
        self.active.push(true);
        // The newcomer bridges its neighbors' components: merge them all
        // onto the smallest label (neighbors are non-empty and active).
        let mut target = NO_COMPONENT;
        for &v in neighbors {
            target = target.min(self.comp[v.index()]);
        }
        for &v in neighbors {
            let label = self.comp[v.index()];
            self.relabel_component(label, target);
        }
        self.comp.push(target);
        Ok(node)
    }

    /// Adds the link `(u, v)` between two active nodes; returns whether
    /// the link is new.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if either endpoint is inactive.
    /// * [`CoreError::Graph`] for unknown endpoints or a self-loop.
    pub fn add_link(&mut self, u: NodeId, v: NodeId) -> Result<bool, CoreError> {
        for e in [u, v] {
            if self.graph.contains_node(e) && !self.active[e.index()] {
                return Err(CoreError::InvalidParameter(format!(
                    "cannot link departed node {e}"
                )));
            }
        }
        if self.graph.contains_edge(u, v) {
            return Ok(false);
        }
        self.graph.add_edge(u, v).map_err(CoreError::Graph)?;
        // A new link may heal a partition: merge onto the smaller label.
        let (cu, cv) = (self.comp[u.index()], self.comp[v.index()]);
        self.relabel_component(cu.max(cv), cu.min(cv));
        Ok(true)
    }

    /// Removes the link `(u, v)`; returns whether a link was removed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] for unknown endpoints.
    /// * [`CoreError::DisconnectedNetwork`] under
    ///   [`PartitionPolicy::Reject`] if the removal would partition the
    ///   active nodes; the network is unchanged. Under
    ///   [`PartitionPolicy::Allow`] the removal succeeds and component
    ///   tracking records the split.
    pub fn remove_link(&mut self, u: NodeId, v: NodeId) -> Result<bool, CoreError> {
        if !self.graph.contains_edge(u, v) {
            // Bounds-check through the graph for a consistent error.
            self.graph.remove_edge(u, v).map_err(CoreError::Graph)?;
            return Ok(false);
        }
        self.graph.remove_edge(u, v).map_err(CoreError::Graph)?;
        if self.policy == PartitionPolicy::Reject {
            if !self.active_connected() {
                self.graph.add_edge(u, v).map_err(CoreError::Graph)?;
                return Err(CoreError::DisconnectedNetwork);
            }
            // Still connected: component labels are unchanged.
            return Ok(true);
        }
        // An edge exists only between active nodes (ghosts are isolated),
        // so both endpoints share a component; it may now have split.
        let members = self.component_members(self.comp[u.index()]);
        self.split_components(&members);
        Ok(true)
    }

    /// Clears all cached chunks, keeping topology and capacities.
    pub fn reset(&mut self) {
        for set in &mut self.cached {
            set.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    fn net3x3() -> Network {
        Network::new(builders::grid(3, 3), NodeId::new(4), 2).unwrap()
    }

    #[test]
    fn constructor_rejects_bad_producer() {
        let err = Network::new(builders::grid(2, 2), NodeId::new(10), 1).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)));
    }

    #[test]
    fn constructor_rejects_disconnected_graph() {
        let g = Graph::new(3);
        let err = Network::new(g, NodeId::new(0), 1).unwrap_err();
        assert_eq!(err, CoreError::DisconnectedNetwork);
    }

    #[test]
    fn constructor_rejects_wrong_capacity_len() {
        let err =
            Network::with_capacities(builders::grid(2, 2), NodeId::new(0), vec![1, 1]).unwrap_err();
        assert!(matches!(err, CoreError::Graph(_)));
    }

    #[test]
    fn clients_exclude_producer() {
        let net = net3x3();
        let clients: Vec<NodeId> = net.clients().collect();
        assert_eq!(clients.len(), 8);
        assert!(!clients.contains(&NodeId::new(4)));
    }

    #[test]
    fn cache_updates_usage_and_fairness() {
        let mut net = net3x3();
        let n = NodeId::new(0);
        assert_eq!(net.fairness_cost(n), 0.0);
        net.cache(n, ChunkId::new(0)).unwrap();
        assert_eq!(net.used(n), 1);
        assert_eq!(net.remaining(n), 1);
        assert_eq!(net.fairness_cost(n), 1.0);
        net.cache(n, ChunkId::new(1)).unwrap();
        assert!(net.fairness_cost(n).is_infinite());
    }

    #[test]
    fn producer_cannot_cache_and_has_infinite_fairness() {
        let mut net = net3x3();
        let err = net.cache(NodeId::new(4), ChunkId::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::ProducerCannotCache { .. }));
        assert!(net.fairness_cost(NodeId::new(4)).is_infinite());
    }

    #[test]
    fn storage_full_rejected() {
        let mut net = net3x3();
        let n = NodeId::new(1);
        net.cache(n, ChunkId::new(0)).unwrap();
        net.cache(n, ChunkId::new(1)).unwrap();
        let err = net.cache(n, ChunkId::new(2)).unwrap_err();
        assert!(matches!(err, CoreError::StorageFull { .. }));
    }

    #[test]
    fn duplicate_copy_rejected() {
        let mut net = net3x3();
        let n = NodeId::new(1);
        net.cache(n, ChunkId::new(0)).unwrap();
        let err = net.cache(n, ChunkId::new(0)).unwrap_err();
        assert!(matches!(err, CoreError::AlreadyCached { .. }));
    }

    #[test]
    fn holders_and_can_serve() {
        let mut net = net3x3();
        net.cache(NodeId::new(0), ChunkId::new(7)).unwrap();
        net.cache(NodeId::new(8), ChunkId::new(7)).unwrap();
        assert_eq!(
            net.holders(ChunkId::new(7)),
            vec![NodeId::new(0), NodeId::new(8)]
        );
        assert!(net.can_serve(NodeId::new(0), ChunkId::new(7)));
        assert!(net.can_serve(NodeId::new(4), ChunkId::new(7))); // producer
        assert!(!net.can_serve(NodeId::new(1), ChunkId::new(7)));
    }

    #[test]
    fn uncache_frees_a_slot() {
        let mut net = net3x3();
        let n = NodeId::new(2);
        net.cache(n, ChunkId::new(0)).unwrap();
        assert!(net.uncache(n, ChunkId::new(0)));
        assert!(!net.uncache(n, ChunkId::new(0)));
        assert_eq!(net.used(n), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut net = net3x3();
        net.cache(NodeId::new(0), ChunkId::new(0)).unwrap();
        net.reset();
        assert_eq!(net.load_vector(), vec![0; 9]);
        assert_eq!(net.clients().map(|n| net.remaining(n)).sum::<usize>(), 16);
    }

    #[test]
    fn interest_defaults_to_everyone() {
        let net = net3x3();
        let audience = net.interested_clients(ChunkId::new(0));
        assert_eq!(audience.len(), 8);
        assert!(net.is_interested(NodeId::new(0), ChunkId::new(0)));
        assert!(!net.is_interested(net.producer(), ChunkId::new(0)));
    }

    #[test]
    fn interest_restriction_is_per_chunk() {
        let mut net = net3x3();
        net.set_interest(ChunkId::new(1), [NodeId::new(0), NodeId::new(8)])
            .unwrap();
        assert_eq!(
            net.interested_clients(ChunkId::new(1)),
            vec![NodeId::new(0), NodeId::new(8)]
        );
        assert!(!net.is_interested(NodeId::new(1), ChunkId::new(1)));
        // Other chunks are untouched.
        assert!(net.is_interested(NodeId::new(1), ChunkId::new(0)));
    }

    #[test]
    fn interest_rejects_producer_and_unknown_nodes() {
        let mut net = net3x3();
        assert!(matches!(
            net.set_interest(ChunkId::new(0), [net.producer()]),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(matches!(
            net.set_interest(ChunkId::new(0), [NodeId::new(99)]),
            Err(CoreError::Graph(_))
        ));
    }

    #[test]
    fn empty_interest_set_is_allowed() {
        let mut net = net3x3();
        net.set_interest(ChunkId::new(0), []).unwrap();
        assert!(net.interested_clients(ChunkId::new(0)).is_empty());
    }

    #[test]
    fn battery_defaults_full_and_validates_range() {
        let mut net = net3x3();
        assert_eq!(net.battery(NodeId::new(0)), 1.0);
        assert_eq!(net.battery_fairness_cost(NodeId::new(0)), 0.0);
        assert!(net.set_battery(NodeId::new(0), 1.5).is_err());
        assert!(net.set_battery(NodeId::new(0), -0.1).is_err());
        net.set_battery(NodeId::new(0), 0.5).unwrap();
        assert_eq!(net.battery_fairness_cost(NodeId::new(0)), 1.0);
    }

    #[test]
    fn battery_fairness_is_infinite_when_empty_or_producer() {
        let mut net = net3x3();
        net.set_battery(NodeId::new(1), 0.0).unwrap();
        assert!(net.battery_fairness_cost(NodeId::new(1)).is_infinite());
        assert!(net.battery_fairness_cost(net.producer()).is_infinite());
    }

    #[test]
    fn drain_battery_saturates_at_zero() {
        let mut net = net3x3();
        net.drain_battery(NodeId::new(2), 0.7);
        assert!((net.battery(NodeId::new(2)) - 0.3).abs() < 1e-12);
        net.drain_battery(NodeId::new(2), 5.0);
        assert_eq!(net.battery(NodeId::new(2)), 0.0);
        // Negative amounts are clamped: draining never charges.
        net.drain_battery(NodeId::new(2), -1.0);
        assert_eq!(net.battery(NodeId::new(2)), 0.0);
    }

    #[test]
    fn deactivate_node_clears_cache_and_links() {
        let mut net = net3x3();
        net.cache(NodeId::new(0), ChunkId::new(3)).unwrap();
        let dep = net.deactivate_node(NodeId::new(0)).unwrap();
        assert_eq!(dep.lost_chunks, vec![ChunkId::new(3)]);
        assert_eq!(dep.former_neighbors, vec![NodeId::new(1), NodeId::new(3)]);
        assert!(!net.is_active(NodeId::new(0)));
        assert_eq!(net.graph().degree(NodeId::new(0)), 0);
        assert_eq!(net.used(NodeId::new(0)), 0);
        assert!(net.fairness_cost(NodeId::new(0)).is_infinite());
        assert!(!net.is_interested(NodeId::new(0), ChunkId::new(3)));
        assert_eq!(net.clients().count(), 7);
        assert!(net.active_connected());
        // A departed node can neither cache nor depart again.
        assert!(net.cache(NodeId::new(0), ChunkId::new(3)).is_err());
        assert!(net.deactivate_node(NodeId::new(0)).is_err());
    }

    #[test]
    fn producer_cannot_depart() {
        let mut net = net3x3();
        assert!(matches!(
            net.deactivate_node(net.producer()),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn departure_that_partitions_is_rejected() {
        // Path 0-1-2: removing the middle node strands 0 from 2.
        let mut net = Network::new(builders::path(3), NodeId::new(0), 1).unwrap();
        let err = net.deactivate_node(NodeId::new(1)).unwrap_err();
        assert_eq!(err, CoreError::DisconnectedNetwork);
        assert!(net.is_active(NodeId::new(1)));
        assert_eq!(net.graph().degree(NodeId::new(1)), 2);
    }

    #[test]
    fn allow_policy_lets_departures_split_the_network() {
        // Path 0-1-2: removing the middle node strands 0 from 2.
        let mut net = Network::new(builders::path(3), NodeId::new(0), 1).unwrap();
        net.set_partition_policy(PartitionPolicy::Allow);
        net.deactivate_node(NodeId::new(1)).unwrap();
        assert!(!net.active_connected());
        assert_eq!(net.component_count(), 2);
        assert_eq!(net.component_of(NodeId::new(0)), Some(0));
        assert_eq!(net.component_of(NodeId::new(1)), None);
        assert_eq!(net.component_of(NodeId::new(2)), Some(2));
        assert!(!net.same_component(NodeId::new(0), NodeId::new(2)));
        assert!(net.in_producer_component(NodeId::new(0)));
        assert!(!net.in_producer_component(NodeId::new(2)));
    }

    #[test]
    fn allow_policy_lets_link_removal_split_and_add_link_heal() {
        // Path 0-1-2-3, producer 0.
        let mut net = Network::new(builders::path(4), NodeId::new(0), 1).unwrap();
        net.set_partition_policy(PartitionPolicy::Allow);
        assert!(net.remove_link(NodeId::new(1), NodeId::new(2)).unwrap());
        assert_eq!(net.component_count(), 2);
        assert_eq!(
            net.active_components(),
            vec![
                vec![NodeId::new(0), NodeId::new(1)],
                vec![NodeId::new(2), NodeId::new(3)],
            ]
        );
        // Heal through a different edge; the labels merge onto 0.
        assert!(net.add_link(NodeId::new(0), NodeId::new(3)).unwrap());
        assert_eq!(net.component_count(), 1);
        assert!(net.same_component(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn joining_node_bridges_components() {
        let mut net = Network::new(builders::path(3), NodeId::new(0), 1).unwrap();
        net.set_partition_policy(PartitionPolicy::Allow);
        net.remove_link(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(net.component_count(), 2);
        let id = net.join_node(&[NodeId::new(1), NodeId::new(2)], 1).unwrap();
        assert_eq!(net.component_count(), 1);
        assert_eq!(net.component_of(id), Some(0));
        assert!(net.same_component(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn component_labels_match_a_from_scratch_bfs_after_churn() {
        let mut net = net3x3();
        net.set_partition_policy(PartitionPolicy::Allow);
        // Carve the grid up: lose a corner, cut the middle column.
        net.deactivate_node(NodeId::new(0)).unwrap();
        net.remove_link(NodeId::new(1), NodeId::new(2)).unwrap();
        net.remove_link(NodeId::new(5), NodeId::new(2)).unwrap();
        net.remove_link(NodeId::new(7), NodeId::new(8)).unwrap();
        net.remove_link(NodeId::new(5), NodeId::new(8)).unwrap();
        let expected = components::components_of_subset(net.graph(), &net.active_nodes());
        assert_eq!(net.active_components(), expected);
        assert!(expected.len() > 1);
        // Heal everything back and re-check.
        net.add_link(NodeId::new(1), NodeId::new(2)).unwrap();
        net.add_link(NodeId::new(7), NodeId::new(8)).unwrap();
        let expected = components::components_of_subset(net.graph(), &net.active_nodes());
        assert_eq!(net.active_components(), expected);
        assert_eq!(net.component_count(), 1);
    }

    #[test]
    fn default_policy_is_reject() {
        let net = net3x3();
        assert_eq!(net.partition_policy(), PartitionPolicy::Reject);
        assert_eq!(net.component_count(), 1);
    }

    #[test]
    fn join_node_extends_every_table() {
        let mut net = net3x3();
        let id = net.join_node(&[NodeId::new(8), NodeId::new(5)], 3).unwrap();
        assert_eq!(id, NodeId::new(9));
        assert_eq!(net.node_count(), 10);
        assert_eq!(net.capacity(id), 3);
        assert_eq!(net.battery(id), 1.0);
        assert!(net.is_active(id));
        assert!(net.graph().contains_edge(id, NodeId::new(8)));
        net.cache(id, ChunkId::new(0)).unwrap();
        assert_eq!(net.holders(ChunkId::new(0)), vec![id]);
    }

    #[test]
    fn join_node_rejects_bad_links() {
        let mut net = net3x3();
        assert!(net.join_node(&[], 2).is_err());
        net.deactivate_node(NodeId::new(0)).unwrap();
        assert!(net.join_node(&[NodeId::new(0)], 2).is_err());
        assert_eq!(net.node_count(), 9); // unchanged on error
    }

    #[test]
    fn link_churn_preserves_connectivity() {
        let mut net = net3x3();
        // Redundant link: fine to drop.
        assert!(net.remove_link(NodeId::new(0), NodeId::new(1)).unwrap());
        // Node 0 now hangs off node 3 alone; cutting that would strand it.
        let err = net.remove_link(NodeId::new(0), NodeId::new(3)).unwrap_err();
        assert_eq!(err, CoreError::DisconnectedNetwork);
        assert!(net.graph().contains_edge(NodeId::new(0), NodeId::new(3)));
        // Re-adding the dropped link works; duplicates report false.
        assert!(net.add_link(NodeId::new(0), NodeId::new(1)).unwrap());
        assert!(!net.add_link(NodeId::new(0), NodeId::new(1)).unwrap());
        // Removing an absent link reports false.
        assert!(!net.remove_link(NodeId::new(0), NodeId::new(4)).unwrap());
    }

    #[test]
    fn links_to_departed_nodes_are_rejected() {
        let mut net = net3x3();
        net.deactivate_node(NodeId::new(8)).unwrap();
        assert!(matches!(
            net.add_link(NodeId::new(7), NodeId::new(8)),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn interest_filters_departed_nodes() {
        let mut net = net3x3();
        net.set_interest(ChunkId::new(0), [NodeId::new(0), NodeId::new(8)])
            .unwrap();
        net.deactivate_node(NodeId::new(8)).unwrap();
        assert_eq!(
            net.interested_clients(ChunkId::new(0)),
            vec![NodeId::new(0)]
        );
    }

    #[test]
    fn zero_capacity_node_has_infinite_fairness() {
        let mut caps = vec![2; 4];
        caps[1] = 0;
        let net = Network::with_capacities(builders::grid(2, 2), NodeId::new(0), caps).unwrap();
        assert!(net.fairness_cost(NodeId::new(1)).is_infinite());
    }

    use peercache_graph::Graph;
}
