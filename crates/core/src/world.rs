//! Churn-aware cache world — online chunk arrivals over a dynamic
//! topology.
//!
//! The planners assume the topology fixed while chunks come and go.
//! Pervasive edge environments are not that polite: peers walk away
//! mid-session, new ones join, and wireless links appear and drop.
//! [`CacheWorld`] owns the network and consumes a typed stream of
//! [`WorldEvent`]s, keeping the placement records consistent with the
//! mutating topology through **incremental placement repair**:
//!
//! * a departure only re-plans the chunks it *orphaned* — chunks that
//!   lost a cached copy, whose clients must be re-served — via a scoped
//!   dual ascent against the carried [`ContentionMatrix`] (survivor
//!   copies stay pinned as pre-opened facilities);
//! * placements merely *touched* by churn (a dead client in the
//!   assignment, a dissemination tree routed over a dropped link) are
//!   re-derived in place by one function: clients re-assigned among
//!   the surviving holders and the Steiner tree kept (re-priced) or
//!   rebuilt, with no copy movement;
//! * everything else is left alone — the contention snapshot itself is
//!   refreshed by [`ContentionMatrix::update`], which diffs the network
//!   against its own snapshot and re-solves only the rows the change can
//!   affect, so the all-pairs recompute is scoped too. The refresh runs
//!   when the snapshot is next read, not after every event, so changes
//!   that nothing reads in between (a link flap, a retirement and the
//!   arrival after it) cost one refresh together.
//!
//! Full replanning survives as the oracle: [`CacheWorld::repair_vs_replan`]
//! re-places every live chunk from scratch on a copy of the network and
//! reports the contention-cost gap and wall-clock comparison, which the
//! churn benchmarks and the determinism suite assert against.

use std::collections::BTreeMap;

use peercache_graph::{steiner, NodeId};
use peercache_obs as obs;
use peercache_obs::MonotonicClock;

use crate::approx::{dual_ascent, ApproxConfig, DualAscentStats};
use crate::costs::ContentionMatrix;
use crate::instance::{ConflInstance, SetCosts};
use crate::placement::{recost_final, ChunkPlacement, Placement};
use crate::planner::{
    commit_chunk_replicated, plan_chunks, prune_unused_facilities, remove_greedily,
};
use crate::{ChunkId, CoreError, Network, PartitionPolicy};

/// One step of the dynamic environment driving a [`CacheWorld`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldEvent {
    /// The producer publishes the next chunk; it is placed immediately
    /// with the approximation algorithm.
    ChunkArrived,
    /// A live chunk becomes outdated; every cached copy is evicted.
    ChunkRetired(ChunkId),
    /// A new peer joins, linking to the given active nodes with the
    /// given storage capacity.
    NodeJoined {
        /// Active nodes the newcomer links to (at least one).
        neighbors: Vec<NodeId>,
        /// Storage capacity of the newcomer, in chunks.
        capacity: usize,
    },
    /// An active peer vanishes together with everything it cached.
    NodeDeparted(NodeId),
    /// A wireless link comes up.
    LinkUp(NodeId, NodeId),
    /// A wireless link drops.
    LinkDown(NodeId, NodeId),
}

/// What applying one [`WorldEvent`] did to the world.
#[derive(Debug, Clone, PartialEq)]
pub enum EventOutcome {
    /// A chunk arrived and was placed.
    Placed(ChunkPlacement),
    /// A chunk was retired.
    Retired {
        /// The retired chunk.
        chunk: ChunkId,
        /// Cached copies evicted network-wide.
        copies_freed: usize,
    },
    /// A peer joined the network.
    Joined {
        /// Id assigned to the newcomer.
        node: NodeId,
        /// Live chunks whose assignments were refreshed to include the
        /// newcomer's demand.
        refreshed: Vec<ChunkId>,
    },
    /// A peer departed; placements were repaired.
    Departed(RepairReport),
    /// A link-up event was applied.
    LinkAdded {
        /// `false` if the link already existed.
        added: bool,
    },
    /// A link-down event was applied.
    LinkRemoved {
        /// `false` if there was no such link.
        removed: bool,
        /// Live chunks whose dissemination trees crossed the dropped
        /// link and were rebuilt.
        refreshed: Vec<ChunkId>,
    },
}

/// A partition transition observed by a partition-tolerant world,
/// recorded in a drainable log (see
/// [`CacheWorld::take_partition_events`]).
///
/// Kept out of [`EventOutcome`] so existing consumers of the outcome
/// enum keep compiling: any [`WorldEvent`] can form or heal a partition
/// as a side effect of its primary outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionEvent {
    /// The active subgraph split into more components than before.
    Formed {
        /// The components after the split, each sorted ascending.
        components: Vec<Vec<NodeId>>,
        /// Interested clients of live chunks left without any reachable
        /// data source (producer or replica) — their demand is deferred.
        deferred_clients: usize,
    },
    /// Components merged back together.
    Healed {
        /// The components after the merge, each sorted ascending.
        components: Vec<Vec<NodeId>>,
        /// Previously deferred clients that regained a data source and
        /// were folded back into the live assignments.
        restored_clients: usize,
    },
}

/// What a node departure cost and how it was repaired, returned by
/// [`CacheWorld::apply`] for [`WorldEvent::NodeDeparted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The departed node.
    pub node: NodeId,
    /// Chunks whose copy on the departed node was lost.
    pub lost_chunks: Vec<ChunkId>,
    /// Chunks re-placed by the scoped dual ascent (lost a copy).
    pub repaired: Vec<ChunkId>,
    /// Chunks refreshed in place (touched by the departure without
    /// losing a copy): assignments re-derived, trees rebuilt.
    pub refreshed: Vec<ChunkId>,
    /// New copies cached by the repair, as `(chunk, node)` pairs.
    pub new_copies: Vec<(ChunkId, NodeId)>,
    /// Clients whose recorded provider was the departed node.
    pub orphaned_clients: usize,
    /// Shortest-path rows (out of `node_count`) that the departure's
    /// refresh of the contention snapshot re-solved. The refresh also
    /// absorbs every change no read has seen since the last one (a
    /// commit, a retirement, a link edit), so the count covers that
    /// pending work too.
    pub apsp_rows: usize,
    /// Wall-clock time of the whole departure handling, microseconds.
    pub wall_us: u64,
}

/// Cost-gap report of [`CacheWorld::repair_vs_replan`]: the incremental
/// repair state versus re-placing every live chunk from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairVsReplan {
    /// Live chunks compared.
    pub live_chunks: usize,
    /// Total contention cost of the repaired placements, re-priced
    /// under the current state ([`recost_final`]).
    pub repair_contention: f64,
    /// Total contention cost of the from-scratch replan, re-priced
    /// under its own final state.
    pub replan_contention: f64,
    /// `repair_contention / replan_contention` (1.0 when both are 0).
    pub cost_ratio: f64,
    /// Accumulated wall-clock time of every departure repair so far,
    /// microseconds.
    pub repair_wall_us: u64,
    /// Wall-clock time of the from-scratch replan, microseconds.
    pub replan_wall_us: u64,
}

/// Tick-resolution world telemetry: one sample per applied event, on
/// the deterministic event index (never ambient time). Created only
/// when the observability sink is enabled (or forced in tests), so an
/// untraced world does no sampling work at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSeries {
    /// Active-component count after each event.
    pub components: obs::TimeSeries,
    /// Live (served) demand: clients with a reachable data source,
    /// summed over live chunks.
    pub demand_live: obs::TimeSeries,
    /// Deferred demand: interested clients cut off from every source.
    pub demand_deferred: obs::TimeSeries,
}

impl WorldSeries {
    fn new() -> Self {
        WorldSeries {
            components: obs::TimeSeries::new("world.components"),
            demand_live: obs::TimeSeries::new("world.demand_live"),
            demand_deferred: obs::TimeSeries::new("world.demand_deferred"),
        }
    }

    /// Writes all three series to the sink (no-op when disabled).
    pub fn emit(&self) {
        self.components.emit();
        self.demand_live.emit();
        self.demand_deferred.emit();
    }
}

/// An evolving cache over a mutating topology.
///
/// Owns the [`Network`] outright; every mutation flows through
/// [`CacheWorld::apply`] (or a typed convenience method), which keeps
/// three pieces of state mutually consistent that raw network access
/// could silently desynchronize: the live-chunk set, the per-chunk
/// placement records, and the carried contention snapshot.
///
/// # Example
///
/// ```
/// use peercache_core::approx::ApproxConfig;
/// use peercache_core::workload::paper_grid;
/// use peercache_core::world::{CacheWorld, WorldEvent};
/// use peercache_graph::NodeId;
///
/// let mut world = CacheWorld::new(paper_grid(4)?, ApproxConfig::default());
/// world.apply(WorldEvent::ChunkArrived)?;
/// world.apply(WorldEvent::ChunkArrived)?;
/// // A cacher walks away; its orphaned clients are re-served.
/// let holder = world.placement(world.live_chunks()[0]).unwrap().caches[0];
/// world.apply(WorldEvent::NodeDeparted(holder))?;
/// world.validate()?;
/// # Ok::<(), peercache_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheWorld {
    net: Network,
    config: ApproxConfig,
    retention: Option<usize>,
    live: Vec<ChunkId>,
    placements: BTreeMap<ChunkId, ChunkPlacement>,
    history: Vec<ChunkPlacement>,
    next_chunk: usize,
    /// Carried contention snapshot; `None` until first needed. It may
    /// lag `net`: every read goes through [`CacheWorld::take_matrix`] or
    /// the departure's refresh, which bring it up to date first, so a
    /// reader always sees a fresh compute's values.
    matrix: Option<ContentionMatrix>,
    /// Nodes whose contention term may have moved since the snapshot's
    /// last refresh, appended where a handler mutates the network; the
    /// debug cross-check of the next [`ContentionMatrix::update`], and
    /// cleared by it.
    pending: Vec<NodeId>,
    events_applied: usize,
    repair_wall_us: u64,
    /// Partition transitions observed so far, drained by
    /// [`CacheWorld::take_partition_events`].
    partition_log: Vec<PartitionEvent>,
    /// Event-indexed telemetry; `None` (no sampling cost) unless the
    /// sink is enabled or the test-only `with_timeseries` forced it.
    series: Option<WorldSeries>,
}

impl CacheWorld {
    /// Creates a world over `net`, planning every arrival with the
    /// approximation algorithm under `config`.
    pub fn new(net: Network, config: ApproxConfig) -> Self {
        CacheWorld {
            net,
            config,
            retention: None,
            live: Vec::new(),
            placements: BTreeMap::new(),
            history: Vec::new(),
            next_chunk: 0,
            matrix: None,
            pending: Vec::new(),
            events_applied: 0,
            repair_wall_us: 0,
            partition_log: Vec::new(),
            series: obs::enabled().then(WorldSeries::new),
        }
    }

    /// Forces event-indexed time-series sampling on even without a
    /// sink (the recorder itself is pure; only [`WorldSeries::emit`]
    /// touches the sink). Lets tests assert the sampled trajectory
    /// deterministically.
    #[cfg(test)]
    fn with_timeseries(mut self) -> Self {
        self.series = Some(WorldSeries::new());
        self
    }

    /// The sampled world trajectory, when sampling is on.
    pub fn series(&self) -> Option<&WorldSeries> {
        self.series.as_ref()
    }

    /// Switches the world to partition-tolerant semantics.
    ///
    /// Departures and link drops that split the active subgraph succeed
    /// (the network moves to [`PartitionPolicy::Allow`]); planning and
    /// repair then run **per component**: a chunk's audience narrows to
    /// the clients whose component holds a data source (the producer or
    /// a surviving replica), the demand of everyone else is explicitly
    /// *deferred* rather than served through infinite-cost paths, and
    /// dissemination trees span only the producer-side replicas —
    /// detached replicas keep serving their own island off-tree. When
    /// components merge again, every live record is reconciled against
    /// the healed reachability and the deferred clients fold back in.
    /// Transitions are reported as typed [`PartitionEvent`]s.
    ///
    /// The mode *is* the network's policy: a world built over a network
    /// already set to [`PartitionPolicy::Allow`] is partition-tolerant
    /// without this call.
    pub fn partition_tolerant(mut self) -> Self {
        self.net.set_partition_policy(PartitionPolicy::Allow);
        self
    }

    /// Drains the partition transitions observed since the last call
    /// (oldest first). Always empty outside partition-tolerant mode.
    pub fn take_partition_events(&mut self) -> Vec<PartitionEvent> {
        std::mem::take(&mut self.partition_log)
    }

    /// Keep at most `chunks` live chunks; older ones are retired before
    /// a new arrival is placed.
    pub fn with_retention(mut self, chunks: usize) -> Self {
        self.retention = Some(chunks.max(1));
        self
    }

    /// The live-chunk retention cap, when set.
    pub fn retention(&self) -> Option<usize> {
        self.retention
    }

    /// The current network state.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The planning configuration.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// Chunks currently live (not retired), oldest first.
    pub fn live_chunks(&self) -> &[ChunkId] {
        &self.live
    }

    /// The current placement record of a live chunk — kept up to date
    /// through churn, unlike the arrival-time [`CacheWorld::history`].
    pub fn placement(&self, chunk: ChunkId) -> Option<&ChunkPlacement> {
        self.placements.get(&chunk)
    }

    /// Arrival-time placement records, in arrival order (retained even
    /// after a chunk retires; never rewritten by repair).
    pub fn history(&self) -> &[ChunkPlacement] {
        &self.history
    }

    /// Events applied so far.
    pub fn events_applied(&self) -> usize {
        self.events_applied
    }

    /// Accumulated wall-clock time of every departure repair so far,
    /// microseconds.
    pub fn repair_wall_us(&self) -> u64 {
        self.repair_wall_us
    }

    /// Drains battery from a node — environmental change between
    /// events; affects future facility costs only.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn drain_battery(&mut self, node: NodeId, amount: f64) {
        self.net.drain_battery(node, amount);
    }

    /// Sets a node's remaining battery fraction.
    ///
    /// # Errors
    ///
    /// As [`Network::set_battery`].
    pub fn set_battery(&mut self, node: NodeId, fraction: f64) -> Result<(), CoreError> {
        self.net.set_battery(node, fraction)
    }

    /// Restricts `chunk` to the given audience. If the chunk is live,
    /// its assignment is refreshed immediately so the placement record
    /// keeps covering exactly the interested clients.
    ///
    /// # Errors
    ///
    /// As [`Network::set_interest`], plus evaluation failures from the
    /// refresh (cannot occur on a connected network).
    pub fn set_interest(
        &mut self,
        chunk: ChunkId,
        clients: impl IntoIterator<Item = NodeId>,
    ) -> Result<(), CoreError> {
        self.net.set_interest(chunk, clients)?;
        if self.placements.contains_key(&chunk) {
            self.rederive(&[chunk], &[])?;
        }
        Ok(())
    }

    /// Clients of `chunk` whose component contains a data source — the
    /// producer or a surviving replica. On a connected network this is
    /// exactly [`Network::interested_clients`].
    pub fn served_clients(&self, chunk: ChunkId) -> Vec<NodeId> {
        let interested = self.net.interested_clients(chunk);
        if self.net.partition_policy() != PartitionPolicy::Allow || self.net.component_count() <= 1
        {
            return interested;
        }
        let mut sources: Vec<usize> = self
            .net
            .component_of(self.net.producer())
            .into_iter()
            .chain(
                self.net
                    .holders(chunk)
                    .into_iter()
                    .filter_map(|h| self.net.component_of(h)),
            )
            .collect();
        sources.sort_unstable();
        sources.dedup();
        interested
            .into_iter()
            .filter(|&j| {
                self.net
                    .component_of(j)
                    .is_some_and(|c| sources.binary_search(&c).is_ok())
            })
            .collect()
    }

    /// Interested clients of `chunk` currently cut off from every data
    /// source — their demand is deferred until a heal. Empty on a
    /// connected network.
    pub fn deferred_clients(&self, chunk: ChunkId) -> Vec<NodeId> {
        let served = self.served_clients(chunk);
        self.net
            .interested_clients(chunk)
            .into_iter()
            .filter(|j| served.binary_search(j).is_err())
            .collect()
    }

    /// Total deferred demand across all live chunks (the
    /// `world.deferred_demand` gauge).
    pub fn deferred_demand(&self) -> usize {
        self.live
            .iter()
            .map(|&chunk| self.deferred_clients(chunk).len())
            .sum()
    }

    /// Applies one event and reports what it did.
    ///
    /// On error the underlying network is untouched (every mutator
    /// validates before mutating) and the world stays consistent.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for events naming departed or
    ///   unknown nodes, or a departing producer.
    /// * [`CoreError::DisconnectedNetwork`] if a departure or link drop
    ///   would partition the active nodes — only outside
    ///   [partition-tolerant mode](CacheWorld::partition_tolerant).
    /// * Planning and storage errors from chunk placement.
    pub fn apply(&mut self, event: WorldEvent) -> Result<EventOutcome, CoreError> {
        let before = (self.net.partition_policy() == PartitionPolicy::Allow)
            .then(|| (self.net.component_count(), self.deferred_demand()));
        let outcome = match event {
            WorldEvent::ChunkArrived => EventOutcome::Placed(self.place_next_chunk()?),
            WorldEvent::ChunkRetired(chunk) => EventOutcome::Retired {
                chunk,
                copies_freed: self.retire_chunk(chunk),
            },
            WorldEvent::NodeJoined {
                neighbors,
                capacity,
            } => {
                let (node, refreshed) = self.join(&neighbors, capacity)?;
                EventOutcome::Joined { node, refreshed }
            }
            WorldEvent::NodeDeparted(node) => EventOutcome::Departed(self.depart(node)?),
            WorldEvent::LinkUp(u, v) => EventOutcome::LinkAdded {
                added: self.link_up(u, v)?,
            },
            WorldEvent::LinkDown(u, v) => {
                let (removed, refreshed) = self.link_down(u, v)?;
                EventOutcome::LinkRemoved { removed, refreshed }
            }
        };
        if let Some((comps_before, deferred_before)) = before {
            self.reconcile_partitions(comps_before, deferred_before)?;
        }
        self.events_applied += 1;
        if self.series.is_some() {
            // Sample on the event index, not ambient time: the
            // trajectory is a pure function of the event stream.
            let t = self.events_applied as u64;
            let comps = self.net.component_count() as i64;
            let live = self.live_demand() as i64;
            let deferred = self.deferred_demand() as i64;
            if let Some(series) = self.series.as_mut() {
                series.components.record(t, comps);
                series.demand_live.record(t, live);
                series.demand_deferred.record(t, deferred);
            }
        }
        #[cfg(feature = "strict-invariants")]
        self.strict_check();
        Ok(outcome)
    }

    /// Total served demand across all live chunks (the complement of
    /// [`CacheWorld::deferred_demand`]).
    pub fn live_demand(&self) -> usize {
        self.live
            .iter()
            .map(|&chunk| self.served_clients(chunk).len())
            .sum()
    }

    /// Post-event partition bookkeeping: when the component count moved,
    /// every live record is re-derived against the new reachability
    /// (narrowing audiences on a split, folding deferred demand back in
    /// on a heal) and a typed [`PartitionEvent`] is logged.
    fn reconcile_partitions(
        &mut self,
        comps_before: usize,
        deferred_before: usize,
    ) -> Result<(), CoreError> {
        let comps_after = self.net.component_count();
        if comps_after != comps_before {
            self.rederive(&self.live.clone(), &[])?;
            let deferred_after = self.deferred_demand();
            let components = self.net.active_components();
            if comps_after > comps_before {
                obs::event!(
                    "world.partition_formed",
                    components = comps_after,
                    deferred_clients = deferred_after,
                );
                self.partition_log.push(PartitionEvent::Formed {
                    components,
                    deferred_clients: deferred_after,
                });
            } else {
                let restored = deferred_before.saturating_sub(deferred_after);
                obs::event!(
                    "world.partition_healed",
                    components = comps_after,
                    restored_clients = restored,
                );
                self.partition_log.push(PartitionEvent::Healed {
                    components,
                    restored_clients: restored,
                });
            }
        }
        if obs::enabled() {
            obs::gauge("world.deferred_demand").set(self.deferred_demand() as i64);
        }
        Ok(())
    }

    /// Runtime oracle run after every event under `strict-invariants`:
    /// the carried contention snapshot, brought up to date as the next
    /// read would, must match a from-scratch recompute bitwise, every
    /// live dissemination tree must connect its caches to the producer,
    /// and the world's own consistency audit must hold.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant (corrupted incremental state).
    #[cfg(feature = "strict-invariants")]
    fn strict_check(&self) {
        crate::strict::check_component_tracking(&self.net);
        if let Some(matrix) = &self.matrix {
            crate::strict::check_refreshed_matrix(
                matrix,
                &self.pending,
                &self.net,
                self.config.parallelism,
            );
        }
        for chunk in &self.live {
            if let Some(p) = self.placements.get(chunk) {
                crate::strict::check_tree_connectivity(&self.net, p);
            }
        }
        if let Err(e) = self.validate() {
            panic!("strict-invariants: world self-audit failed after event: {e}");
        }
    }

    /// Places the next arriving chunk and returns its placement record
    /// (convenience for [`WorldEvent::ChunkArrived`]).
    ///
    /// # Errors
    ///
    /// Propagates planning and storage errors.
    pub fn insert_chunk(&mut self) -> Result<ChunkPlacement, CoreError> {
        self.place_next_chunk()
    }

    /// Retires a chunk, evicting every cached copy; returns the number
    /// of copies freed (convenience for [`WorldEvent::ChunkRetired`]).
    pub fn retire_chunk(&mut self, chunk: ChunkId) -> usize {
        self.live.retain(|&c| c != chunk);
        self.placements.remove(&chunk);
        let holders = self.net.holders(chunk);
        for &node in &holders {
            self.net.uncache(node, chunk);
        }
        if !holders.is_empty() {
            self.touched(holders.iter().copied().chain([self.net.producer()]));
        }
        obs::event!(
            "online.retire",
            chunk = chunk.index(),
            copies_freed = holders.len(),
            live = self.live.len(),
        );
        holders.len()
    }

    /// Checks that the placement records are consistent with the
    /// network: recorded caches are exactly the holders, every
    /// interested client of every live chunk is assigned to an active
    /// provider that can serve it, dissemination trees only use links
    /// that exist, and no node exceeds its capacity.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |msg: String| Err(CoreError::InvalidParameter(msg));
        for &chunk in &self.live {
            let Some(p) = self.placements.get(&chunk) else {
                return fail(format!("live chunk {chunk} has no placement record"));
            };
            let holders = self.net.holders(chunk);
            if p.caches != holders {
                return fail(format!(
                    "chunk {chunk}: recorded caches {:?} != holders {holders:?}",
                    p.caches
                ));
            }
            // Under partition tolerance the record must cover exactly
            // the *served* audience; deferred clients are tracked, not
            // assigned. On a connected network this is the full
            // interested audience, as before.
            let audience = self.served_clients(chunk);
            let assigned: Vec<NodeId> = p.assignment.iter().map(|&(j, _)| j).collect();
            if assigned != audience {
                return fail(format!(
                    "chunk {chunk}: assignment covers {assigned:?}, audience is {audience:?}"
                ));
            }
            for &(client, provider) in &p.assignment {
                if !self.net.is_active(provider) || !self.net.can_serve(provider, chunk) {
                    return fail(format!(
                        "chunk {chunk}: client {client} is orphaned (provider {provider})"
                    ));
                }
                if !self.net.same_component(client, provider) {
                    return fail(format!(
                        "chunk {chunk}: client {client} assigned across a \
                         partition to provider {provider}"
                    ));
                }
            }
            for &(u, v) in &p.tree_edges {
                if !self.net.graph().contains_edge(u, v) {
                    return fail(format!(
                        "chunk {chunk}: tree edge ({u}, {v}) does not exist"
                    ));
                }
            }
        }
        for node in self.net.graph().nodes() {
            if self.net.used(node) > self.net.capacity(node) {
                return fail(format!("node {node} exceeds its capacity"));
            }
        }
        Ok(())
    }

    /// Compares the repaired world against the full-replan oracle:
    /// every live chunk is re-placed from scratch (arrival pipeline, in
    /// arrival order) on a reset copy of the current network, and both
    /// placements are re-priced under their own final state.
    ///
    /// # Errors
    ///
    /// Propagates planning failures from the oracle replan. In
    /// partition-tolerant mode the oracle requires a currently-connected
    /// network (a from-scratch replan of a split world has no
    /// well-defined single cost) and returns
    /// [`CoreError::InvalidParameter`] while partitioned.
    pub fn repair_vs_replan(&self) -> Result<RepairVsReplan, CoreError> {
        if self.net.component_count() > 1 {
            return Err(CoreError::InvalidParameter(
                "repair_vs_replan requires a connected network; wait for \
                 partitions to heal"
                    .into(),
            ));
        }
        let live_placement: Placement = self
            .live
            .iter()
            .map(|c| self.placements[c].clone())
            .collect();
        let repaired = recost_final(&self.net, &live_placement, self.config.weights)?;
        let repair_contention = repaired.total_contention_cost();

        let start = MonotonicClock::System.now_us();
        let mut oracle = self.net.clone();
        oracle.reset();
        let chunks = plan_chunks(
            "Replan",
            &mut oracle,
            self.live.iter().copied(),
            self.config.weights,
            self.config.parallelism,
            &self.config.replication,
            |net, inst, _, _| Ok(ascend_and_prune(net, inst, &self.config)?.0),
        )?;
        let replanned = recost_final(&oracle, &chunks, self.config.weights)?;
        let replan_contention = replanned.total_contention_cost();
        let replan_wall_us = MonotonicClock::System.elapsed_us(start);
        let cost_ratio = if replan_contention > 0.0 {
            repair_contention / replan_contention
        } else {
            1.0
        };
        obs::event!(
            "world.repair_vs_replan",
            live = self.live.len(),
            repair_contention = repair_contention,
            replan_contention = replan_contention,
            cost_ratio = cost_ratio,
            repair_wall_us = self.repair_wall_us,
            replan_wall_us = replan_wall_us,
        );
        Ok(RepairVsReplan {
            live_chunks: self.live.len(),
            repair_contention,
            replan_contention,
            cost_ratio,
            repair_wall_us: self.repair_wall_us,
            replan_wall_us,
        })
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn place_next_chunk(&mut self) -> Result<ChunkPlacement, CoreError> {
        if let Some(window) = self.retention {
            while self.live.len() >= window {
                let oldest = self.live[0];
                self.retire_chunk(oldest);
            }
        }
        let chunk = ChunkId::new(self.next_chunk);
        self.next_chunk += 1;
        let mut span = obs::span!("online.insert", chunk = chunk.index());
        let inst = self.build_instance(chunk)?;
        let (facilities, stats) = ascend_and_prune(&self.net, &inst, &self.config)?;
        let placement = commit_chunk_replicated(
            &mut self.net,
            &inst,
            chunk,
            &facilities,
            &self.config.replication,
        )?;
        self.matrix = Some(inst.into_matrix());
        let producer = self.net.producer();
        self.touched(placement.caches.iter().copied().chain([producer]));
        if span.is_recording() {
            span.add_field("rounds", obs::Value::from(stats.rounds));
            span.add_field("copies", obs::Value::from(placement.caches.len()));
            span.add_field("live", obs::Value::from(self.live.len() + 1));
            span.add_field("cost_total", obs::Value::from(placement.costs.total()));
        }
        self.live.push(chunk);
        self.placements.insert(chunk, placement.clone());
        self.history.push(placement.clone());
        Ok(placement)
    }

    fn join(
        &mut self,
        neighbors: &[NodeId],
        capacity: usize,
    ) -> Result<(NodeId, Vec<ChunkId>), CoreError> {
        let node = self.net.join_node(neighbors, capacity)?;
        // Node count changed: the snapshot rebuilds wholesale at its
        // next read.
        self.touched(neighbors.iter().copied().chain([node]));
        let live = self.live.clone();
        self.rederive(&live, &[])?;
        obs::event!(
            "world.join",
            node = node.index(),
            links = neighbors.len(),
            refreshed = live.len(),
        );
        Ok((node, live))
    }

    fn depart(&mut self, node: NodeId) -> Result<RepairReport, CoreError> {
        let start = MonotonicClock::System.now_us();
        let mut span = obs::span!("world.repair", node = node.index());
        let dep = self.net.deactivate_node(node)?;
        let producer = self.net.producer();
        self.touched(dep.former_neighbors.iter().copied().chain([node, producer]));
        // The repair reads the snapshot at once, so refresh it here and
        // count the rows: this departure's and any pending change's.
        let apsp_rows = self.refresh_matrix()?;

        // Classify the fallout before mutating anything, so records
        // are re-derived after every repair has settled the snapshot.
        // A Steiner tree can route *through* the departed node even
        // when it holds no copy; those trees lost edges and must be
        // rebuilt. Every other touched chunk merely listed the node as
        // a client or provider — re-assigning clients and re-pricing
        // the intact tree suffices.
        let mut lost = Vec::new();
        let mut tree_hit = Vec::new();
        let mut client_only = Vec::new();
        let mut refreshed = Vec::new();
        for chunk in self.live.clone() {
            let p = &self.placements[&chunk];
            if dep.lost_chunks.contains(&chunk) {
                lost.push(chunk);
            } else if p.tree_edges.iter().any(|&(a, b)| a == node || b == node) {
                tree_hit.push(chunk);
                refreshed.push(chunk);
            } else if placement_touches(p, node) {
                client_only.push(chunk);
                refreshed.push(chunk);
            }
        }
        let mut repaired = Vec::new();
        let mut new_copies = Vec::new();
        let mut orphaned_clients = 0usize;
        for &chunk in &lost {
            let orphans: Vec<NodeId> = self.placements[&chunk]
                .assignment
                .iter()
                .filter(|&&(client, provider)| provider == node && client != node)
                .map(|&(client, _)| client)
                .collect();
            orphaned_clients += orphans.len();
            let added = self.repair_chunk(chunk, &orphans)?;
            new_copies.extend(added.into_iter().map(|i| (chunk, i)));
            repaired.push(chunk);
        }
        self.rederive(&tree_hit, &client_only)?;
        let wall_us = MonotonicClock::System.elapsed_us(start);
        self.repair_wall_us += wall_us;
        if span.is_recording() {
            span.add_field("lost_chunks", obs::Value::from(dep.lost_chunks.len()));
            span.add_field("repaired", obs::Value::from(repaired.len()));
            span.add_field("refreshed", obs::Value::from(refreshed.len()));
            span.add_field("new_copies", obs::Value::from(new_copies.len()));
            span.add_field("orphaned_clients", obs::Value::from(orphaned_clients));
            span.add_field("apsp_rows", obs::Value::from(apsp_rows));
        }
        Ok(RepairReport {
            node,
            lost_chunks: dep.lost_chunks,
            repaired,
            refreshed,
            new_copies,
            orphaned_clients,
            apsp_rows,
            wall_us,
        })
    }

    fn link_up(&mut self, u: NodeId, v: NodeId) -> Result<bool, CoreError> {
        let added = self.net.add_link(u, v)?;
        if added {
            self.touched([u, v]);
            obs::event!("world.link_up", u = u.index(), v = v.index());
        }
        Ok(added)
    }

    fn link_down(&mut self, u: NodeId, v: NodeId) -> Result<(bool, Vec<ChunkId>), CoreError> {
        let removed = self.net.remove_link(u, v)?;
        let mut refreshed = Vec::new();
        if removed {
            self.touched([u, v]);
            refreshed = self
                .live
                .iter()
                .copied()
                .filter(|c| {
                    self.placements[c]
                        .tree_edges
                        .iter()
                        .any(|&(a, b)| (a == u && b == v) || (a == v && b == u))
                })
                .collect();
            self.rederive(&refreshed, &[])?;
            obs::event!(
                "world.link_down",
                u = u.index(),
                v = v.index(),
                refreshed = refreshed.len(),
            );
        }
        Ok((removed, refreshed))
    }

    // ------------------------------------------------------------------
    // Repair machinery.
    // ------------------------------------------------------------------

    /// Re-places one chunk that lost a copy: surviving holders stay
    /// pinned (their copies are sunk cost), the orphaned clients drive
    /// a scoped dual ascent that may open new facilities, and the
    /// record is re-derived for the full audience.
    ///
    /// Returns the newly cached copies.
    fn repair_chunk(
        &mut self,
        chunk: ChunkId,
        orphans: &[NodeId],
    ) -> Result<Vec<NodeId>, CoreError> {
        let inst = self.build_instance(chunk)?;
        let survivors = self.net.holders(chunk);
        // Orphans whose component lost every data source cannot be
        // re-served; their demand is deferred (the instance's audience
        // excludes them already), not fed into the ascent.
        let orphans: Vec<NodeId> = orphans
            .iter()
            .copied()
            .filter(|j| inst.clients().binary_search(j).is_ok())
            .collect();
        let newly = repair_ascent(&self.net, &inst, &survivors, &orphans, &self.config)?;
        // The trim scoring and the final tree read the instance's
        // shortest-path memo alike (the same per-terminal reuse as
        // `improve_by_removal`), top-up replicas included.
        let mut newly = trim_new_facilities(&self.net, &inst, &survivors, newly)?;
        // R-copy durability floor: the trim keeps only facilities that
        // earn their keep serving orphans, which can leave the chunk
        // below the replication degree after a death. Top back up over
        // the post-trim set; the extras are priced and committed below
        // exactly like ascent-opened facilities.
        let extra = {
            let mut base = survivors.clone();
            base.extend(newly.iter().copied());
            base.sort_unstable();
            base.dedup();
            crate::replication::top_up_targets(
                &self.net,
                &base,
                &self.config.replication,
                |i| inst.facility_cost(i),
                |a, b| inst.connection_cost(a, b),
                inst.producer(),
            )
        };
        newly.extend(extra.iter().copied());
        newly.sort_unstable();
        let mut caches = survivors.clone();
        caches.extend(newly.iter().copied());
        caches.sort_unstable();
        let (assignment, access) = inst.assign_clients(&caches);
        let tree = inst.dissemination_tree(&self.net, &tree_terminals(&self.net, &caches))?;
        // New copies pay their (pre-caching) fairness cost on top of
        // what the chunk's past placements already paid; survivor
        // copies are sunk and not re-priced.
        let added_fairness: f64 = newly.iter().map(|&i| inst.facility_cost(i)).sum();
        let old_fairness = self.placements[&chunk].costs.fairness;
        for &i in &newly {
            self.net.cache(i, chunk)?;
        }
        self.placements.insert(
            chunk,
            ChunkPlacement {
                chunk,
                caches,
                assignment,
                tree_edges: tree.edges,
                costs: SetCosts {
                    fairness: old_fairness + added_fairness,
                    access,
                    dissemination: inst.weights().dissemination * tree.cost,
                },
            },
        );
        self.matrix = Some(inst.into_matrix());
        if !newly.is_empty() {
            // As on the arrival path, only the new copies (and the
            // producer) changed their contention terms.
            self.touched(newly.iter().copied().chain([self.net.producer()]));
        }
        Ok(newly)
    }

    /// Re-derives the records of live chunks in place under the carried
    /// snapshot — the one path by which a record changes without a copy
    /// moving. Copies stay as held, clients are re-assigned among the
    /// current holders, and sunk fairness is kept. Each chunk in
    /// `rebuild` gets a fresh dissemination tree, all of them from one
    /// shortest-path memo, so the call pays one shortest-path tree per
    /// distinct holder; nothing changes the network or the snapshot
    /// between chunks, so each tree is bit-for-bit the one-shot
    /// [`steiner::steiner_tree`]. Each chunk
    /// in `keep` keeps its tree, re-priced under the snapshot — valid
    /// only when no recorded tree edge can have vanished.
    fn rederive(&mut self, rebuild: &[ChunkId], keep: &[ChunkId]) -> Result<(), CoreError> {
        if rebuild.is_empty() && keep.is_empty() {
            return Ok(());
        }
        let matrix = self.take_matrix()?;
        let trees = shared_trees(&self.net, &matrix, rebuild);
        self.matrix = Some(matrix);
        let rebuilt = rebuild.iter().zip(trees?.into_iter().map(Some));
        for (&chunk, tree) in rebuilt.chain(keep.iter().zip(std::iter::repeat(None))) {
            let inst = self.build_instance(chunk)?;
            let caches = self.net.holders(chunk);
            let (assignment, access) = inst.assign_clients(&caches);
            let old = &self.placements[&chunk];
            let (tree_edges, tree_cost) = match tree {
                Some(tree) => (tree.edges, tree.cost),
                None => {
                    let edges = &old.tree_edges;
                    let cost = edges.iter().map(|&(u, v)| inst.matrix().edge_cost(u, v));
                    (edges.clone(), cost.sum())
                }
            };
            let costs = SetCosts {
                fairness: old.costs.fairness,
                access,
                dissemination: inst.weights().dissemination * tree_cost,
            };
            self.placements.insert(
                chunk,
                ChunkPlacement {
                    chunk,
                    caches,
                    assignment,
                    tree_edges,
                    costs,
                },
            );
            self.matrix = Some(inst.into_matrix());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Carried-snapshot plumbing.
    // ------------------------------------------------------------------

    /// Builds `chunk`'s ConFL instance over the carried snapshot, its
    /// audience restricted to the [served](CacheWorld::served_clients)
    /// clients: while partitioned, planning runs per component and never
    /// feeds an infinite (cross-partition) connection cost into an
    /// ascent's round bound.
    fn build_instance(&mut self, chunk: ChunkId) -> Result<ConflInstance, CoreError> {
        let audience = self.served_clients(chunk);
        let matrix = self.take_matrix()?;
        let inst = ConflInstance::build_for_chunk_with_matrix(
            &self.net,
            chunk,
            self.config.weights,
            matrix,
        );
        Ok(inst.with_clients(audience))
    }

    /// Hands out the carried snapshot, brought up to date (computed on
    /// first use).
    fn take_matrix(&mut self) -> Result<ContentionMatrix, CoreError> {
        self.refresh_matrix()?;
        match self.matrix.take() {
            Some(m) => Ok(m),
            None => ContentionMatrix::compute_with(
                &self.net,
                self.config.selection,
                self.config.parallelism,
            ),
        }
    }

    /// Records nodes whose contention term may have moved. Without a
    /// snapshot there is nothing to refresh: the first read computes it.
    fn touched(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        if self.matrix.is_some() {
            self.pending.extend(nodes);
        }
    }

    /// Absorbs every change since the snapshot into it, with the pending
    /// nodes as [`ContentionMatrix::update`]'s debug cross-check. Returns
    /// the number of shortest-path rows re-solved.
    fn refresh_matrix(&mut self) -> Result<usize, CoreError> {
        let dirty = std::mem::take(&mut self.pending);
        match self.matrix.as_mut() {
            Some(m) => m.update(&self.net, &dirty, self.config.parallelism),
            // No snapshot yet: nothing to invalidate, built lazily.
            None => Ok(0),
        }
    }
}

/// Ascent → prune: the facility set an arrival commits, shared by
/// [`CacheWorld`]'s arrivals and the full-replan oracle.
fn ascend_and_prune(
    net: &Network,
    inst: &ConflInstance,
    cfg: &ApproxConfig,
) -> Result<(Vec<NodeId>, DualAscentStats), CoreError> {
    let (facilities, stats) = dual_ascent(net, inst, cfg)?;
    Ok((prune_unused_facilities(net, inst, &facilities), stats))
}

/// Whether a placement record mentions `node` anywhere.
fn placement_touches(p: &ChunkPlacement, node: NodeId) -> bool {
    p.assignment
        .iter()
        .any(|&(client, provider)| client == node || provider == node)
        || p.tree_edges.iter().any(|&(a, b)| a == node || b == node)
}

/// The terminals of a chunk's dissemination tree: its producer-side
/// `holders` plus the producer. Replicas detached from the producer
/// serve their island off-tree (every holder qualifies on a connected
/// network).
fn tree_terminals<'a>(net: &Network, holders: impl IntoIterator<Item = &'a NodeId>) -> Vec<NodeId> {
    let mut terminals: Vec<NodeId> = holders
        .into_iter()
        .copied()
        .filter(|&h| net.in_producer_component(h))
        .collect();
    terminals.push(net.producer());
    terminals
}

/// One dissemination tree per chunk over its [`tree_terminals`], all
/// answered from one shortest-path memo.
fn shared_trees(
    net: &Network,
    matrix: &ContentionMatrix,
    chunks: &[ChunkId],
) -> Result<Vec<steiner::SteinerTree>, CoreError> {
    let memo = steiner::SptMemo::new(net.node_count());
    chunks
        .iter()
        .map(|&c| {
            let terminals = tree_terminals(net, &net.holders(c));
            Ok(memo.tree(net.graph(), &terminals, |u, v| matrix.edge_cost(u, v))?)
        })
        .collect()
}

/// The scoped dual ascent of the repair path.
///
/// Only the `orphans` bid: their `α` rises in `u_alpha` steps until
/// tight with an already-open provider — the producer, a surviving
/// holder, or a facility this ascent opened — while the surplus over a
/// closed candidate's connection cost accrues (in `u_beta` steps per
/// supporter) toward its fairness opening cost. One facility opens per
/// round: the eligible candidate with the most unfrozen supporters,
/// ties to the smallest id — mirroring the full ascent's rule. The
/// round count is bounded exactly like Algorithm 1's: every orphan
/// freezes at the latest when `α` reaches its producer connection cost.
///
/// Returns the newly opened facilities in opening order.
fn repair_ascent(
    net: &Network,
    inst: &ConflInstance,
    survivors: &[NodeId],
    orphans: &[NodeId],
    cfg: &ApproxConfig,
) -> Result<Vec<NodeId>, CoreError> {
    if orphans.is_empty() {
        return Ok(Vec::new());
    }
    for (name, v) in [("u_alpha", cfg.u_alpha), ("u_beta", cfg.u_beta)] {
        if !(v.is_finite() && v > 0.0) {
            return Err(CoreError::InvalidParameter(format!(
                "{name} must be positive and finite, got {v}"
            )));
        }
    }
    let producer = inst.producer();
    // New copies can only go to finite-cost candidates that do not
    // already hold the chunk. Under partition tolerance they are also
    // confined to the producer's component: a copy needs a path to
    // receive the bytes, and detached islands are covered by their
    // surviving replicas only (no-op on a connected network).
    let candidates: Vec<NodeId> = inst
        .candidates()
        .into_iter()
        .filter(|c| !survivors.contains(c) && net.in_producer_component(*c))
        .collect();
    let mut opened: Vec<NodeId> = Vec::new();
    let mut alpha = vec![0.0f64; orphans.len()];
    let mut frozen = vec![false; orphans.len()];
    let mut beta = vec![0.0f64; candidates.len()];

    let open_cost = |opened: &[NodeId], j: NodeId| -> f64 {
        let mut best = inst.connection_cost(producer, j);
        for &i in survivors.iter().chain(opened) {
            best = best.min(inst.connection_cost(i, j));
        }
        best
    };
    let max_anchor = orphans
        .iter()
        .map(|&j| open_cost(&[], j))
        .fold(0.0f64, f64::max);
    let round_cap = crate::approx::round_cap("orphan anchor cost", max_anchor, cfg.u_alpha)?;

    for _ in 0..round_cap {
        if frozen.iter().all(|&f| f) {
            break;
        }
        for a in alpha
            .iter_mut()
            .zip(&frozen)
            .filter(|&(_, &f)| !f)
            .map(|(a, _)| a)
        {
            *a += cfg.u_alpha;
        }
        for (idx, &j) in orphans.iter().enumerate() {
            if !frozen[idx] && alpha[idx] >= open_cost(&opened, j) {
                frozen[idx] = true;
            }
        }
        let mut best: Option<(usize, NodeId)> = None;
        for (ci, &i) in candidates.iter().enumerate() {
            if opened.contains(&i) {
                continue;
            }
            let supporters = orphans
                .iter()
                .enumerate()
                .filter(|&(idx, &j)| !frozen[idx] && alpha[idx] >= inst.connection_cost(i, j))
                .count();
            if supporters == 0 {
                continue;
            }
            beta[ci] += cfg.u_beta * supporters as f64;
            if beta[ci] >= inst.facility_cost(i) && best.is_none_or(|(s, _)| supporters > s) {
                // Candidates iterate ascending, so ties keep the
                // smallest id.
                best = Some((supporters, i));
            }
        }
        if let Some((_, i)) = best {
            opened.push(i);
            for (idx, &j) in orphans.iter().enumerate() {
                if !frozen[idx] && alpha[idx] >= inst.connection_cost(i, j) {
                    frozen[idx] = true;
                }
            }
        }
    }
    Ok(opened)
}

/// Greedy improving-removal restricted to the newly opened facilities:
/// survivors stay pinned (their copies are physical), and each
/// candidate set is scored by the marginal objective — the new copies'
/// fairness plus the full access and dissemination costs. Sunk survivor
/// fairness is a constant across all compared sets, so dropping it
/// never changes a comparison.
fn trim_new_facilities(
    net: &Network,
    inst: &ConflInstance,
    survivors: &[NodeId],
    mut newly: Vec<NodeId>,
) -> Result<Vec<NodeId>, CoreError> {
    if newly.is_empty() {
        return Ok(newly);
    }
    // Cheap first pass, mirroring `prune_unused_facilities` restricted
    // to the newly opened set: a new copy serving no client under the
    // min-cost assignment pays fairness for nothing and can only
    // lengthen the tree. Dropping these first keeps the quadratic
    // greedy phase below small.
    loop {
        let caches: Vec<NodeId> = survivors.iter().chain(&newly).copied().collect();
        let (assignment, _) = inst.assign_clients(&caches);
        let before = newly.len();
        newly.retain(|&i| assignment.iter().any(|&(_, provider)| provider == i));
        if newly.len() == before {
            break;
        }
    }
    if newly.is_empty() {
        return Ok(newly);
    }
    remove_greedily(inst, survivors, newly, |caches| {
        Ok(inst
            .dissemination_tree(net, &tree_terminals(net, caches))?
            .cost)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::commit_chunk;
    use crate::workload::paper_grid;

    fn world() -> CacheWorld {
        CacheWorld::new(paper_grid(4).unwrap(), ApproxConfig::default())
    }

    /// A holder of the oldest live chunk that is safe to remove.
    fn departing_holder(w: &CacheWorld) -> NodeId {
        let chunk = w.live_chunks()[0];
        w.placement(chunk).unwrap().caches[0]
    }

    #[test]
    fn partition_defers_and_heal_restores_unreachable_demand() {
        use peercache_graph::builders;
        // Path 0-1-2-3-4, producer 0; a huge span threshold keeps every
        // client producer-served, so reachability is unambiguous.
        let net = Network::new(builders::path(5), NodeId::new(0), 2).unwrap();
        let cfg = ApproxConfig {
            span_threshold: 100,
            ..ApproxConfig::default()
        };
        let mut w = CacheWorld::new(net, cfg).partition_tolerant();
        assert_eq!(w.network().partition_policy(), PartitionPolicy::Allow);
        w.apply(WorldEvent::ChunkArrived).unwrap();
        let chunk = w.live_chunks()[0];
        assert!(w.network().holders(chunk).is_empty());

        // Node 2 is a cut vertex: its departure splits {0,1} from {3,4}.
        let out = w.apply(WorldEvent::NodeDeparted(NodeId::new(2))).unwrap();
        assert!(matches!(out, EventOutcome::Departed(_)));
        assert_eq!(w.network().component_count(), 2);
        assert_eq!(
            w.deferred_clients(chunk),
            vec![NodeId::new(3), NodeId::new(4)]
        );
        assert_eq!(w.deferred_demand(), 2);
        let assigned: Vec<NodeId> = w
            .placement(chunk)
            .unwrap()
            .assignment
            .iter()
            .map(|&(j, _)| j)
            .collect();
        assert_eq!(assigned, vec![NodeId::new(1)]);
        w.validate().unwrap();
        let events = w.take_partition_events();
        assert!(matches!(
            events.as_slice(),
            [PartitionEvent::Formed {
                deferred_clients: 2,
                ..
            }]
        ));
        // The replan oracle refuses to price a split world.
        assert!(matches!(
            w.repair_vs_replan(),
            Err(CoreError::InvalidParameter(_))
        ));

        // Arrivals while split plan for the producer's component only.
        w.apply(WorldEvent::ChunkArrived).unwrap();
        let second = w.live_chunks()[1];
        assert_eq!(
            w.deferred_clients(second),
            vec![NodeId::new(3), NodeId::new(4)]
        );
        w.validate().unwrap();

        // A joining node bridges the islands; deferred demand folds back.
        w.apply(WorldEvent::NodeJoined {
            neighbors: vec![NodeId::new(1), NodeId::new(3)],
            capacity: 2,
        })
        .unwrap();
        assert_eq!(w.network().component_count(), 1);
        assert_eq!(w.deferred_demand(), 0);
        let events = w.take_partition_events();
        assert!(matches!(
            events.as_slice(),
            [PartitionEvent::Healed {
                restored_clients: 4,
                ..
            }]
        ));
        for &c in w.live_chunks() {
            let assigned: Vec<NodeId> = w
                .placement(c)
                .unwrap()
                .assignment
                .iter()
                .map(|&(j, _)| j)
                .collect();
            assert_eq!(assigned, w.network().interested_clients(c));
        }
        w.validate().unwrap();
        w.repair_vs_replan().unwrap();
    }

    #[test]
    fn link_partition_forms_and_heals_via_the_same_edge() {
        let mut w = world().partition_tolerant();
        w.insert_chunk().unwrap();
        let chunk = w.live_chunks()[0];
        // Isolate a corner of the 4x4 grid that caches nothing.
        let producer = w.network().producer();
        let corner = [0usize, 3, 12, 15]
            .into_iter()
            .map(NodeId::new)
            .find(|&c| c != producer && !w.network().holders(chunk).contains(&c))
            .expect("some corner is neither producer nor holder");
        let (a, b) = match corner.index() {
            0 => (1, 4),
            3 => (2, 7),
            12 => (8, 13),
            _ => (11, 14),
        };
        w.apply(WorldEvent::LinkDown(corner, NodeId::new(a)))
            .unwrap();
        assert!(w.take_partition_events().is_empty(), "still connected");
        w.apply(WorldEvent::LinkDown(corner, NodeId::new(b)))
            .unwrap();
        assert_eq!(w.network().component_count(), 2);
        assert_eq!(w.deferred_clients(chunk), vec![corner]);
        assert!(matches!(
            w.take_partition_events().as_slice(),
            [PartitionEvent::Formed { .. }]
        ));
        w.validate().unwrap();
        w.apply(WorldEvent::LinkUp(corner, NodeId::new(a))).unwrap();
        assert_eq!(w.network().component_count(), 1);
        assert!(matches!(
            w.take_partition_events().as_slice(),
            [PartitionEvent::Healed {
                restored_clients: 1,
                ..
            }]
        ));
        assert_eq!(w.deferred_demand(), 0);
        w.validate().unwrap();
    }

    #[test]
    fn arrivals_match_the_online_pipeline() {
        let mut w = world();
        let mut reference = paper_grid(4).unwrap();
        let a = w.insert_chunk().unwrap().clone();
        let b = w.insert_chunk().unwrap().clone();
        // Arrivals take consecutive chunk ids.
        assert_eq!((a.chunk, b.chunk), (ChunkId::new(0), ChunkId::new(1)));
        assert_eq!((w.live_chunks().len(), w.history().len()), (2, 2));
        // Replay the arrival pipeline by hand on a twin network.
        for expected in [&a, &b] {
            let inst = ConflInstance::build_for_chunk(
                &reference,
                expected.chunk,
                ApproxConfig::default().weights,
                ApproxConfig::default().selection,
            )
            .unwrap();
            let (fac, _) = dual_ascent(&reference, &inst, &ApproxConfig::default()).unwrap();
            let fac = prune_unused_facilities(&reference, &inst, &fac);
            let cp = commit_chunk(&mut reference, &inst, expected.chunk, &fac).unwrap();
            assert_eq!(&cp, expected);
        }
    }

    #[test]
    fn departure_repairs_orphaned_clients() {
        let mut w = world();
        for _ in 0..3 {
            w.insert_chunk().unwrap();
        }
        let victim = departing_holder(&w);
        let lost: Vec<ChunkId> = w
            .live_chunks()
            .iter()
            .copied()
            .filter(|&c| w.network().is_cached(victim, c))
            .collect();
        assert!(!lost.is_empty());
        let outcome = w.apply(WorldEvent::NodeDeparted(victim)).unwrap();
        let EventOutcome::Departed(report) = outcome else {
            panic!("expected a repair report");
        };
        assert_eq!(report.lost_chunks, lost);
        assert_eq!(report.repaired, lost);
        assert!(!w.network().is_active(victim));
        w.validate().unwrap();
        // No record mentions the departed node anymore.
        for &c in w.live_chunks() {
            assert!(!placement_touches(w.placement(c).unwrap(), victim));
        }
    }

    #[test]
    fn departure_of_a_bystander_only_refreshes() {
        let mut w = world();
        w.insert_chunk().unwrap();
        // Find an empty-handed node whose departure keeps the grid
        // connected (any interior-adjacent corner works on 4x4).
        let bystander = w
            .network()
            .clients()
            .find(|&n| w.network().used(n) == 0)
            .expect("some node cached nothing");
        let EventOutcome::Departed(report) = w.apply(WorldEvent::NodeDeparted(bystander)).unwrap()
        else {
            panic!("expected a repair report");
        };
        assert!(report.lost_chunks.is_empty());
        assert!(report.repaired.is_empty());
        assert!(report.new_copies.is_empty());
        w.validate().unwrap();
    }

    #[test]
    fn link_down_rebuilds_crossing_trees() {
        let mut w = world();
        w.insert_chunk().unwrap();
        let chunk = w.live_chunks()[0];
        let &(u, v) = w
            .placement(chunk)
            .unwrap()
            .tree_edges
            .first()
            .expect("dissemination tree is nonempty");
        let EventOutcome::LinkRemoved { removed, refreshed } =
            w.apply(WorldEvent::LinkDown(u, v)).unwrap()
        else {
            panic!("expected a link outcome");
        };
        assert!(removed);
        assert!(refreshed.contains(&chunk));
        w.validate().unwrap();
        // Dropping an absent link is a no-op.
        let EventOutcome::LinkRemoved { removed, refreshed } =
            w.apply(WorldEvent::LinkDown(u, v)).unwrap()
        else {
            panic!("expected a link outcome");
        };
        assert!(!removed);
        assert!(refreshed.is_empty());
    }

    #[test]
    fn join_extends_every_live_assignment() {
        let mut w = world();
        w.insert_chunk().unwrap();
        w.insert_chunk().unwrap();
        let neighbors = vec![NodeId::new(0), NodeId::new(1)];
        let EventOutcome::Joined { node, refreshed } = w
            .apply(WorldEvent::NodeJoined {
                neighbors,
                capacity: 3,
            })
            .unwrap()
        else {
            panic!("expected a join outcome");
        };
        assert_eq!(refreshed.len(), 2);
        w.validate().unwrap();
        for &c in w.live_chunks() {
            assert!(w
                .placement(c)
                .unwrap()
                .assignment
                .iter()
                .any(|&(client, _)| client == node));
        }
    }

    #[test]
    fn link_up_is_tracked_and_idempotent() {
        let mut w = world();
        w.insert_chunk().unwrap();
        // 4x4 grid: 0 and 5 are diagonal, not linked.
        let EventOutcome::LinkAdded { added } = w
            .apply(WorldEvent::LinkUp(NodeId::new(0), NodeId::new(5)))
            .unwrap()
        else {
            panic!("expected a link outcome");
        };
        assert!(added);
        let EventOutcome::LinkAdded { added } = w
            .apply(WorldEvent::LinkUp(NodeId::new(0), NodeId::new(5)))
            .unwrap()
        else {
            panic!("expected a link outcome");
        };
        assert!(!added);
        w.validate().unwrap();
    }

    #[test]
    fn retire_event_frees_copies() {
        let mut w = world();
        let chunk = w.insert_chunk().unwrap().chunk;
        let copies = w.network().holders(chunk).len();
        assert!(copies > 0);
        let outcome = w.apply(WorldEvent::ChunkRetired(chunk)).unwrap();
        assert_eq!(
            outcome,
            EventOutcome::Retired {
                chunk,
                copies_freed: copies
            }
        );
        assert!(w.network().holders(chunk).is_empty());
        assert!(w.live_chunks().is_empty());
        // Retiring a chunk that was never placed frees nothing.
        assert_eq!(w.retire_chunk(ChunkId::new(99)), 0);
        w.validate().unwrap();
    }

    #[test]
    fn retention_window_retires_the_oldest() {
        let mut w = world().with_retention(2);
        for _ in 0..4 {
            w.insert_chunk().unwrap();
        }
        assert_eq!(w.live_chunks(), &[ChunkId::new(2), ChunkId::new(3)]);
        // Retired chunks hold no copies; history keeps every arrival.
        assert!(w.network().holders(ChunkId::new(0)).is_empty());
        assert_eq!(w.history().len(), 4);
        // Without retention a 4x4 grid with capacity 5 fills after ~10
        // chunks; a window of 3 keeps accepting arrivals.
        let mut w = world().with_retention(3);
        for _ in 0..20 {
            w.insert_chunk().unwrap();
        }
        assert_eq!(w.live_chunks().len(), 3);
        w.validate().unwrap();
    }

    #[test]
    fn repair_stays_within_replan_cost_gap() {
        let mut w = world().with_retention(4);
        for _ in 0..4 {
            w.insert_chunk().unwrap();
        }
        let victim = departing_holder(&w);
        w.apply(WorldEvent::NodeDeparted(victim)).unwrap();
        w.insert_chunk().unwrap();
        let report = w.repair_vs_replan().unwrap();
        assert_eq!(report.live_chunks, 4);
        assert!(report.repair_contention > 0.0);
        assert!(report.replan_contention > 0.0);
        assert!(
            report.cost_ratio <= 1.5,
            "repair cost ratio {} exceeds the 1.5x gap",
            report.cost_ratio
        );
    }

    #[test]
    fn event_streams_are_deterministic() {
        let events = |w: &mut CacheWorld| -> Vec<WorldEvent> {
            let mut applied = Vec::new();
            for _ in 0..3 {
                applied.push(WorldEvent::ChunkArrived);
                w.apply(WorldEvent::ChunkArrived).unwrap();
            }
            let victim = departing_holder(w);
            let ev = WorldEvent::NodeDeparted(victim);
            w.apply(ev.clone()).unwrap();
            applied.push(ev);
            applied.push(WorldEvent::ChunkArrived);
            w.apply(WorldEvent::ChunkArrived).unwrap();
            applied
        };
        let mut a = world();
        let trace = events(&mut a);
        let mut b = world();
        for ev in trace {
            b.apply(ev).unwrap();
        }
        assert_eq!(a.network(), b.network());
        assert_eq!(a.live_chunks(), b.live_chunks());
        for &c in a.live_chunks() {
            assert_eq!(a.placement(c), b.placement(c));
        }
    }

    #[test]
    fn failed_events_leave_the_world_consistent() {
        let mut w = world();
        w.insert_chunk().unwrap();
        let producer = w.network().producer();
        assert!(w.apply(WorldEvent::NodeDeparted(producer)).is_err());
        assert!(w
            .apply(WorldEvent::NodeJoined {
                neighbors: vec![],
                capacity: 1
            })
            .is_err());
        w.validate().unwrap();
        // The world still accepts events afterwards.
        w.apply(WorldEvent::ChunkArrived).unwrap();
        w.validate().unwrap();
    }

    /// Forced time-series sampling records one point per event on the
    /// event index, and the trajectory replays identically — the
    /// recorder reads no ambient time.
    #[test]
    fn world_series_samples_every_event_deterministically() {
        use peercache_graph::builders;
        let run = || {
            let net = Network::new(builders::path(5), NodeId::new(0), 2).unwrap();
            let cfg = ApproxConfig {
                span_threshold: 100,
                ..ApproxConfig::default()
            };
            let mut w = CacheWorld::new(net, cfg)
                .partition_tolerant()
                .with_timeseries();
            w.apply(WorldEvent::ChunkArrived).unwrap();
            w.apply(WorldEvent::NodeDeparted(NodeId::new(2))).unwrap();
            w.apply(WorldEvent::ChunkArrived).unwrap();
            w.series().unwrap().clone()
        };
        let s = run();
        assert_eq!(s.components.points(), [(1, 1), (2, 2), (3, 2)]);
        // After the split, clients 3 and 4 defer on both live chunks.
        assert_eq!(s.demand_deferred.points(), [(1, 0), (2, 2), (3, 4)]);
        assert_eq!(s.demand_live.points().len(), 3);
        assert_eq!(s, run());
        // Without a sink and without forcing, sampling is fully off.
        let silent = world();
        assert!(silent.series().is_none());
    }

    #[test]
    fn set_interest_refreshes_live_records() {
        let mut w = world();
        let chunk = w.insert_chunk().unwrap().chunk;
        w.set_interest(chunk, [NodeId::new(0), NodeId::new(1)])
            .unwrap();
        let p = w.placement(chunk).unwrap();
        let clients: Vec<NodeId> = p.assignment.iter().map(|&(j, _)| j).collect();
        assert_eq!(clients, vec![NodeId::new(0), NodeId::new(1)]);
        w.validate().unwrap();
    }
}
