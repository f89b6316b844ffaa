//! The region-sharded world: [`CacheWorld`](crate::CacheWorld)'s
//! churn semantics on the scoped contention store, planned region by
//! region.
//!
//! # Architecture
//!
//! A node's shard is its region of the scoped store's
//! [`RegionPartition`](peercache_graph::regions::RegionPartition):
//! every node is homed in exactly one region, and a join re-grows the
//! partition. Each live chunk's [`ShardChunk`] holds its
//! `(client, provider)` rows in client order, each with the access cost
//! it had when it was written. A tick consumes a batch of
//! [`WorldEvent`]s through a fixed pipeline:
//!
//! 1. **Structural edits** — serial, in input order (joins, departures,
//!    link flips, retirements). Per-event rejections (e.g. a departure
//!    the Reject partition policy refuses) are counted, not fatal.
//! 2. **Scoped refresh** — one [`ScopedContention::update`] absorbs the
//!    batch: it diffs the network against the store's snapshot and
//!    re-captures exactly the stale blocks and the landmark oracle,
//!    which are solved on their first read in a later phase. After a
//!    join (new node id) the store re-grows its partition instead, and
//!    each newcomer is adopted by its new region.
//! 3. **Churn repair** — replacement-copy and orphan-reassignment
//!    *proposals* are computed in parallel against the frozen post-
//!    refresh state (slot-array fan-out, one pure task per item), then
//!    merged serially in ascending item order with capacity re-checks.
//! 4. **Arrivals** — each new chunk runs the hierarchical planner's
//!    chunk step, `plan_scoped_chunk` (its per-region dual ascent fans
//!    out in parallel), and commits its copies and rows.
//! 5. **Tree rebuild** — one producer-rooted SPT refreshes every live
//!    chunk's trunk dissemination tree.
//! 6. **Telemetry + oracles** — gauges, the tick span, and (under
//!    `strict-invariants`) a full self-audit.
//!
//! # Cross-shard events
//!
//! [`TickReport::cross_events`] counts the messages a deployment with
//! one host per region would send between regions, at the point each
//! is decided:
//!
//! - a link flip across a region boundary: 2, one to each side (a node
//!   that joined earlier in the batch has no region yet, so its links
//!   count nothing);
//! - a retirement: one to every region but the producer's;
//! - a newcomer adopted after a join: 1;
//! - an arrival: 1 per row whose client, and 1 per copy whose holder,
//!   is homed outside the producer's region;
//! - a replacement copy: 1 when its holder is homed outside the lowest
//!   region among the chunk's orphans;
//! - an R-copy top-up: 1 when its holder is homed outside the
//!   producer's region;
//! - an orphan reassignment: 2 (handoff and assignment) when the client
//!   is homed outside the departed provider's region.
//!
//! # Determinism
//!
//! Every parallel stage computes proposals into pre-indexed slots and
//! is merged in a fixed order. No stage reads ambient time, thread
//! ids, or iteration order of unordered containers, so **any thread
//! count produces bit-for-bit the same state** — `state_digest`, the
//! span count and the cross-shard count are replay-stable across
//! `Parallelism` settings, and the determinism suite
//! (`tests/shard_world.rs`) pins exactly that.

use std::collections::BTreeMap;

use peercache_graph::paths::{dijkstra_edge_weighted, Parallelism};
use peercache_graph::regions::splitmix64;
use peercache_graph::NodeId;
use peercache_obs as obs;

use crate::approx::ApproxConfig;
use crate::costs::CostWeights;
use crate::instance::ConflInstance;
use crate::instance::SetCosts;
use crate::placement::ChunkPlacement;
use crate::planner::{chunk_span, finish_chunk_span};
use crate::replication::top_up_targets;
use crate::scoped::{
    best_provider, fan_out, plan_scoped_chunk, trunk_tree, ScopedConfig, ScopedContention,
    StoreWork,
};
use crate::world::WorldEvent;
use crate::{ChunkId, CoreError, Network, PartitionPolicy};

/// Configuration of a [`ShardedWorld`]: the planning parameters shared
/// with the dense pipeline plus the scoped-store geometry. The thread
/// budget of every parallel stage is `approx.parallelism`.
#[derive(Debug, Clone, Default)]
pub struct ShardConfig {
    /// Dual-ascent parameters, cost weights, and the `Parallelism`
    /// budget shared by every fan-out stage.
    pub approx: ApproxConfig,
    /// Region/halo geometry of the scoped store (and therefore of the
    /// shards themselves: a node's shard is its region).
    pub scoped: ScopedConfig,
}

/// A live chunk's shard-world record.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChunk {
    /// Nodes caching the chunk, sorted ascending.
    pub caches: Vec<NodeId>,
    /// `(client, provider, access cost)` rows, one per interested
    /// client in ascending client order. A row's cost is the one it had
    /// when it was written: rows refresh when their chunk is planned or
    /// their client is adopted or re-assigned, not when unrelated
    /// contention moves.
    pub rows: Vec<(NodeId, NodeId, f64)>,
    /// Trunk dissemination tree as `(child, parent)` pairs, ascending
    /// child order.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// Summed edge cost of the trunk tree (unweighted; multiply by the
    /// dissemination weight for the objective term).
    pub tree_cost: f64,
}

impl ShardChunk {
    /// Writes (or overwrites) `client`'s row, keeping client order.
    fn set_row(&mut self, client: NodeId, provider: NodeId, cost: f64) {
        match self.rows.binary_search_by_key(&client, |&(j, _, _)| j) {
            Ok(at) => self.rows[at] = (client, provider, cost),
            Err(at) => self.rows.insert(at, (client, provider, cost)),
        }
    }
}

/// What one [`ShardedWorld::tick`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickReport {
    /// 1-based tick index.
    pub tick: u64,
    /// Chunks placed this tick, in arrival order.
    pub placed: Vec<ChunkId>,
    /// Chunks retired this tick (explicit retirements and retention
    /// evictions), in retirement order.
    pub retired: Vec<ChunkId>,
    /// Nodes that departed this tick, in input order.
    pub departed: Vec<NodeId>,
    /// Nodes that joined this tick, in input order.
    pub joined: Vec<NodeId>,
    /// Events rejected by the model (unknown chunk, refused departure,
    /// bad link) — counted, not fatal.
    pub rejected: usize,
    /// Links added / removed this tick.
    pub links_added: usize,
    /// Links removed this tick.
    pub links_removed: usize,
    /// Replacement copies committed by churn repair, as
    /// `(chunk, new holder)` in commit order.
    pub copies_restored: Vec<(ChunkId, NodeId)>,
    /// Orphaned placement rows re-pointed at a surviving provider.
    pub orphans_reassigned: usize,
    /// Cross-shard events counted during this tick (see the module
    /// docs' counting rule).
    pub cross_events: u64,
    /// Whether a join made the scoped store re-grow its partition.
    pub shards_rebuilt: bool,
}

/// One departure's bookkeeping carried from the structural phase to
/// the repair phase.
#[derive(Debug, Clone)]
struct DepartureRec {
    node: NodeId,
    lost: Vec<ChunkId>,
}

/// The region-sharded cache world. See the module docs for the
/// pipeline and the determinism contract.
#[derive(Debug)]
pub struct ShardedWorld {
    net: Network,
    cfg: ShardConfig,
    scoped: ScopedContention,
    /// Cross-shard events counted over the world's lifetime.
    cross_events: u64,
    chunks: BTreeMap<ChunkId, ShardChunk>,
    next_chunk: usize,
    retention: Option<usize>,
    ticks: u64,
    events_applied: u64,
    events_rejected: u64,
    /// Deterministic count of spans this world has emitted (one per
    /// tick plus one per placed chunk), maintained whether or not a
    /// sink is attached — the replay suites compare it across thread
    /// counts.
    span_count: u64,
}

impl ShardedWorld {
    /// Creates a sharded world over `net`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] for invalid planning
    ///   parameters or a partition-tolerant (`Allow` policy) network —
    ///   the sharded pipeline requires the active set to stay
    ///   connected (trunk trees are producer-rooted).
    /// * [`CoreError::Graph`] from the scoped-store build.
    pub fn new(net: Network, cfg: ShardConfig) -> Result<Self, CoreError> {
        cfg.approx.validate()?;
        if net.partition_policy() != PartitionPolicy::Reject {
            return Err(CoreError::InvalidParameter(
                "ShardedWorld requires PartitionPolicy::Reject (connected active set)".into(),
            ));
        }
        let scoped = ScopedContention::new(
            &net,
            cfg.scoped,
            cfg.approx.selection,
            cfg.approx.parallelism,
        )?;
        obs::gauge("world.shard_count").set(scoped.partition().region_count() as i64);
        Ok(ShardedWorld {
            net,
            cfg,
            scoped,
            cross_events: 0,
            chunks: BTreeMap::new(),
            next_chunk: 0,
            retention: None,
            ticks: 0,
            events_applied: 0,
            events_rejected: 0,
            span_count: 0,
        })
    }

    /// Keep at most `chunks` live chunks; the oldest is retired before
    /// a new arrival is placed once the cap is reached.
    #[must_use]
    pub fn with_retention(mut self, chunks: usize) -> Self {
        self.retention = Some(chunks.max(1));
        self
    }

    /// The current network state.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The scoped contention store the shards plan over.
    pub fn scoped(&self) -> &ScopedContention {
        &self.scoped
    }

    /// Number of shards (== regions of the current partition).
    pub fn shard_count(&self) -> usize {
        self.scoped.partition().region_count()
    }

    /// The home shard of `node`: its region in the current partition.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds or joined after the partition
    /// was last grown.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.scoped.partition().region_of(node)
    }

    /// Live chunk ids, ascending (== arrival order).
    pub fn live_chunks(&self) -> Vec<ChunkId> {
        self.chunks.keys().copied().collect()
    }

    /// A live chunk's record.
    pub fn chunk(&self, chunk: ChunkId) -> Option<&ShardChunk> {
        self.chunks.get(&chunk)
    }

    /// Ticks processed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Events applied (accepted) over the world's lifetime.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Events rejected over the world's lifetime.
    pub fn events_rejected(&self) -> u64 {
        self.events_rejected
    }

    /// Cross-shard events counted over the world's lifetime.
    pub fn cross_shard_events(&self) -> u64 {
        self.cross_events
    }

    /// Deterministic span count (one per tick, one per placed chunk),
    /// identical across thread counts for the same event trace.
    pub fn span_count(&self) -> u64 {
        self.span_count
    }

    /// The scoped store's work over the world's lifetime, re-grows
    /// included, identical across thread counts for the same event
    /// trace.
    pub fn store_work(&self) -> StoreWork {
        self.scoped.work()
    }

    fn parallelism(&self) -> Parallelism {
        self.cfg.approx.parallelism
    }

    fn weights(&self) -> CostWeights {
        self.cfg.approx.weights
    }

    /// Reconstructs a [`ChunkPlacement`] view of one live chunk from
    /// its record. The access term sums the rows in (region, client)
    /// order.
    pub fn placement(&self, chunk: ChunkId) -> Option<ChunkPlacement> {
        let sc = self.chunks.get(&chunk)?;
        let mut by_region: Vec<&(NodeId, NodeId, f64)> = sc.rows.iter().collect();
        by_region.sort_by_key(|&&(j, _, _)| self.shard_of(j));
        let access = by_region.iter().fold(0.0f64, |sum, &&(_, _, c)| sum + c);
        let w = self.weights();
        let fairness: f64 = sc
            .caches
            .iter()
            .map(|&i| self.net.fairness_cost(i) * w.fairness)
            .sum();
        Some(ChunkPlacement {
            chunk,
            caches: sc.caches.clone(),
            assignment: sc.rows.iter().map(|&(j, p, _)| (j, p)).collect(),
            tree_edges: sc.tree_edges.clone(),
            costs: SetCosts {
                fairness,
                access,
                dissemination: w.dissemination * sc.tree_cost,
            },
        })
    }

    /// Applies one event (convenience wrapper over a one-event
    /// [`ShardedWorld::tick`]).
    ///
    /// # Errors
    ///
    /// Propagates planning/storage errors; model-level rejections are
    /// reported in the [`TickReport`], not as errors.
    pub fn apply(&mut self, event: WorldEvent) -> Result<TickReport, CoreError> {
        self.tick(&[event])
    }

    /// Processes one batch of events through the sharded pipeline (see
    /// the module docs). Events that the model refuses (retiring an
    /// unknown chunk, a departure the Reject policy blocks, a link on
    /// an inactive node) are *counted* in [`TickReport::rejected`] and
    /// skipped; the tick itself still succeeds.
    ///
    /// # Errors
    ///
    /// Propagates internal planning/storage failures (which indicate a
    /// bug, not a bad event).
    pub fn tick(&mut self, events: &[WorldEvent]) -> Result<TickReport, CoreError> {
        self.ticks += 1;
        let mut span = obs::span!("world.tick", tick = self.ticks, events = events.len());
        self.span_count += 1;
        let mut report = TickReport {
            tick: self.ticks,
            ..TickReport::default()
        };
        let mut touched: Vec<NodeId> = Vec::new();
        let mut departures: Vec<DepartureRec> = Vec::new();
        let mut arrivals = 0usize;
        let counted_before = self.cross_events;
        let solved_before = self.store_work().blocks_solved;

        // Phase 1: structural edits, serial in input order.
        for ev in events {
            match ev {
                WorldEvent::ChunkArrived => arrivals += 1,
                WorldEvent::ChunkRetired(chunk) => {
                    if self.chunks.contains_key(chunk) {
                        self.retire(*chunk, &mut touched, &mut report);
                    } else {
                        report.rejected += 1;
                    }
                }
                WorldEvent::NodeJoined {
                    neighbors,
                    capacity,
                } => match self.net.join_node(neighbors, *capacity) {
                    Ok(node) => report.joined.push(node),
                    Err(_) => report.rejected += 1,
                },
                WorldEvent::NodeDeparted(node) => match self.net.deactivate_node(*node) {
                    Ok(dep) => {
                        touched.push(*node);
                        touched.extend_from_slice(&dep.former_neighbors);
                        for &c in &dep.lost_chunks {
                            if let Some(sc) = self.chunks.get_mut(&c) {
                                if let Ok(at) = sc.caches.binary_search(node) {
                                    sc.caches.remove(at);
                                }
                            }
                        }
                        report.departed.push(*node);
                        departures.push(DepartureRec {
                            node: *node,
                            lost: dep.lost_chunks,
                        });
                    }
                    Err(_) => report.rejected += 1,
                },
                WorldEvent::LinkUp(u, v) => match self.net.add_link(*u, *v) {
                    Ok(true) => {
                        touched.extend([*u, *v]);
                        self.count_halo_link(*u, *v, &report.joined);
                        report.links_added += 1;
                    }
                    Ok(false) => {}
                    Err(_) => report.rejected += 1,
                },
                WorldEvent::LinkDown(u, v) => match self.net.remove_link(*u, *v) {
                    Ok(true) => {
                        touched.extend([*u, *v]);
                        self.count_halo_link(*u, *v, &report.joined);
                        report.links_removed += 1;
                    }
                    Ok(false) => {}
                    Err(_) => report.rejected += 1,
                },
            }
        }

        // Phase 2: scoped-store refresh. A join grows the node table,
        // which the retained partition cannot absorb, so the store
        // re-grows its partition; the newcomers are then adopted.
        if !touched.is_empty() || !report.joined.is_empty() {
            touched.push(self.net.producer());
            touched.sort_unstable();
            touched.dedup();
            self.scoped
                .update(&self.net, &touched, self.parallelism())?;
        }
        if !report.joined.is_empty() {
            self.adopt_joined(&report.joined);
            report.shards_rebuilt = true;
        }

        // Phase 3: churn repair (parallel proposals, serial merge).
        if !departures.is_empty() {
            self.repair(&departures, &mut report)?;
        }

        // Phase 4: arrivals.
        for _ in 0..arrivals {
            let placed = self.place_next_chunk(&mut report)?;
            report.placed.push(placed);
        }

        // Phase 5: one SPT refreshes every live trunk tree after any
        // state change (cheap: live chunks are bounded by retention).
        let dirty_tick = !touched.is_empty()
            || report.shards_rebuilt
            || !report.retired.is_empty()
            || !report.copies_restored.is_empty()
            || !report.placed.is_empty();
        if dirty_tick {
            self.rebuild_trees();
        }

        // Phase 6: telemetry and oracles.
        let applied = events.len() - report.rejected;
        self.events_applied += applied as u64;
        self.events_rejected += report.rejected as u64;
        report.cross_events = self.cross_events - counted_before;
        obs::gauge("world.shard_count").set(self.shard_count() as i64);
        obs::counter("world.cross_shard_events").add(report.cross_events);
        let replicas: usize = self.chunks.values().map(|sc| sc.caches.len()).sum();
        obs::gauge("world.replicas").set(replicas as i64);
        if span.is_recording() {
            span.add_field("applied", obs::Value::from(applied));
            span.add_field("rejected", obs::Value::from(report.rejected));
            span.add_field("cross_events", obs::Value::from(report.cross_events));
            let solved = self.store_work().blocks_solved - solved_before;
            span.add_field("blocks_solved", obs::Value::from(solved));
        }
        drop(span);
        #[cfg(feature = "strict-invariants")]
        self.strict_check();
        Ok(report)
    }

    /// Counts the halo-link notices of a link flip that crosses a
    /// region boundary, one to each side. A node in `joined` has no
    /// region until phase 2 re-grows the partition, which counts its
    /// adoption, so its links count nothing.
    fn count_halo_link(&mut self, u: NodeId, v: NodeId, joined: &[NodeId]) {
        if joined.contains(&u) || joined.contains(&v) {
            return;
        }
        if self.shard_of(u) != self.shard_of(v) {
            self.cross_events += 2;
        }
    }

    /// Retires `chunk`: evicts every copy and drops its rows. The
    /// producer's region owns chunk lifecycle and notifies every other
    /// region.
    fn retire(&mut self, chunk: ChunkId, touched: &mut Vec<NodeId>, report: &mut TickReport) {
        let Some(sc) = self.chunks.remove(&chunk) else {
            return;
        };
        for &holder in &sc.caches {
            self.net.uncache(holder, chunk);
            touched.push(holder);
        }
        self.cross_events += self.shard_count().saturating_sub(1) as u64;
        report.retired.push(chunk);
    }

    /// Adopts each newcomer into its region of the re-grown partition
    /// and gives it a row for every live chunk it wants.
    fn adopt_joined(&mut self, joined: &[NodeId]) {
        self.cross_events += joined.len() as u64;
        let w = self.weights();
        let producer = self.net.producer();
        let (net, scoped) = (&self.net, &self.scoped);
        for (&chunk, sc) in &mut self.chunks {
            for &node in joined {
                if !net.is_interested(node, chunk) {
                    continue;
                }
                let r = scoped.partition().region_of(node);
                let options: Vec<NodeId> = sc
                    .caches
                    .iter()
                    .copied()
                    .filter(|i| scoped.region_cols(r).binary_search(i).is_ok())
                    .collect();
                let (p, c) = best_provider(scoped, w, producer, &options, node, None);
                sc.set_row(node, p, c);
            }
        }
    }

    /// Churn repair: replacement-copy proposals per lost chunk and
    /// reassignment proposals per orphaned row, both computed in
    /// parallel against frozen state and merged serially.
    fn repair(
        &mut self,
        departures: &[DepartureRec],
        report: &mut TickReport,
    ) -> Result<(), CoreError> {
        let producer = self.net.producer();
        let w = self.weights();
        let mut gone: Vec<NodeId> = departures.iter().map(|d| d.node).collect();
        gone.sort_unstable();
        gone.dedup();

        // (a) Orphan collection: rows whose provider departed, per
        // chunk in (region, client) order, the order `propose` sums
        // over. Rows *of* departed clients are dropped outright (their
        // demand vanished with them).
        let mut orphans: BTreeMap<ChunkId, Vec<(NodeId, NodeId)>> = BTreeMap::new();
        let part = self.scoped.partition();
        for (&chunk, sc) in &mut self.chunks {
            sc.rows.retain(|&(j, _, _)| gone.binary_search(&j).is_err());
            let mut orphaned: Vec<(NodeId, NodeId)> = sc
                .rows
                .iter()
                .filter(|&&(_, p, _)| gone.binary_search(&p).is_ok())
                .map(|&(j, p, _)| (j, p))
                .collect();
            if !orphaned.is_empty() {
                orphaned.sort_by_key(|&(j, _)| part.region_of(j));
                orphans.insert(chunk, orphaned);
            }
        }

        // (b) Replacement-copy proposals: one per live chunk that lost
        // a copy *and* has orphaned demand. The candidate scope is the
        // union of the orphans' region balls (demand-side locality);
        // the score is the facility cost plus the orphans' access —
        // pure reads of frozen state, so the fan-out is safe.
        let lost: Vec<ChunkId> = {
            let mut lost: Vec<ChunkId> = departures
                .iter()
                .flat_map(|d| d.lost.iter().copied())
                .filter(|c| self.chunks.contains_key(c) && orphans.contains_key(c))
                .collect();
            lost.sort_unstable();
            lost.dedup();
            lost
        };
        let fc = ConflInstance::facility_costs(&self.net, w);
        let propose = |chunk: ChunkId| -> Option<NodeId> {
            let js: Vec<NodeId> = orphans[&chunk]
                .iter()
                .map(|&(j, _)| j)
                .filter(|&j| self.net.is_active(j))
                .collect();
            let mut candidates: Vec<NodeId> = Vec::new();
            for &j in &js {
                let r = self.scoped.partition().region_of(j);
                candidates.extend_from_slice(self.scoped.region_cols(r));
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut best: Option<(f64, NodeId)> = None;
            for &i in &candidates {
                if !fc[i.index()].is_finite() || self.net.is_cached(i, chunk) {
                    continue;
                }
                let score = fc[i.index()]
                    + js.iter()
                        .map(|&j| w.contention * self.scoped.cost(i, j))
                        .sum::<f64>();
                let better = match best {
                    None => true,
                    Some((b, bi)) => score < b || (crate::costs::cost_tie_eq(score, b) && i < bi),
                };
                if better {
                    best = Some((score, i));
                }
            }
            best.map(|(_, i)| i)
        };
        let proposals = fan_out(&lost, self.parallelism(), |&chunk| propose(chunk));

        // (c) Serial merge in chunk order: re-check capacity (an
        // earlier chunk's commit may have taken the last slot), commit
        // the copy, and count the remote-copy notice when the new
        // holder is homed outside the deciding region (the lowest
        // orphan region — the demand representative).
        let mut dirty: Vec<NodeId> = Vec::new();
        for (&chunk, candidate) in lost.iter().zip(&proposals) {
            let Some(i) = candidate else { continue };
            if self.net.remaining(*i) == 0 || self.net.is_cached(*i, chunk) {
                continue;
            }
            self.net.cache(*i, chunk)?;
            if let Some(sc) = self.chunks.get_mut(&chunk) {
                if let Err(at) = sc.caches.binary_search(i) {
                    sc.caches.insert(at, *i);
                }
            }
            dirty.push(*i);
            report.copies_restored.push((chunk, *i));
            let decider = orphans[&chunk]
                .iter()
                .map(|&(j, _)| self.shard_of(j))
                .min()
                .unwrap_or(self.shard_of(producer));
            if self.shard_of(*i) != decider {
                self.cross_events += 1;
            }
        }
        // (c2) R-copy refill, serial in chunk order (a no-op for the
        // default single-copy policy): every live chunk that lost a
        // copy — orphaned demand or not — is topped back up to the
        // replication degree under the replica-load cap, so durability
        // survives deaths whose audience was served elsewhere.
        let policy = self.cfg.approx.replication;
        if !policy.is_single_copy() {
            let mut deficit: Vec<ChunkId> = departures
                .iter()
                .flat_map(|d| d.lost.iter().copied())
                .filter(|c| self.chunks.contains_key(c))
                .collect();
            deficit.sort_unstable();
            deficit.dedup();
            let decider = self.shard_of(producer);
            for chunk in deficit {
                let holders = self.chunks[&chunk].caches.clone();
                let extra = top_up_targets(
                    &self.net,
                    &holders,
                    &policy,
                    |i| fc[i.index()],
                    |a, b| w.contention * self.scoped.cost(a, b),
                    producer,
                );
                for i in extra {
                    self.net.cache(i, chunk)?;
                    if let Some(sc) = self.chunks.get_mut(&chunk) {
                        if let Err(at) = sc.caches.binary_search(&i) {
                            sc.caches.insert(at, i);
                        }
                    }
                    dirty.push(i);
                    report.copies_restored.push((chunk, i));
                    if self.shard_of(i) != decider {
                        self.cross_events += 1;
                    }
                }
            }
        }
        if !dirty.is_empty() {
            dirty.push(producer);
            dirty.sort_unstable();
            dirty.dedup();
            self.scoped.update(&self.net, &dirty, self.parallelism())?;
        }

        // (d) Orphan reassignment: one pure proposal per orphaned row
        // against the post-repair store, merged in (chunk, client)
        // order. The old provider's region owns the decision; a client
        // homed elsewhere costs a handoff and an assignment notice.
        let mut items: Vec<(ChunkId, NodeId, NodeId)> = Vec::new();
        for (&chunk, rows) in &orphans {
            if !self.chunks.contains_key(&chunk) {
                continue;
            }
            for &(j, old) in rows {
                if self.net.is_active(j) {
                    items.push((chunk, j, old));
                }
            }
        }
        items.sort_unstable_by_key(|&(c, j, _)| (c, j));
        let reassign = |&(chunk, j, _old): &(ChunkId, NodeId, NodeId)| -> (NodeId, f64) {
            let caches = &self.chunks[&chunk].caches;
            let r = self.scoped.partition().region_of(j);
            let options: Vec<NodeId> = caches
                .iter()
                .copied()
                .filter(|i| self.scoped.region_cols(r).binary_search(i).is_ok())
                .collect();
            best_provider(&self.scoped, w, producer, &options, j, None)
        };
        let assignments = fan_out(&items, self.parallelism(), reassign);
        for (&(chunk, j, old), &(p, cost)) in items.iter().zip(&assignments) {
            if self.shard_of(j) != self.shard_of(old) {
                self.cross_events += 2;
            }
            if let Some(sc) = self.chunks.get_mut(&chunk) {
                sc.set_row(j, p, cost);
            }
            report.orphans_reassigned += 1;
        }
        Ok(())
    }

    /// Places the next arriving chunk through the scoped chunk step Hier
    /// runs ([`plan_scoped_chunk`]); the producer's region owns the
    /// decision, so each row and copy homed elsewhere is one notice.
    fn place_next_chunk(&mut self, report: &mut TickReport) -> Result<ChunkId, CoreError> {
        if let Some(cap) = self.retention {
            while self.chunks.len() >= cap {
                let Some(&oldest) = self.chunks.keys().next() else {
                    break;
                };
                let mut touched = Vec::new();
                self.retire(oldest, &mut touched, report);
                if !touched.is_empty() {
                    touched.push(self.net.producer());
                    touched.sort_unstable();
                    touched.dedup();
                    self.scoped
                        .update(&self.net, &touched, self.parallelism())?;
                }
            }
        }
        let chunk = ChunkId::new(self.next_chunk);
        self.next_chunk += 1;
        let mut span = chunk_span("Shard", chunk);
        self.span_count += 1;
        let (cp, access, tree_cost) =
            plan_scoped_chunk(&self.net, &self.scoped, &self.cfg.approx, chunk, &mut span)?;
        for &i in &cp.caches {
            self.net.cache(i, chunk)?;
        }
        let producer = self.net.producer();
        let decider = self.shard_of(producer);
        let remote = cp
            .assignment
            .iter()
            .map(|&(j, _)| j)
            .chain(cp.caches.iter().copied())
            .filter(|&n| self.shard_of(n) != decider)
            .count();
        self.cross_events += remote as u64;
        let mut dirty = cp.caches.clone();
        dirty.push(producer);
        dirty.sort_unstable();
        dirty.dedup();
        span.field("audience", cp.assignment.len());
        finish_chunk_span(span, &cp);
        let sc = ShardChunk {
            rows: cp
                .assignment
                .iter()
                .zip(access)
                .map(|(&(j, p), c)| (j, p, c))
                .collect(),
            caches: cp.caches,
            tree_edges: cp.tree_edges,
            tree_cost,
        };
        self.chunks.insert(chunk, sc);
        self.scoped.update(&self.net, &dirty, self.parallelism())?;
        Ok(chunk)
    }

    /// Rebuilds every live chunk's trunk tree from one producer-rooted
    /// SPT over the current scoped edge costs.
    fn rebuild_trees(&mut self) {
        if self.chunks.is_empty() {
            return;
        }
        let producer = self.net.producer();
        let (_, spt_parent) = dijkstra_edge_weighted(self.net.graph(), producer, |u, v| {
            self.scoped.edge_cost(u, v)
        });
        for sc in self.chunks.values_mut() {
            let (edges, cost) = trunk_tree(&self.scoped, producer, &spt_parent, &sc.caches);
            sc.tree_edges = edges;
            sc.tree_cost = cost;
        }
    }

    /// A deterministic 64-bit digest of the complete world state:
    /// network (activity, capacity, caches, battery), live chunks
    /// (caches, trees, costs), and every row in (region, client, chunk)
    /// order. Bit-for-bit identical states — which the determinism
    /// contract guarantees across thread counts — digest identically.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0x5348_4152_4445_4457u64; // "SHARDEDW"
        let mut mix = |x: u64| {
            h = splitmix64(h ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        };
        mix(self.net.node_count() as u64);
        for u in 0..self.net.node_count() {
            let node = NodeId::new(u);
            mix(u64::from(self.net.is_active(node)));
            mix(self.net.capacity(node) as u64);
            mix(self.net.battery(node).to_bits());
            for &c in self.net.cached_chunks(node) {
                mix((c.index() as u64).wrapping_add(1));
            }
            mix(u64::MAX); // cache-set terminator
        }
        mix(self.chunks.len() as u64);
        for (&chunk, sc) in &self.chunks {
            mix(chunk.index() as u64);
            for &i in &sc.caches {
                mix(i.index() as u64);
            }
            for &(c, p) in &sc.tree_edges {
                mix((c.index() as u64).wrapping_shl(32) | p.index() as u64);
            }
            mix(sc.tree_cost.to_bits());
        }
        let part = self.scoped.partition();
        mix(part.region_count() as u64);
        for r in 0..part.region_count() {
            for &client in part.region(r) {
                for (&chunk, sc) in &self.chunks {
                    if let Ok(at) = sc.rows.binary_search_by_key(&client, |&(j, _, _)| j) {
                        let (_, provider, cost) = sc.rows[at];
                        mix(client.index() as u64);
                        mix(chunk.index() as u64);
                        mix(provider.index() as u64);
                        mix(cost.to_bits());
                    }
                }
            }
            mix(u64::MAX); // region terminator
        }
        h
    }

    /// Structural self-audit: recorded caches are exactly the network's
    /// holders, trees use existing links, each chunk's rows cover
    /// exactly its interested clients in client order with providers
    /// that can serve them, and no node is over capacity.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |msg: String| Err(CoreError::InvalidParameter(msg));
        for (&chunk, sc) in &self.chunks {
            let holders = self.net.holders(chunk);
            if sc.caches != holders {
                return fail(format!(
                    "chunk {chunk} caches {:?} != network holders {holders:?}",
                    sc.caches
                ));
            }
            for &(child, parent) in &sc.tree_edges {
                if !self.net.graph().contains_edge(child, parent) {
                    return fail(format!(
                        "chunk {chunk} tree edge ({child},{parent}) is not a link"
                    ));
                }
            }
            let clients: Vec<NodeId> = sc.rows.iter().map(|&(j, _, _)| j).collect();
            let interested = self.net.interested_clients(chunk);
            if clients != interested {
                return fail(format!(
                    "chunk {chunk} rows cover {clients:?}, interested clients are {interested:?}"
                ));
            }
            for &(j, p, _) in &sc.rows {
                if !self.net.can_serve(p, chunk) {
                    return fail(format!(
                        "client {j} assigned to {p} which cannot serve {chunk}"
                    ));
                }
            }
        }
        for u in 0..self.net.node_count() {
            let node = NodeId::new(u);
            if self.net.used(node) > self.net.capacity(node) {
                return fail(format!("node {node} over capacity"));
            }
        }
        Ok(())
    }

    /// Runtime oracle under `strict-invariants`: the world self-audit
    /// plus a bitwise comparison of the incrementally maintained scoped
    /// store against a from-scratch rebuild of the retained partition.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    #[cfg(feature = "strict-invariants")]
    fn strict_check(&self) {
        if let Err(e) = self.validate() {
            panic!("strict-invariants: sharded world self-audit failed: {e}");
        }
        self.scoped.strict_verify(&self.net);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    fn grid_world(side: usize, cap: usize) -> ShardedWorld {
        let net = Network::new(builders::grid(side, side), NodeId::new(0), cap).unwrap();
        let cfg = ShardConfig {
            approx: ApproxConfig::default(),
            scoped: ScopedConfig {
                region_max: 12,
                halo_hops: 2,
                landmarks: 4,
                seed: 7,
            },
        };
        ShardedWorld::new(net, cfg).unwrap()
    }

    #[test]
    fn shards_cover_every_node_exactly_once() {
        let world = grid_world(8, 3);
        assert!(world.shard_count() > 1);
        let mut seen = vec![false; world.network().node_count()];
        for r in 0..world.shard_count() {
            for &m in world.scoped().partition().region(r) {
                assert!(!seen[m.index()], "node homed twice");
                seen[m.index()] = true;
                assert_eq!(world.shard_of(m), r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn arrival_places_rows_for_every_client() {
        let mut world = grid_world(6, 3);
        let report = world.apply(WorldEvent::ChunkArrived).unwrap();
        assert_eq!(report.placed, vec![ChunkId::new(0)]);
        world.validate().unwrap();
        let rows = world.chunk(ChunkId::new(0)).unwrap().rows.len();
        assert_eq!(rows, world.network().node_count() - 1);
        // Multi-shard worlds count at least some assignments remotely.
        assert!(world.cross_shard_events() > 0);
        let p = world.placement(ChunkId::new(0)).unwrap();
        assert_eq!(p.assignment.len(), rows);
    }

    #[test]
    fn departure_repairs_and_reassigns() {
        let mut world = grid_world(6, 3);
        world.apply(WorldEvent::ChunkArrived).unwrap();
        world.apply(WorldEvent::ChunkArrived).unwrap();
        // Depart a non-producer holder if any, else any client.
        let victim = world
            .chunk(ChunkId::new(0))
            .unwrap()
            .caches
            .first()
            .copied()
            .unwrap_or(NodeId::new(35));
        let report = world.apply(WorldEvent::NodeDeparted(victim)).unwrap();
        assert_eq!(report.departed, vec![victim]);
        world.validate().unwrap();
        // The departed client holds no rows anywhere.
        for chunk in world.live_chunks() {
            let rows = &world.chunk(chunk).unwrap().rows;
            assert!(rows.iter().all(|&(j, _, _)| j != victim));
            assert!(rows.iter().all(|&(_, p, _)| p != victim));
        }
    }

    #[test]
    fn join_rebuilds_shards_and_covers_newcomer() {
        let mut world = grid_world(6, 3);
        world.apply(WorldEvent::ChunkArrived).unwrap();
        let before = world.network().node_count();
        let report = world
            .apply(WorldEvent::NodeJoined {
                neighbors: vec![NodeId::new(1), NodeId::new(2)],
                capacity: 2,
            })
            .unwrap();
        assert!(report.shards_rebuilt);
        assert_eq!(report.joined.len(), 1);
        let newcomer = report.joined[0];
        assert_eq!(newcomer.index(), before);
        world.validate().unwrap();
        // Newcomer has a row for the live chunk.
        let rows = &world.chunk(ChunkId::new(0)).unwrap().rows;
        assert!(rows.iter().any(|&(j, _, _)| j == newcomer));
    }

    /// A node that joined earlier in a batch has no region until phase 2
    /// re-grows the partition, so a batch may link or depart it without
    /// failing; phase 2 counts its adoption and nothing else crosses.
    #[test]
    fn a_batch_can_link_or_depart_the_node_it_joined() {
        let newcomer = NodeId::new(36);
        for second in [
            WorldEvent::LinkUp(newcomer, NodeId::new(30)),
            WorldEvent::NodeDeparted(newcomer),
        ] {
            let mut world = grid_world(6, 3);
            world.apply(WorldEvent::ChunkArrived).unwrap();
            let join = WorldEvent::NodeJoined {
                neighbors: vec![NodeId::new(1), NodeId::new(2)],
                capacity: 2,
            };
            let report = world.tick(&[join, second.clone()]).unwrap();
            assert_eq!(report.joined, vec![newcomer], "{second:?}");
            assert_eq!(report.rejected, 0, "{second:?}");
            assert_eq!(report.cross_events, 1, "{second:?}: the adoption alone");
            world.validate().unwrap();
            let report = world.apply(WorldEvent::ChunkArrived).unwrap();
            assert_eq!(report.rejected, 0, "{second:?}");
            world.validate().unwrap();
        }
    }

    #[test]
    fn retention_evicts_oldest_first() {
        let mut world = grid_world(6, 2).with_retention(2);
        for _ in 0..3 {
            world.apply(WorldEvent::ChunkArrived).unwrap();
        }
        assert_eq!(world.live_chunks(), vec![ChunkId::new(1), ChunkId::new(2)]);
        world.validate().unwrap();
    }

    #[test]
    fn rejected_events_do_not_fail_the_tick() {
        let mut world = grid_world(4, 2);
        let report = world
            .tick(&[
                WorldEvent::ChunkRetired(ChunkId::new(9)),
                WorldEvent::NodeDeparted(NodeId::new(0)), // producer: refused
                WorldEvent::ChunkArrived,
            ])
            .unwrap();
        assert_eq!(report.rejected, 2);
        assert_eq!(report.placed.len(), 1);
        world.validate().unwrap();
    }

    /// Cuts next to the producer leave pairs unreachable inside a
    /// region's ball while the grid stays connected; the scoped store
    /// must answer them from the oracle, not hand the ascent an `∞`.
    #[test]
    fn link_cuts_inside_a_ball_fall_back_to_the_oracle() {
        let net = Network::new(builders::grid(20, 20), NodeId::new(0), 5).unwrap();
        let cfg = ShardConfig {
            approx: ApproxConfig {
                parallelism: Parallelism::Sequential,
                ..ApproxConfig::default()
            },
            scoped: ScopedConfig {
                region_max: 16,
                ..Default::default()
            },
        };
        let mut w = ShardedWorld::new(net, cfg).unwrap().with_retention(3);
        for _ in 0..3 {
            w.apply(WorldEvent::ChunkArrived).unwrap();
        }
        let n = NodeId::new;
        w.tick(&[
            WorldEvent::LinkDown(n(2), n(22)),
            WorldEvent::LinkDown(n(1), n(21)),
            WorldEvent::LinkDown(n(0), n(1)),
            WorldEvent::ChunkArrived,
        ])
        .unwrap();
        w.validate().unwrap();
    }

    #[test]
    fn partition_tolerant_world_refuses_sharding() {
        let mut net = Network::new(builders::grid(4, 4), NodeId::new(0), 2).unwrap();
        net.set_partition_policy(PartitionPolicy::Allow);
        let err = ShardedWorld::new(net, ShardConfig::default())
            .expect_err("Allow-policy network must be rejected");
        assert!(matches!(err, CoreError::InvalidParameter(_)));
    }

    #[test]
    fn digest_is_replay_stable_and_state_sensitive() {
        let run = |par: Parallelism| {
            let net = Network::new(builders::grid(6, 6), NodeId::new(0), 3).unwrap();
            let cfg = ShardConfig {
                approx: ApproxConfig {
                    parallelism: par,
                    ..ApproxConfig::default()
                },
                scoped: ScopedConfig {
                    region_max: 10,
                    halo_hops: 2,
                    landmarks: 4,
                    seed: 7,
                },
            };
            let mut w = ShardedWorld::new(net, cfg).unwrap().with_retention(3);
            for _ in 0..4 {
                w.apply(WorldEvent::ChunkArrived).unwrap();
            }
            w.apply(WorldEvent::NodeDeparted(NodeId::new(35))).unwrap();
            w.apply(WorldEvent::LinkDown(NodeId::new(1), NodeId::new(2)))
                .unwrap();
            (w.state_digest(), w.span_count())
        };
        let a = run(Parallelism::Sequential);
        let b = run(Parallelism::Threads(2));
        let c = run(Parallelism::Auto);
        assert_eq!(a, b, "2 threads diverged from sequential");
        assert_eq!(a, c, "auto threads diverged from sequential");
        // A different trace digests differently.
        let mut w = grid_world(6, 3);
        w.apply(WorldEvent::ChunkArrived).unwrap();
        assert_ne!(a.0, w.state_digest());
    }
}
