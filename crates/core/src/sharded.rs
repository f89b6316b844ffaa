//! The region-sharded world: [`CacheWorld`](crate::CacheWorld)'s
//! churn semantics re-hosted on shard-local state with deterministic
//! cross-shard event routing — the concurrency refactor every later
//! throughput number stands on.
//!
//! # Architecture
//!
//! Shard `r` *is* region `r` of the scoped store's
//! [`RegionPartition`](peercache_graph::regions::RegionPartition):
//! every node is homed in exactly one shard, and all of its placement
//! rows live in that shard's [`PlacementArena`](crate::shard::PlacementArena). A tick consumes a
//! batch of [`WorldEvent`]s through a fixed pipeline:
//!
//! 1. **Structural edits** — serial, in input order (joins, departures,
//!    link flips, retirements). Per-event rejections (e.g. a departure
//!    the Reject partition policy refuses) are counted, not fatal.
//! 2. **Scoped refresh** — [`ScopedContention::update_topology`]
//!    rebuilds exactly the stale blocks, fanned out over the
//!    configured [`Parallelism`]; a join (new node id) forces a full
//!    partition + shard rebuild instead.
//! 3. **Churn repair** — replacement-copy and orphan-reassignment
//!    *proposals* are computed in parallel against the frozen post-
//!    refresh state (slot-array fan-out, one pure task per item), then
//!    merged serially in ascending item order with capacity re-checks.
//! 4. **Arrivals** — each new chunk runs the hierarchical planning
//!    pipeline (per-region dual ascent fans out in parallel inside
//!    `ascend_regions`).
//! 5. **Tree rebuild** — one producer-rooted SPT refreshes every live
//!    chunk's trunk dissemination tree.
//! 6. **Telemetry + oracles** — per-shard gauges, the tick span, and
//!    (under `strict-invariants`) a full self-audit.
//!
//! # Determinism
//!
//! Every parallel stage computes proposals into pre-indexed slots and
//! is merged in a fixed order; cross-shard effects travel only through
//! the [`ShardRouter`] and are drained in ascending `(shard, seq)`
//! order at fixed pipeline points. No stage reads ambient time, thread
//! ids, or iteration order of unordered containers, so **any thread
//! count produces bit-for-bit the same state** — `state_digest` and
//! the span count are replay-stable across `Parallelism` settings, and
//! the determinism suite (`tests/shard_world.rs`) pins exactly that.

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
    ascend_regions, assign_and_prune, best_provider, facilities_by_region,
    improve_by_scoped_removal, trunk_tree, ScopedConfig, ScopedContention,
};
use crate::shard::{ArenaRow, CrossShardEvent, ShardRouter, WorldShard};
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
    /// shards themselves).
    pub scoped: ScopedConfig,
}

/// A live chunk's shard-world record. Per-client assignment rows live
/// in the shards' arenas, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChunk {
    /// Nodes caching the chunk, sorted ascending.
    pub caches: Vec<NodeId>,
    /// Trunk dissemination tree as `(child, parent)` pairs, ascending
    /// child order.
    pub tree_edges: Vec<(NodeId, NodeId)>,
    /// Summed edge cost of the trunk tree (unweighted; multiply by the
    /// dissemination weight for the objective term).
    pub tree_cost: f64,
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
    /// Cross-shard events routed during this tick.
    pub cross_events: u64,
    /// Whether a join forced a full partition + shard rebuild.
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
    shards: Vec<WorldShard>,
    /// Home shard per node id (parallel to the node table).
    shard_of: Vec<u32>,
    router: ShardRouter,
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
    /// High-water inbox depth observed at the most recent drain.
    max_queue_depth: usize,
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
        let (shards, shard_of) = shards_of(&scoped);
        obs::gauge("world.shard_count").set(shards.len() as i64);
        Ok(ShardedWorld {
            net,
            cfg,
            scoped,
            shards,
            shard_of,
            router: ShardRouter::new(),
            chunks: BTreeMap::new(),
            next_chunk: 0,
            retention: None,
            ticks: 0,
            events_applied: 0,
            events_rejected: 0,
            span_count: 0,
            max_queue_depth: 0,
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

    /// The shards, in region order.
    pub fn shards(&self) -> &[WorldShard] {
        &self.shards
    }

    /// Number of shards (== regions of the current partition).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
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

    /// Cross-shard events routed over the world's lifetime.
    pub fn cross_shard_events(&self) -> u64 {
        self.router.total_routed()
    }

    /// Deterministic span count (one per tick, one per placed chunk),
    /// identical across thread counts for the same event trace.
    pub fn span_count(&self) -> u64 {
        self.span_count
    }

    fn parallelism(&self) -> Parallelism {
        self.cfg.approx.parallelism
    }

    fn weights(&self) -> CostWeights {
        self.cfg.approx.weights
    }

    /// Reconstructs a [`ChunkPlacement`] view of one live chunk from
    /// the shard state (assignment rows gathered from the arenas in
    /// client order).
    pub fn placement(&self, chunk: ChunkId) -> Option<ChunkPlacement> {
        let sc = self.chunks.get(&chunk)?;
        let mut assignment: Vec<(NodeId, NodeId)> = Vec::new();
        let mut access = 0.0f64;
        for shard in &self.shards {
            for row in shard.arena().rows() {
                if row.chunk == chunk {
                    assignment.push((row.client, row.provider));
                    access += f64::from_bits(row.cost_bits);
                }
            }
        }
        assignment.sort_unstable_by_key(|&(j, _)| j);
        let w = self.weights();
        let fairness: f64 = sc
            .caches
            .iter()
            .map(|&i| self.net.fairness_cost(i) * w.fairness)
            .sum();
        Some(ChunkPlacement {
            chunk,
            caches: sc.caches.clone(),
            assignment,
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
        let routed_before = self.router.total_routed();

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
                        let home = self.shard_of[node.index()] as usize;
                        self.shards[home].arena_mut().clear_replicas(*node);
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
                        self.route_halo_link(*u, *v, true);
                        report.links_added += 1;
                    }
                    Ok(false) => {}
                    Err(_) => report.rejected += 1,
                },
                WorldEvent::LinkDown(u, v) => match self.net.remove_link(*u, *v) {
                    Ok(true) => {
                        touched.extend([*u, *v]);
                        self.route_halo_link(*u, *v, false);
                        report.links_removed += 1;
                    }
                    Ok(false) => {}
                    Err(_) => report.rejected += 1,
                },
            }
        }
        self.drain_cross();

        // Phase 2: scoped-store refresh. A join grows the node table,
        // which the retained partition cannot absorb — rebuild the
        // partition, the shards, and every arena under the new homes.
        if !report.joined.is_empty() {
            self.rebuild_after_join(&report.joined)?;
            report.shards_rebuilt = true;
            self.drain_cross();
        } else if !touched.is_empty() {
            touched.push(self.net.producer());
            touched.sort_unstable();
            touched.dedup();
            self.scoped
                .update_topology(&self.net, &touched, self.parallelism())?;
        }

        // Phase 3: churn repair (parallel proposals, serial merge).
        if !departures.is_empty() {
            self.repair(&departures, &mut report)?;
            self.drain_cross();
        }

        // Phase 4: arrivals.
        for _ in 0..arrivals {
            let placed = self.place_next_chunk(&mut report)?;
            report.placed.push(placed);
        }
        self.drain_cross();

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
        report.cross_events = self.router.total_routed() - routed_before;
        obs::gauge("world.shard_count").set(self.shards.len() as i64);
        obs::counter("world.cross_shard_events").add(report.cross_events);
        let replicas: usize = self.chunks.values().map(|sc| sc.caches.len()).sum();
        obs::gauge("world.replicas").set(replicas as i64);
        obs::gauge("shard.queue_depth").set(self.max_queue_depth as i64);
        self.max_queue_depth = 0;
        if span.is_recording() {
            span.add_field("applied", obs::Value::from(applied));
            span.add_field("rejected", obs::Value::from(report.rejected));
            span.add_field("cross_events", obs::Value::from(report.cross_events));
        }
        drop(span);
        #[cfg(feature = "strict-invariants")]
        self.strict_check();
        Ok(report)
    }

    /// Routes the halo-link notification to both endpoint shards when
    /// the link crosses a shard boundary.
    fn route_halo_link(&mut self, u: NodeId, v: NodeId, up: bool) {
        let (su, sv) = (self.shard_of[u.index()], self.shard_of[v.index()]);
        if su != sv {
            self.router.send(su, CrossShardEvent::HaloLink { u, v, up });
            self.router.send(sv, CrossShardEvent::HaloLink { u, v, up });
        }
    }

    /// Retires `chunk`: evicts every copy, drops all assignment rows.
    /// The producer's home shard owns chunk lifecycle; rows elsewhere
    /// are dropped through routed [`CrossShardEvent::Retire`] events.
    fn retire(&mut self, chunk: ChunkId, touched: &mut Vec<NodeId>, report: &mut TickReport) {
        let Some(sc) = self.chunks.remove(&chunk) else {
            return;
        };
        for &holder in &sc.caches {
            self.net.uncache(holder, chunk);
            let home = self.shard_of[holder.index()] as usize;
            self.shards[home].arena_mut().unpin_replica(holder);
            touched.push(holder);
        }
        let owner = self.shard_of[self.net.producer().index()];
        for s in 0..self.shards.len() as u32 {
            if s == owner {
                self.shards[s as usize].arena_mut().remove_chunk(chunk);
            } else {
                self.router.send(s, CrossShardEvent::Retire { chunk });
            }
        }
        report.retired.push(chunk);
    }

    /// Delivers pending router traffic and drains every inbox in
    /// ascending shard order, tracking the high-water queue depth.
    fn drain_cross(&mut self) {
        if self.router.pending() == 0 {
            return;
        }
        self.router.flush(&mut self.shards);
        for shard in &mut self.shards {
            self.max_queue_depth = self.max_queue_depth.max(shard.queue_depth());
            shard.drain_inbox();
        }
    }

    /// Full rebuild after a join: the node table grew, so the
    /// partition, the shards, and every arena row are re-homed; the
    /// newcomers get assignment rows for every live chunk.
    fn rebuild_after_join(&mut self, joined: &[NodeId]) -> Result<(), CoreError> {
        self.scoped = ScopedContention::new(
            &self.net,
            self.cfg.scoped,
            self.cfg.approx.selection,
            self.parallelism(),
        )?;
        // Carry every live row across the re-homing. Clients are unique
        // across shards, so concatenation in shard order is a
        // deterministic, disjoint union.
        let mut rows: Vec<ArenaRow> = Vec::new();
        for shard in &self.shards {
            rows.extend(shard.arena().rows());
        }
        let (shards, shard_of) = shards_of(&self.scoped);
        self.shards = shards;
        self.shard_of = shard_of;
        for row in rows {
            let home = self.shard_of[row.client.index()] as usize;
            self.shards[home]
                .arena_mut()
                .set(row.client, row.chunk, row.provider, row.cost_bits);
        }
        // The fresh arenas start with zero replica pins; re-pin every
        // live copy under the new homes.
        for sc in self.chunks.values() {
            for &holder in &sc.caches {
                let home = self.shard_of[holder.index()] as usize;
                self.shards[home].arena_mut().pin_replica(holder);
            }
        }
        // Adoption notices + rows for the newcomers' demand. The
        // newcomer's home shard owns the adoption; its rows are local
        // writes there.
        let w = self.weights();
        let producer = self.net.producer();
        for &node in joined {
            let home = self.shard_of[node.index()];
            self.router.send(home, CrossShardEvent::Adopt { node });
        }
        let live: Vec<ChunkId> = self.chunks.keys().copied().collect();
        for chunk in live {
            let caches = self.chunks[&chunk].caches.clone();
            for &node in joined {
                if !self.net.is_interested(node, chunk) {
                    continue;
                }
                let r = self.scoped.partition().region_of(node);
                let options: Vec<NodeId> = caches
                    .iter()
                    .copied()
                    .filter(|i| self.scoped.region_cols(r).binary_search(i).is_ok())
                    .collect();
                let (p, c) = best_provider(&self.scoped, w, producer, &options, node, None);
                let home = self.shard_of[node.index()] as usize;
                self.shards[home]
                    .arena_mut()
                    .set(node, chunk, p, c.to_bits());
            }
        }
        Ok(())
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

        // (a) Orphan collection: rows whose provider departed, scanned
        // in shard/slot order; rows *of* departed clients are cleared
        // outright (their demand vanished with them).
        let mut orphans: BTreeMap<ChunkId, Vec<(NodeId, NodeId)>> = BTreeMap::new();
        for shard in &self.shards {
            for row in shard.arena().rows() {
                if gone.binary_search(&row.client).is_ok() {
                    continue;
                }
                if gone.binary_search(&row.provider).is_ok() {
                    orphans
                        .entry(row.chunk)
                        .or_default()
                        .push((row.client, row.provider));
                }
            }
        }
        for &d in &gone {
            let home = self.shard_of[d.index()] as usize;
            self.shards[home].arena_mut().clear_client(d);
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
        // the copy, and route the remote-copy notice when the new
        // holder is homed outside the deciding shard (the lowest
        // orphan's home — the demand representative).
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
            let home = self.shard_of[i.index()] as usize;
            self.shards[home].arena_mut().pin_replica(*i);
            dirty.push(*i);
            report.copies_restored.push((chunk, *i));
            let decider = orphans[&chunk]
                .iter()
                .map(|&(j, _)| self.shard_of[j.index()])
                .min()
                .unwrap_or(self.shard_of[producer.index()]);
            let holder_home = self.shard_of[i.index()];
            if holder_home != decider {
                self.router
                    .send(holder_home, CrossShardEvent::RemoteCopy { chunk, node: *i });
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
            let decider = self.shard_of[producer.index()];
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
                    let home = self.shard_of[i.index()];
                    self.shards[home as usize].arena_mut().pin_replica(i);
                    dirty.push(i);
                    report.copies_restored.push((chunk, i));
                    if home != decider {
                        self.router
                            .send(home, CrossShardEvent::RemoteCopy { chunk, node: i });
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
        // order. The old provider's home shard owns the decision; rows
        // of clients homed elsewhere travel as OrphanHandoff + Assign.
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
        let reassign = |&(chunk, j, _old): &(ChunkId, NodeId, NodeId)| -> (NodeId, u64) {
            let caches = &self.chunks[&chunk].caches;
            let r = self.scoped.partition().region_of(j);
            let options: Vec<NodeId> = caches
                .iter()
                .copied()
                .filter(|i| self.scoped.region_cols(r).binary_search(i).is_ok())
                .collect();
            let (p, c) = best_provider(&self.scoped, w, producer, &options, j, None);
            (p, c.to_bits())
        };
        let assignments = fan_out(&items, self.parallelism(), reassign);
        for (&(chunk, j, old), &(p, cost_bits)) in items.iter().zip(&assignments) {
            let decider = self.shard_of[old.index()];
            let home = self.shard_of[j.index()];
            if home == decider {
                self.shards[home as usize]
                    .arena_mut()
                    .set(j, chunk, p, cost_bits);
            } else {
                self.router
                    .send(home, CrossShardEvent::OrphanHandoff { chunk, client: j });
                self.router.send(
                    home,
                    CrossShardEvent::Assign {
                        chunk,
                        client: j,
                        provider: p,
                        cost_bits,
                    },
                );
            }
            report.orphans_reassigned += 1;
        }
        Ok(())
    }

    /// Places the next arriving chunk through the hierarchical
    /// pipeline; the producer's home shard owns the decision, so rows
    /// and copies homed elsewhere travel as Assign / RemoteCopy events.
    fn place_next_chunk(&mut self, report: &mut TickReport) -> Result<ChunkId, CoreError> {
        if let Some(cap) = self.retention {
            while self.chunks.len() >= cap {
                let Some(&oldest) = self.chunks.keys().next() else {
                    break;
                };
                let mut touched = Vec::new();
                self.retire(oldest, &mut touched, report);
                self.drain_cross();
                if !touched.is_empty() {
                    touched.push(self.net.producer());
                    touched.sort_unstable();
                    touched.dedup();
                    self.scoped
                        .update_topology(&self.net, &touched, self.parallelism())?;
                }
            }
        }
        let chunk = ChunkId::new(self.next_chunk);
        self.next_chunk += 1;
        let mut span = chunk_span("Shard", chunk);
        self.span_count += 1;
        let producer = self.net.producer();
        let w = self.weights();
        let regions = self.scoped.partition().region_count();
        let fc = ConflInstance::facility_costs(&self.net, w);
        let audience = self.net.interested_clients(chunk);
        let mut by_region: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
        for &j in &audience {
            by_region[self.scoped.partition().region_of(j)].push(j);
        }
        let busy: Vec<usize> = (0..regions).filter(|&r| !by_region[r].is_empty()).collect();
        let opened = ascend_regions(
            &self.scoped,
            &fc,
            producer,
            w,
            &self.cfg.approx,
            &by_region,
            &busy,
            self.parallelism(),
        )?;
        let mut facilities: Vec<NodeId> = opened.into_iter().flatten().collect();
        facilities.sort_unstable();
        facilities.dedup();
        let (mut current, mut providers, mut costs) =
            assign_and_prune(&self.scoped, &fc, producer, w, &audience, facilities);
        let (_, spt_parent) = dijkstra_edge_weighted(self.net.graph(), producer, |u, v| {
            self.scoped.edge_cost(u, v)
        });
        improve_by_scoped_removal(
            &self.scoped,
            &fc,
            producer,
            w,
            &audience,
            &spt_parent,
            &mut current,
            &mut providers,
            &mut costs,
        );
        // R-copy durability floor (a no-op for the default single-copy
        // policy): top the pruned set up to the replication degree
        // under the replica-load cap, then re-derive providers so a
        // client may be served by a replica inside its region's demand
        // ball. The trunk tree unions the SPT paths of all R copies.
        let extra = top_up_targets(
            &self.net,
            &current,
            &self.cfg.approx.replication,
            |i| fc[i.index()],
            |a, b| w.contention * self.scoped.cost(a, b),
            producer,
        );
        if !extra.is_empty() {
            current.extend(extra);
            current.sort_unstable();
            let by_ball = facilities_by_region(&self.scoped, &current);
            for (idx, &j) in audience.iter().enumerate() {
                let options = &by_ball[self.scoped.partition().region_of(j)];
                let (p, c) = best_provider(&self.scoped, w, producer, options, j, None);
                providers[idx] = p;
                costs[idx] = c;
            }
        }
        let (tree_edges, tree_cost) = trunk_tree(&self.scoped, producer, &spt_parent, &current);
        for &i in &current {
            self.net.cache(i, chunk)?;
            let home = self.shard_of[i.index()] as usize;
            self.shards[home].arena_mut().pin_replica(i);
        }
        // Commit rows and copies, shard by shard: the producer's home
        // shard writes locally, everything else goes over the router.
        let decider = self.shard_of[producer.index()];
        for (&j, (&p, &cost)) in audience.iter().zip(providers.iter().zip(&costs)) {
            let home = self.shard_of[j.index()];
            if home == decider {
                self.shards[home as usize]
                    .arena_mut()
                    .set(j, chunk, p, cost.to_bits());
            } else {
                self.router.send(
                    home,
                    CrossShardEvent::Assign {
                        chunk,
                        client: j,
                        provider: p,
                        cost_bits: cost.to_bits(),
                    },
                );
            }
        }
        for &i in &current {
            let home = self.shard_of[i.index()];
            if home != decider {
                self.router
                    .send(home, CrossShardEvent::RemoteCopy { chunk, node: i });
            }
        }
        let mut dirty = current.clone();
        dirty.push(producer);
        dirty.sort_unstable();
        dirty.dedup();
        let sc = ShardChunk {
            caches: current,
            tree_edges,
            tree_cost,
        };
        if span.is_recording() {
            span.add_field("caches", obs::Value::from(sc.caches.len()));
            span.add_field("audience", obs::Value::from(audience.len()));
        }
        let cp = ChunkPlacement {
            chunk,
            caches: sc.caches.clone(),
            assignment: Vec::new(),
            tree_edges: sc.tree_edges.clone(),
            costs: SetCosts {
                fairness: sc.caches.iter().map(|&i| fc[i.index()]).sum(),
                access: costs.iter().sum(),
                dissemination: w.dissemination * sc.tree_cost,
            },
        };
        finish_chunk_span(span, &cp);
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
    /// (caches, trees, costs), and every arena row in shard/slot/chunk
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
        mix(self.shards.len() as u64);
        for shard in &self.shards {
            for row in shard.arena().rows() {
                mix(row.client.index() as u64);
                mix(row.chunk.index() as u64);
                mix(row.provider.index() as u64);
                mix(row.cost_bits);
            }
            mix(u64::MAX); // shard terminator
        }
        h
    }

    /// Structural self-audit: recorded caches are exactly the network's
    /// holders, every interested client of every live chunk has exactly
    /// one arena row homed in its shard pointing at a provider that can
    /// serve it, trees use existing links and reach the producer, no
    /// arena holds rows for foreign clients, and the shard map matches
    /// the partition.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] describing the first violation.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |msg: String| Err(CoreError::InvalidParameter(msg));
        // Shard map mirrors the partition; members partition the nodes.
        if self.shards.len() != self.scoped.partition().region_count() {
            return fail("shard count diverged from the region count".into());
        }
        for (r, shard) in self.shards.iter().enumerate() {
            if shard.members() != self.scoped.partition().region(r) {
                return fail(format!("shard {r} members diverged from region {r}"));
            }
            for &m in shard.members() {
                if self.shard_of[m.index()] as usize != r {
                    return fail(format!("node {m} home-shard index diverged"));
                }
            }
        }
        // Chunk records match the network's holder sets.
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
        }
        // Arena rows: every row well-formed, every interested client
        // covered exactly once, in its home shard.
        let live: Vec<ChunkId> = self.chunks.keys().copied().collect();
        let mut seen: BTreeMap<(ChunkId, NodeId), NodeId> = BTreeMap::new();
        for (s, shard) in self.shards.iter().enumerate() {
            for row in shard.arena().rows() {
                if self.shard_of[row.client.index()] as usize != s {
                    return fail(format!(
                        "row for client {} homed in wrong shard",
                        row.client
                    ));
                }
                if !self.net.is_active(row.client) {
                    return fail(format!("row for inactive client {}", row.client));
                }
                if live.binary_search(&row.chunk).is_err() {
                    return fail(format!("row for dead chunk {}", row.chunk));
                }
                if !self.net.can_serve(row.provider, row.chunk) {
                    return fail(format!(
                        "client {} assigned to {} which cannot serve {}",
                        row.client, row.provider, row.chunk
                    ));
                }
                if seen.insert((row.chunk, row.client), row.provider).is_some() {
                    return fail(format!(
                        "duplicate row for client {} chunk {}",
                        row.client, row.chunk
                    ));
                }
            }
        }
        for &chunk in &live {
            for j in self.net.interested_clients(chunk) {
                if !seen.contains_key(&(chunk, j)) {
                    return fail(format!("client {j} has no row for live chunk {chunk}"));
                }
            }
        }
        // Capacity.
        for u in 0..self.net.node_count() {
            let node = NodeId::new(u);
            if self.net.used(node) > self.net.capacity(node) {
                return fail(format!("node {node} over capacity"));
            }
        }
        // Replica-load pins mirror the live copies each member hosts.
        let mut hosted = vec![0u32; self.net.node_count()];
        for sc in self.chunks.values() {
            for &holder in &sc.caches {
                hosted[holder.index()] += 1;
            }
        }
        for shard in &self.shards {
            for &m in shard.members() {
                let pinned = shard.arena().replica_load(m);
                if pinned != hosted[m.index()] {
                    return fail(format!(
                        "node {m} replica pins {pinned} != live copies hosted {}",
                        hosted[m.index()]
                    ));
                }
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

/// Builds the shard set (shard `r` == region `r`) and the node → shard
/// map from the scoped store's partition.
fn shards_of(scoped: &ScopedContention) -> (Vec<WorldShard>, Vec<u32>) {
    let p = scoped.partition();
    let mut shards = Vec::with_capacity(p.region_count());
    let mut shard_of = Vec::new();
    for r in 0..p.region_count() {
        shards.push(WorldShard::new(r as u32, p.region(r).to_vec()));
    }
    let n: usize = (0..p.region_count()).map(|r| p.region(r).len()).sum();
    shard_of.resize(n, 0u32);
    for (r, shard) in shards.iter().enumerate() {
        for &m in shard.members() {
            shard_of[m.index()] = r as u32;
        }
    }
    (shards, shard_of)
}

/// Runs `task` over `items` with slot-array fan-out: results land in
/// pre-indexed slots, so the merge order is the item order no matter
/// how threads are scheduled. `task` must be a pure function of frozen
/// state.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    parallelism: Parallelism,
    task: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = parallelism.threads(items.len().max(1));
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    if threads <= 1 || items.len() <= 1 {
        for (slot, item) in slots.iter_mut().zip(items) {
            *slot = Some(obs::with_quiet(|| task(item)));
        }
    } else {
        let per = items.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (chunk, part) in slots.chunks_mut(per).zip(items.chunks(per)) {
                let task = &task;
                s.spawn(move || {
                    for (slot, item) in chunk.iter_mut().zip(part) {
                        *slot = Some(obs::with_quiet(|| task(item)));
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every fan-out slot is filled"))
        .collect()
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
        for shard in world.shards() {
            for &m in shard.members() {
                assert!(!seen[m.index()], "node homed twice");
                seen[m.index()] = true;
                assert_eq!(world.shard_of(m), shard.id() as usize);
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
        let rows: usize = world.shards().iter().map(|s| s.arena().len()).sum();
        assert_eq!(rows, world.network().node_count() - 1);
        // Multi-shard worlds route at least some assignments remotely.
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
        for shard in world.shards() {
            assert!(shard.arena().rows().iter().all(|r| r.client != victim));
            assert!(shard.arena().rows().iter().all(|r| r.provider != victim));
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
        let home = world.shard_of(newcomer);
        assert!(world.shards()[home]
            .arena()
            .get(newcomer, ChunkId::new(0))
            .is_some());
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
