//! Shard-local state of the region-sharded world: the placement arena,
//! the per-shard event inbox, and the typed cross-shard channel.
//!
//! A [`WorldShard`](crate::sharded::ShardedWorld) owns exactly one
//! region of the scoped store's
//! [`RegionPartition`](peercache_graph::regions::RegionPartition) —
//! shard `r` *is* region `r`. All per-client placement rows of the
//! shard's members live in a [`PlacementArena`]: a slot per member plus
//! one intrusive cell pool, so churn reuses freed cells instead of
//! reallocating per event (the shard/arena idiom).
//!
//! **Mutation discipline.** Arena state may only be mutated through
//! `WorldShard::arena_mut` (by the shard that owns the decision) or
//! `WorldShard::apply_cross` (when another shard's decision arrives
//! as a routed [`CrossShardEvent`]). Both identifiers are fenced by
//! lint rule R1 to `core/src/shard.rs` and `core/src/sharded.rs`, so
//! no other call site in the workspace can mutate a shard's state
//! behind the router's back — which is what makes the deterministic
//! shard-order merge a complete account of inter-shard effects.

use peercache_graph::NodeId;

use crate::ChunkId;

/// Sentinel for "no cell" in the arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// An effect one shard's decision has on another shard's state, routed
/// through the [`ShardRouter`] and applied in deterministic
/// `(shard, sequence)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossShardEvent {
    /// A link crossing this shard's halo came up (`up`) or went down:
    /// the shard's exact-cost ball may have changed shape. Informational
    /// — the scoped store rebuild is centralized — but counted, so the
    /// cross-shard traffic a distributed deployment would pay is
    /// observable.
    HaloLink {
        /// One endpoint of the link.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// `true` for link-up, `false` for link-down.
        up: bool,
    },
    /// A provider homed in the sending shard departed; the named client
    /// (homed here) lost its row and a replacement [`CrossShardEvent::Assign`]
    /// follows under the same drain.
    OrphanHandoff {
        /// The chunk whose row is orphaned.
        chunk: ChunkId,
        /// The client that lost its provider.
        client: NodeId,
    },
    /// Write (or overwrite) one placement row of a client homed in this
    /// shard, decided by another shard (arrival planning, churn repair).
    Assign {
        /// The chunk being assigned.
        chunk: ChunkId,
        /// The client receiving the row.
        client: NodeId,
        /// The serving provider.
        provider: NodeId,
        /// Access cost of the row, as `f64::to_bits` (bitwise state, so
        /// replay equality is exact).
        cost_bits: u64,
    },
    /// A replica of `chunk` was committed onto `node`, which is homed
    /// in this shard, by another shard's planning or repair decision.
    RemoteCopy {
        /// The chunk that was copied.
        chunk: ChunkId,
        /// The node now caching it.
        node: NodeId,
    },
    /// Drop every row of `chunk` (retirement decided elsewhere).
    Retire {
        /// The retired chunk.
        chunk: ChunkId,
    },
    /// A newcomer was homed into this shard by the partition rebuild.
    Adopt {
        /// The adopted node.
        node: NodeId,
    },
}

/// One placement row stored in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaRow {
    /// The client the row belongs to.
    pub client: NodeId,
    /// The chunk.
    pub chunk: ChunkId,
    /// The provider serving `client` for `chunk`.
    pub provider: NodeId,
    /// Access cost at the time the row was written (`f64::to_bits`).
    /// Deliberately *not* rewritten when unrelated contention moves —
    /// rows refresh when their chunk is planned, repaired, or handed
    /// off, which keeps replay byte-exact and bounded.
    pub cost_bits: u64,
}

/// One cell of the arena's intrusive per-client chunk lists.
#[derive(Debug, Clone, Copy)]
struct Cell {
    chunk: ChunkId,
    provider: NodeId,
    cost_bits: u64,
    /// Next cell of the same client's list (ascending chunk order), or
    /// the next free cell when on the free list.
    next: u32,
}

/// Arena-backed placement rows for one shard's members: a slot (list
/// head) per member, all cells pooled in one `Vec` with a free list.
///
/// Lists are kept in ascending chunk order, members are sorted, so
/// iteration order — and therefore every digest and merge fold over
/// the arena — is deterministic regardless of the mutation history.
#[derive(Debug, Clone)]
pub struct PlacementArena {
    /// Shard members, sorted ascending.
    members: Vec<NodeId>,
    /// Head cell per member (parallel to `members`), [`NIL`] when empty.
    heads: Vec<u32>,
    /// The shared cell pool.
    cells: Vec<Cell>,
    /// Free-list head into `cells`.
    free: u32,
    /// Live rows.
    live: usize,
    /// Cached copies pinned per member (parallel to `members`): the
    /// shard-local replica-load counter the replication fairness cap
    /// and the load Gini read without a network scan. Maintained by
    /// the sharded world at every copy commit/evict; a distributed
    /// deployment would piggyback these pins on the RemoteCopy /
    /// Retire traffic that is already routed and counted.
    replica_load: Vec<u32>,
}

impl PlacementArena {
    /// Creates an empty arena for the given (sorted) member list.
    pub fn new(members: Vec<NodeId>) -> PlacementArena {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let heads = vec![NIL; members.len()];
        let replica_load = vec![0u32; members.len()];
        PlacementArena {
            members,
            heads,
            cells: Vec::new(),
            free: NIL,
            live: 0,
            replica_load,
        }
    }

    /// Cached copies currently pinned on `member`; zero for
    /// non-members.
    pub fn replica_load(&self, member: NodeId) -> u32 {
        self.slot_of(member)
            .map_or(0, |slot| self.replica_load[slot])
    }

    /// Pins one cached copy on `member`. Returns `false` (and drops the
    /// pin) for a non-member.
    pub fn pin_replica(&mut self, member: NodeId) -> bool {
        let Some(slot) = self.slot_of(member) else {
            return false;
        };
        self.replica_load[slot] = self.replica_load[slot].saturating_add(1);
        true
    }

    /// Unpins one cached copy from `member` (saturating). Returns
    /// `false` for a non-member.
    pub fn unpin_replica(&mut self, member: NodeId) -> bool {
        let Some(slot) = self.slot_of(member) else {
            return false;
        };
        self.replica_load[slot] = self.replica_load[slot].saturating_sub(1);
        true
    }

    /// Zeroes `member`'s pins (the node departed with every copy it
    /// hosted).
    pub fn clear_replicas(&mut self, member: NodeId) {
        if let Some(slot) = self.slot_of(member) {
            self.replica_load[slot] = 0;
        }
    }

    /// The shard members this arena holds slots for.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn slot_of(&self, client: NodeId) -> Option<usize> {
        self.members.binary_search(&client).ok()
    }

    fn alloc(&mut self, cell: Cell) -> u32 {
        if self.free == NIL {
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.cells[at as usize].next;
            self.cells[at as usize] = cell;
            at
        }
    }

    /// The row for `(client, chunk)`, if present.
    pub fn get(&self, client: NodeId, chunk: ChunkId) -> Option<ArenaRow> {
        let slot = self.slot_of(client)?;
        let mut at = self.heads[slot];
        while at != NIL {
            let c = &self.cells[at as usize];
            if c.chunk == chunk {
                return Some(ArenaRow {
                    client,
                    chunk,
                    provider: c.provider,
                    cost_bits: c.cost_bits,
                });
            }
            if c.chunk > chunk {
                return None;
            }
            at = c.next;
        }
        None
    }

    /// Inserts or overwrites the row for `(client, chunk)`; returns
    /// `true` when the row is new, `false` for an unknown client (not a
    /// member — the write is dropped) or an overwrite.
    pub fn set(
        &mut self,
        client: NodeId,
        chunk: ChunkId,
        provider: NodeId,
        cost_bits: u64,
    ) -> bool {
        let Some(slot) = self.slot_of(client) else {
            return false;
        };
        // Walk to the insertion point, keeping the list chunk-ascending.
        let mut prev = NIL;
        let mut at = self.heads[slot];
        while at != NIL && self.cells[at as usize].chunk < chunk {
            prev = at;
            at = self.cells[at as usize].next;
        }
        if at != NIL && self.cells[at as usize].chunk == chunk {
            self.cells[at as usize].provider = provider;
            self.cells[at as usize].cost_bits = cost_bits;
            return false;
        }
        let cell = self.alloc(Cell {
            chunk,
            provider,
            cost_bits,
            next: at,
        });
        if prev == NIL {
            self.heads[slot] = cell;
        } else {
            self.cells[prev as usize].next = cell;
        }
        self.live += 1;
        true
    }

    /// Removes the row for `(client, chunk)`; returns whether it
    /// existed.
    pub fn remove(&mut self, client: NodeId, chunk: ChunkId) -> bool {
        let Some(slot) = self.slot_of(client) else {
            return false;
        };
        let mut prev = NIL;
        let mut at = self.heads[slot];
        while at != NIL {
            let c = self.cells[at as usize];
            if c.chunk == chunk {
                if prev == NIL {
                    self.heads[slot] = c.next;
                } else {
                    self.cells[prev as usize].next = c.next;
                }
                self.cells[at as usize].next = self.free;
                self.free = at;
                self.live -= 1;
                return true;
            }
            if c.chunk > chunk {
                return false;
            }
            prev = at;
            at = c.next;
        }
        false
    }

    /// Removes every row of `chunk` across all slots; returns how many.
    pub fn remove_chunk(&mut self, chunk: ChunkId) -> usize {
        let mut removed = 0usize;
        for slot in 0..self.members.len() {
            let mut prev = NIL;
            let mut at = self.heads[slot];
            while at != NIL {
                let c = self.cells[at as usize];
                if c.chunk == chunk {
                    if prev == NIL {
                        self.heads[slot] = c.next;
                    } else {
                        self.cells[prev as usize].next = c.next;
                    }
                    self.cells[at as usize].next = self.free;
                    self.free = at;
                    self.live -= 1;
                    removed += 1;
                    break; // at most one row per (client, chunk)
                }
                if c.chunk > chunk {
                    break;
                }
                prev = at;
                at = c.next;
            }
        }
        removed
    }

    /// Frees every row of `client` (its demand vanished); returns how
    /// many rows were dropped.
    pub fn clear_client(&mut self, client: NodeId) -> usize {
        let Some(slot) = self.slot_of(client) else {
            return 0;
        };
        let mut dropped = 0usize;
        let mut at = self.heads[slot];
        while at != NIL {
            let next = self.cells[at as usize].next;
            self.cells[at as usize].next = self.free;
            self.free = at;
            self.live -= 1;
            dropped += 1;
            at = next;
        }
        self.heads[slot] = NIL;
        dropped
    }

    /// All live rows in `(member, chunk)` ascending order — the
    /// deterministic fold order of digests and audits.
    pub fn rows(&self) -> Vec<ArenaRow> {
        let mut out = Vec::with_capacity(self.live);
        for (slot, &client) in self.members.iter().enumerate() {
            let mut at = self.heads[slot];
            while at != NIL {
                let c = &self.cells[at as usize];
                out.push(ArenaRow {
                    client,
                    chunk: c.chunk,
                    provider: c.provider,
                    cost_bits: c.cost_bits,
                });
                at = c.next;
            }
        }
        out
    }
}

/// One shard of the region-sharded world: a region's members, their
/// placement arena, and the inbox cross-shard events are drained into.
#[derive(Debug, Clone)]
pub struct WorldShard {
    id: u32,
    arena: PlacementArena,
    inbox: Vec<CrossShardEvent>,
    received: u64,
}

impl WorldShard {
    /// Creates the shard for region `id` over the given (sorted)
    /// member list.
    pub fn new(id: u32, members: Vec<NodeId>) -> WorldShard {
        WorldShard {
            id,
            arena: PlacementArena::new(members),
            inbox: Vec::new(),
            received: 0,
        }
    }

    /// The shard's region index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's members (sorted ascending).
    pub fn members(&self) -> &[NodeId] {
        self.arena.members()
    }

    /// Read access to the placement arena.
    pub fn arena(&self) -> &PlacementArena {
        &self.arena
    }

    /// Mutable access to the arena — the shard-owner mutation path,
    /// fenced by lint rule R1 to this module and the world that drives
    /// it.
    pub(crate) fn arena_mut(&mut self) -> &mut PlacementArena {
        &mut self.arena
    }

    /// Queues a routed event for this shard (router delivery).
    pub(crate) fn enqueue(&mut self, ev: CrossShardEvent) {
        self.inbox.push(ev);
    }

    /// Events currently queued and not yet applied.
    pub fn queue_depth(&self) -> usize {
        self.inbox.len()
    }

    /// Cross-shard events applied to this shard over its lifetime.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Drains the inbox, applying every queued event in arrival
    /// (sequence) order; returns how many were applied.
    pub(crate) fn drain_inbox(&mut self) -> usize {
        let events = std::mem::take(&mut self.inbox);
        let applied = events.len();
        for ev in events {
            self.apply_cross(ev);
        }
        applied
    }

    /// Applies one routed event to the shard's state. The only
    /// mutation path besides the owner's `arena_mut` (lint rule R1).
    pub(crate) fn apply_cross(&mut self, ev: CrossShardEvent) {
        self.received += 1;
        match ev {
            // Informational: shape/ownership changes are centralized in
            // the scoped store and the partition rebuild; the event
            // records the traffic a distributed deployment would pay.
            CrossShardEvent::HaloLink { .. }
            | CrossShardEvent::RemoteCopy { .. }
            | CrossShardEvent::Adopt { .. } => {}
            CrossShardEvent::OrphanHandoff { chunk, client } => {
                self.arena.remove(client, chunk);
            }
            CrossShardEvent::Assign {
                chunk,
                client,
                provider,
                cost_bits,
            } => {
                self.arena.set(client, chunk, provider, cost_bits);
            }
            CrossShardEvent::Retire { chunk } => {
                self.arena.remove_chunk(chunk);
            }
        }
    }
}

/// The typed cross-shard channel: decisions made while one shard's
/// state is authoritative send their remote effects here, and the
/// world drains everything in ascending `(shard, sequence)` order at
/// fixed pipeline points — so any thread count observes the same
/// delivery order.
#[derive(Debug, Clone, Default)]
pub struct ShardRouter {
    pending: Vec<(u32, u64, CrossShardEvent)>,
    seq: u64,
    routed: u64,
}

impl ShardRouter {
    /// Creates an empty router.
    pub fn new() -> ShardRouter {
        ShardRouter::default()
    }

    /// Routes `ev` to shard `to`. Send order is captured by a global
    /// sequence number; all sends happen in serial merge phases, so the
    /// sequence — and therefore delivery order — is deterministic.
    pub(crate) fn send(&mut self, to: u32, ev: CrossShardEvent) {
        self.pending.push((to, self.seq, ev));
        self.seq += 1;
        self.routed += 1;
    }

    /// Events routed over the router's lifetime.
    pub fn total_routed(&self) -> u64 {
        self.routed
    }

    /// Events queued and not yet delivered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Delivers every pending event into its target shard's inbox in
    /// ascending `(shard, sequence)` order; returns how many were
    /// delivered. Events addressed to a shard index outside `shards`
    /// cannot exist (targets come from the same partition).
    pub(crate) fn flush(&mut self, shards: &mut [WorldShard]) -> usize {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by_key(|&(to, seq, _)| (to, seq));
        let delivered = pending.len();
        for (to, _, ev) in pending {
            shards[to as usize].enqueue(ev);
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn c(i: usize) -> ChunkId {
        ChunkId::new(i)
    }

    #[test]
    fn arena_set_get_remove_roundtrip() {
        let mut a = PlacementArena::new(vec![n(2), n(5), n(9)]);
        assert!(a.set(n(5), c(1), n(2), 7));
        assert!(a.set(n(5), c(0), n(9), 3));
        assert!(a.set(n(2), c(1), n(5), 4));
        // Overwrite is not an insert.
        assert!(!a.set(n(5), c(1), n(9), 8));
        assert_eq!(a.len(), 3);
        // Non-members are rejected.
        assert!(!a.set(n(3), c(0), n(2), 1));
        let row = a.get(n(5), c(1)).unwrap();
        assert_eq!((row.provider, row.cost_bits), (n(9), 8));
        assert!(a.remove(n(5), c(0)));
        assert!(!a.remove(n(5), c(0)));
        assert_eq!(a.len(), 2);
        assert!(a.get(n(5), c(0)).is_none());
    }

    #[test]
    fn arena_rows_come_back_in_member_then_chunk_order() {
        let mut a = PlacementArena::new(vec![n(1), n(4)]);
        a.set(n(4), c(2), n(1), 0);
        a.set(n(1), c(1), n(4), 0);
        a.set(n(4), c(0), n(1), 0);
        a.set(n(1), c(3), n(4), 0);
        let order: Vec<(NodeId, ChunkId)> = a.rows().iter().map(|r| (r.client, r.chunk)).collect();
        assert_eq!(
            order,
            vec![(n(1), c(1)), (n(1), c(3)), (n(4), c(0)), (n(4), c(2))]
        );
    }

    #[test]
    fn arena_reuses_freed_cells() {
        let mut a = PlacementArena::new(vec![n(0), n(1)]);
        for i in 0..4 {
            a.set(n(0), c(i), n(1), 0);
        }
        assert_eq!(a.cells.len(), 4);
        assert_eq!(a.clear_client(n(0)), 4);
        assert!(a.is_empty());
        for i in 0..4 {
            a.set(n(1), c(i), n(0), 0);
        }
        // Churn reuses the freed cells instead of growing the pool.
        assert_eq!(a.cells.len(), 4);
        assert_eq!(a.remove_chunk(c(2)), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn router_delivers_in_shard_then_sequence_order() {
        let mut shards = vec![
            WorldShard::new(0, vec![n(0)]),
            WorldShard::new(1, vec![n(1)]),
        ];
        let mut router = ShardRouter::new();
        router.send(1, CrossShardEvent::Adopt { node: n(1) });
        router.send(
            0,
            CrossShardEvent::Assign {
                chunk: c(0),
                client: n(0),
                provider: n(1),
                cost_bits: 5,
            },
        );
        router.send(
            0,
            CrossShardEvent::OrphanHandoff {
                chunk: c(0),
                client: n(0),
            },
        );
        assert_eq!(router.pending(), 3);
        assert_eq!(router.flush(&mut shards), 3);
        assert_eq!(router.total_routed(), 3);
        assert_eq!(shards[0].queue_depth(), 2);
        assert_eq!(shards[1].queue_depth(), 1);
        // Assign then the later handoff: the row ends up removed.
        assert_eq!(shards[0].drain_inbox(), 2);
        assert!(shards[0].arena().get(n(0), c(0)).is_none());
        assert_eq!(shards[0].received(), 2);
        assert_eq!(shards[1].drain_inbox(), 1);
        assert_eq!(shards[1].arena().len(), 0);
    }
}
