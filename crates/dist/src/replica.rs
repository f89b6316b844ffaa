//! Versioned chunk replicas: last-writer-wins updates, anti-entropy,
//! read-repair, and bounded node-startup recovery.
//!
//! The planners decide *where* R copies of a chunk live; this module
//! simulates *what* those copies hold once producers keep writing new
//! versions while nodes die, partitions form, and links flap. Each
//! update carries a [`Version`] — a logical timestamp plus the writer
//! id — and every exchange resolves conflicts by last-writer-wins
//! (higher timestamp wins; equal timestamps break toward the lower
//! writer id, so any two replicas order any two versions identically).
//!
//! Three repair channels keep replicas converging:
//!
//! * **Write-all acknowledgement** ([`ReplicaSim::write`]): a write is
//!   *acked* only when every target replica stored it. The durability
//!   oracle rests on this: an acked version exists on all R copies, so
//!   up to R−1 simultaneous deaths cannot erase it.
//! * **Anti-entropy** ([`ReplicaSim::anti_entropy_round`]): live hosts
//!   of a chunk gossip digests around their ring and pull any newer
//!   version — the typed [`SyncMessage::Digest`]/[`SyncMessage::Repair`]
//!   exchange. Partitioned pairs skip the exchange and catch up after
//!   the heal.
//! * **Read-repair** ([`ReplicaSim::read`]): a read returns the newest
//!   reachable version and opportunistically pushes it to stale
//!   reachable holders.
//!
//! [`ReplicaSim::revive`] models fast node startup: a rejoining node
//! refills each chunk it hosts from the nearest live replica, and the
//! byte counter proves the traffic is O(chunks hosted) — not O(total
//! chunks) — the recovery bound the chaos oracle asserts.
//!
//! Everything is deterministic: iteration orders are ascending, the
//! only state is in `BTreeMap`s, and no randomness is drawn.

use std::collections::BTreeMap;

use peercache_core::ChunkId;
use peercache_graph::NodeId;
use peercache_obs as obs;

/// A logical version: Lamport-style timestamp plus writer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    /// Logical timestamp (monotone per [`ReplicaSim`]).
    pub ts: u64,
    /// The writing node, the last-writer-wins tie-breaker.
    pub writer: NodeId,
}

impl Version {
    /// Last-writer-wins order: higher timestamp wins, ties break toward
    /// the **lower** writer id (a total order, so replicas agree).
    pub fn supersedes(&self, other: &Version) -> bool {
        self.ts > other.ts || (self.ts == other.ts && self.writer < other.writer)
    }
}

/// The typed anti-entropy / read-repair exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMessage {
    /// "Here is the newest version I hold for this chunk."
    Digest {
        /// The advertising node.
        from: NodeId,
        /// The chunk advertised.
        chunk: ChunkId,
        /// Its newest local version.
        version: Version,
    },
    /// "Overwrite your copy with this newer version."
    Repair {
        /// The node pushing the repair.
        from: NodeId,
        /// The chunk repaired.
        chunk: ChunkId,
        /// The superseding version.
        version: Version,
    },
}

/// Outcome of one replicated write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The version assigned to the write.
    pub version: Version,
    /// How many targets stored it.
    pub stored: usize,
    /// Whether every target stored it (write-all acknowledgement).
    pub acked: bool,
}

/// A deterministic replica-state simulator over `n` nodes.
///
/// Reachability is supplied per call as a closure `(from, to) -> bool`
/// so the caller can wire it to the chaos harness's partition/flap
/// state at the current tick.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSim {
    /// Per-node store: chunk → newest version held.
    stores: Vec<BTreeMap<ChunkId, Version>>,
    /// Liveness flags (dead nodes lose their store).
    alive: Vec<bool>,
    /// chunk → host set (sorted): where the R copies are supposed to
    /// live, maintained by [`ReplicaSim::write`] target sets.
    hosts: BTreeMap<ChunkId, Vec<NodeId>>,
    /// chunk → newest *acknowledged* version (the durability ledger).
    acked: BTreeMap<ChunkId, Version>,
    /// Logical clock for version timestamps.
    clock: u64,
    /// Chunks copied by [`ReplicaSim::revive`] calls (1 unit ≙ 1 chunk
    /// payload), the recovery-bound oracle's measure.
    pub recovery_bytes: u64,
    /// Typed message trace of the most recent exchange round.
    last_exchange: Vec<SyncMessage>,
}

impl ReplicaSim {
    /// A simulator over nodes `0..n`, all alive with empty stores.
    pub fn new(n: usize) -> Self {
        ReplicaSim {
            stores: vec![BTreeMap::new(); n],
            alive: vec![true; n],
            hosts: BTreeMap::new(),
            acked: BTreeMap::new(),
            clock: 0,
            recovery_bytes: 0,
            last_exchange: Vec::new(),
        }
    }

    /// Whether a node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// The version a node holds for a chunk, if any.
    pub fn held(&self, node: NodeId, chunk: ChunkId) -> Option<Version> {
        self.stores.get(node.index())?.get(&chunk).copied()
    }

    /// The sorted host set of a chunk (empty if never written).
    pub fn hosts(&self, chunk: ChunkId) -> &[NodeId] {
        self.hosts.get(&chunk).map_or(&[], Vec::as_slice)
    }

    /// The newest acknowledged version per chunk (the durability
    /// ledger the oracle checks against).
    pub fn acked_versions(&self) -> &BTreeMap<ChunkId, Version> {
        &self.acked
    }

    /// The typed messages of the most recent anti-entropy or
    /// read-repair round, in emission order.
    pub fn last_exchange(&self) -> &[SyncMessage] {
        &self.last_exchange
    }

    /// Writes a new version of `chunk` to `targets` (the chunk's R
    /// holders). Only reachable live targets store it; the write is
    /// acked iff **all** targets stored it.
    pub fn write(
        &mut self,
        chunk: ChunkId,
        writer: NodeId,
        targets: &[NodeId],
        reach: impl Fn(NodeId, NodeId) -> bool,
    ) -> WriteOutcome {
        self.clock = self.clock.saturating_add(1);
        let version = Version {
            ts: self.clock,
            writer,
        };
        let mut hosts: Vec<NodeId> = targets.to_vec();
        hosts.sort_unstable();
        hosts.dedup();
        let mut stored = 0;
        for &t in &hosts {
            if self.is_alive(t) && reach(writer, t) {
                self.store(t, chunk, version);
                stored += 1;
            }
        }
        let acked = !hosts.is_empty() && stored == hosts.len();
        if acked {
            self.hosts.insert(chunk, hosts);
            self.acked.insert(chunk, version);
        } else {
            self.hosts.entry(chunk).or_insert(hosts);
        }
        WriteOutcome {
            version,
            stored,
            acked,
        }
    }

    /// Kills a node: it stops participating and its store is lost.
    pub fn kill(&mut self, node: NodeId) {
        if let Some(flag) = self.alive.get_mut(node.index()) {
            *flag = false;
        }
        if let Some(store) = self.stores.get_mut(node.index()) {
            store.clear();
        }
    }

    /// Revives a node with an empty store and refills every chunk it
    /// hosts from the nearest live replica (`distance` orders donors;
    /// ties break to the lower donor id). Returns the number of chunks
    /// recovered; `recovery_bytes` grows by the same amount — i.e. the
    /// traffic is bounded by the number of chunks the node hosts.
    pub fn revive(
        &mut self,
        node: NodeId,
        reach: impl Fn(NodeId, NodeId) -> bool,
        distance: impl Fn(NodeId, NodeId) -> u64,
    ) -> u64 {
        if let Some(flag) = self.alive.get_mut(node.index()) {
            *flag = true;
        }
        if let Some(store) = self.stores.get_mut(node.index()) {
            store.clear();
        }
        let hosted: Vec<ChunkId> = self
            .hosts
            .iter()
            .filter(|(_, hs)| hs.binary_search(&node).is_ok())
            .map(|(&c, _)| c)
            .collect();
        let mut recovered = 0;
        for chunk in hosted {
            // Nearest live holder of the chunk (not the reviving node).
            let mut donor: Option<(u64, NodeId, Version)> = None;
            for &h in self.hosts.get(&chunk).map_or(&[][..], Vec::as_slice) {
                if h == node || !self.is_alive(h) || !reach(h, node) {
                    continue;
                }
                let Some(v) = self.held(h, chunk) else {
                    continue;
                };
                let d = distance(h, node);
                let better = match donor {
                    None => true,
                    Some((bd, bh, _)) => d < bd || (d == bd && h < bh),
                };
                if better {
                    donor = Some((d, h, v));
                }
            }
            if let Some((_, _, v)) = donor {
                self.store(node, chunk, v);
                recovered += 1;
            }
        }
        self.recovery_bytes = self.recovery_bytes.saturating_add(recovered);
        if obs::enabled() {
            obs::counter("repair.recovery_bytes").add(recovered);
        }
        recovered
    }

    /// One anti-entropy round: for every chunk, its live hosts gossip
    /// digests around the (sorted) host ring; a host holding a newer
    /// version pushes a repair to its ring successor when the pair is
    /// mutually reachable. Returns the number of repairs applied.
    pub fn anti_entropy_round(&mut self, reach: impl Fn(NodeId, NodeId) -> bool) -> usize {
        self.last_exchange.clear();
        let chunks: Vec<ChunkId> = self.hosts.keys().copied().collect();
        let mut repairs = 0;
        for chunk in chunks {
            let ring: Vec<NodeId> = self
                .hosts
                .get(&chunk)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .copied()
                .filter(|&h| self.is_alive(h))
                .collect();
            if ring.len() < 2 {
                continue;
            }
            for (i, &a) in ring.iter().enumerate() {
                let &b = ring.get((i + 1) % ring.len()).unwrap_or(&a);
                if a == b || !reach(a, b) || !reach(b, a) {
                    continue;
                }
                let va = self.held(a, chunk);
                let vb = self.held(b, chunk);
                if let Some(v) = va {
                    self.last_exchange.push(SyncMessage::Digest {
                        from: a,
                        chunk,
                        version: v,
                    });
                }
                match (va, vb) {
                    (Some(va), Some(vb)) if va.supersedes(&vb) => {
                        self.last_exchange.push(SyncMessage::Repair {
                            from: a,
                            chunk,
                            version: va,
                        });
                        self.store(b, chunk, va);
                        repairs += 1;
                    }
                    (Some(va), None) => {
                        self.last_exchange.push(SyncMessage::Repair {
                            from: a,
                            chunk,
                            version: va,
                        });
                        self.store(b, chunk, va);
                        repairs += 1;
                    }
                    (None, Some(vb)) | (Some(_), Some(vb)) => {
                        // Pull direction: b answers with its (newer or
                        // equal) digest; a adopts if strictly newer.
                        self.last_exchange.push(SyncMessage::Digest {
                            from: b,
                            chunk,
                            version: vb,
                        });
                        let stale = self.held(a, chunk).is_none_or(|va| vb.supersedes(&va));
                        if stale {
                            self.last_exchange.push(SyncMessage::Repair {
                                from: b,
                                chunk,
                                version: vb,
                            });
                            self.store(a, chunk, vb);
                            repairs += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        if obs::enabled() && repairs > 0 {
            obs::counter("dist.replica.anti_entropy").add(repairs as u64);
        }
        repairs
    }

    /// Reads `chunk` from `client`'s perspective: returns the newest
    /// version among reachable live holders and read-repairs stale
    /// reachable holders to it.
    pub fn read(
        &mut self,
        chunk: ChunkId,
        client: NodeId,
        reach: impl Fn(NodeId, NodeId) -> bool,
    ) -> Option<Version> {
        self.last_exchange.clear();
        let holders: Vec<NodeId> = self
            .hosts
            .get(&chunk)
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
            .filter(|&h| self.is_alive(h) && reach(client, h) && reach(h, client))
            .collect();
        let mut newest: Option<Version> = None;
        for &h in &holders {
            if let Some(v) = self.held(h, chunk) {
                self.last_exchange.push(SyncMessage::Digest {
                    from: h,
                    chunk,
                    version: v,
                });
                if newest.is_none_or(|n| v.supersedes(&n)) {
                    newest = Some(v);
                }
            }
        }
        let winner = newest?;
        let mut repaired = 0;
        for &h in &holders {
            let stale = self.held(h, chunk).is_none_or(|v| winner.supersedes(&v));
            if stale {
                self.last_exchange.push(SyncMessage::Repair {
                    from: client,
                    chunk,
                    version: winner,
                });
                self.store(h, chunk, winner);
                repaired += 1;
            }
        }
        if obs::enabled() && repaired > 0 {
            obs::counter("dist.replica.read_repair").add(repaired);
        }
        Some(winner)
    }

    /// Whether every chunk's live holders agree on a single version.
    pub fn converged(&self) -> bool {
        self.hosts.iter().all(|(&chunk, hs)| {
            let versions: Vec<Version> = hs
                .iter()
                .filter(|&&h| self.is_alive(h))
                .filter_map(|&h| self.held(h, chunk))
                .collect();
            versions.windows(2).all(|w| match w {
                [a, b] => a == b,
                _ => true,
            })
        })
    }

    /// Acked writes with **no** surviving copy: chunks whose newest
    /// acknowledged version is newer than everything any live node
    /// holds. Empty ⇔ the durability oracle passes.
    pub fn lost_acked_writes(&self) -> Vec<(ChunkId, Version)> {
        self.acked
            .iter()
            .filter(|&(&chunk, acked)| {
                !self.stores.iter().enumerate().any(|(i, store)| {
                    self.alive.get(i).copied().unwrap_or(false)
                        && store
                            .get(&chunk)
                            .is_some_and(|held| !acked.supersedes(held))
                })
            })
            .map(|(&c, &v)| (c, v))
            .collect()
    }

    /// A deterministic digest of every live store, for replay equality
    /// checks (`0` only for an all-empty simulator).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (i, store) in self.stores.iter().enumerate() {
            if !self.alive.get(i).copied().unwrap_or(false) {
                continue;
            }
            mix(i as u64);
            for (c, v) in store {
                mix(c.index() as u64);
                mix(v.ts);
                mix(v.writer.index() as u64);
            }
        }
        h
    }

    /// The logical clock — handy for callers aligning
    /// [`Tick`](crate::engine::Tick)-based schedules with version
    /// timestamps.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    fn store(&mut self, node: NodeId, chunk: ChunkId, version: Version) {
        if let Some(store) = self.stores.get_mut(node.index()) {
            let newer = store
                .get(&chunk)
                .is_none_or(|held| version.supersedes(held));
            if newer {
                store.insert(chunk, version);
            }
        }
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

    fn all_reach(_: NodeId, _: NodeId) -> bool {
        true
    }

    fn hop(a: NodeId, b: NodeId) -> u64 {
        a.index().abs_diff(b.index()) as u64
    }

    #[test]
    fn lww_orders_totally_with_lower_writer_winning_ties() {
        let a = Version {
            ts: 5,
            writer: n(2),
        };
        let b = Version {
            ts: 5,
            writer: n(7),
        };
        let newer = Version {
            ts: 6,
            writer: n(9),
        };
        assert!(a.supersedes(&b));
        assert!(!b.supersedes(&a));
        assert!(newer.supersedes(&a) && newer.supersedes(&b));
        assert!(!a.supersedes(&a), "a version never supersedes itself");
    }

    #[test]
    fn write_all_ack_requires_every_target() {
        let mut sim = ReplicaSim::new(5);
        let out = sim.write(c(0), n(0), &[n(1), n(2), n(3)], all_reach);
        assert!(out.acked);
        assert_eq!(out.stored, 3);
        assert_eq!(sim.hosts(c(0)), &[n(1), n(2), n(3)]);
        // One target unreachable -> stored on two, NOT acked.
        let out2 = sim.write(c(1), n(0), &[n(1), n(2), n(3)], |_, to| to != n(3));
        assert!(!out2.acked);
        assert_eq!(out2.stored, 2);
        assert!(sim.acked_versions().get(&c(1)).is_none());
    }

    #[test]
    fn acked_writes_survive_r_minus_one_deaths() {
        let mut sim = ReplicaSim::new(6);
        sim.write(c(0), n(0), &[n(1), n(2), n(3)], all_reach);
        sim.write(c(1), n(0), &[n(2), n(3), n(4)], all_reach);
        // Kill 2 of the 3 holders of each chunk (R - 1 = 2).
        sim.kill(n(2));
        sim.kill(n(3));
        assert!(sim.lost_acked_writes().is_empty());
        // Killing the last holder of chunk 0 loses it.
        sim.kill(n(1));
        let lost = sim.lost_acked_writes();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].0, c(0));
    }

    #[test]
    fn anti_entropy_converges_divergent_replicas() {
        let mut sim = ReplicaSim::new(4);
        sim.write(c(0), n(0), &[n(1), n(2), n(3)], all_reach);
        // A second write reaches only n(1): divergence.
        let out = sim.write(c(0), n(0), &[n(1), n(2), n(3)], |_, to| to == n(1));
        assert!(!out.acked);
        assert!(!sim.converged());
        let repairs = sim.anti_entropy_round(all_reach);
        assert!(repairs > 0);
        assert!(sim.converged());
        for h in [n(1), n(2), n(3)] {
            assert_eq!(sim.held(h, c(0)), Some(out.version));
        }
        // The exchange is typed: digests precede the repairs they cause.
        assert!(sim
            .last_exchange()
            .iter()
            .any(|m| matches!(m, SyncMessage::Repair { .. })));
        // Idempotent once converged.
        assert_eq!(sim.anti_entropy_round(all_reach), 0);
    }

    #[test]
    fn anti_entropy_respects_partitions_then_heals() {
        let mut sim = ReplicaSim::new(4);
        sim.write(c(0), n(0), &[n(1), n(2), n(3)], all_reach);
        sim.write(c(0), n(0), &[n(1), n(2), n(3)], |_, to| to == n(1));
        // n(1) is cut off: its newer version cannot propagate.
        let partitioned = |a: NodeId, b: NodeId| a != n(1) && b != n(1);
        sim.anti_entropy_round(partitioned);
        assert!(!sim.converged());
        // Heal: one round suffices for a 3-ring.
        sim.anti_entropy_round(all_reach);
        assert!(sim.converged());
    }

    #[test]
    fn read_repair_pushes_the_newest_version_to_stale_holders() {
        let mut sim = ReplicaSim::new(5);
        sim.write(c(0), n(0), &[n(1), n(2), n(3)], all_reach);
        let out = sim.write(c(0), n(4), &[n(1), n(2), n(3)], |_, to| to == n(2));
        let got = sim.read(c(0), n(0), all_reach);
        assert_eq!(got, Some(out.version));
        assert!(sim.converged(), "read repaired every stale holder");
        let repairs = sim
            .last_exchange()
            .iter()
            .filter(|m| matches!(m, SyncMessage::Repair { .. }))
            .count();
        assert_eq!(repairs, 2);
    }

    #[test]
    fn revive_refills_from_the_nearest_live_replica_within_bound() {
        let mut sim = ReplicaSim::new(6);
        // n(3) hosts chunks 0 and 1; chunk 2 lives elsewhere.
        sim.write(c(0), n(0), &[n(1), n(3), n(5)], all_reach);
        sim.write(c(1), n(0), &[n(2), n(3), n(4)], all_reach);
        sim.write(c(2), n(0), &[n(1), n(2), n(5)], all_reach);
        sim.kill(n(3));
        assert_eq!(sim.held(n(3), c(0)), None);
        let before = sim.recovery_bytes;
        let recovered = sim.revive(n(3), all_reach, hop);
        // Exactly the chunks n(3) hosts - the O(chunks hosted) bound.
        assert_eq!(recovered, 2);
        assert_eq!(sim.recovery_bytes - before, 2);
        assert!(sim.held(n(3), c(0)).is_some());
        assert!(sim.held(n(3), c(1)).is_some());
        assert_eq!(sim.held(n(3), c(2)), None, "non-hosted chunk not pulled");
        assert!(sim.lost_acked_writes().is_empty());
    }

    #[test]
    fn digest_replays_identically_and_tracks_divergence() {
        let run = || {
            let mut sim = ReplicaSim::new(5);
            sim.write(c(0), n(0), &[n(1), n(2)], all_reach);
            sim.write(c(1), n(3), &[n(2), n(4)], all_reach);
            sim.kill(n(4));
            sim.revive(n(4), all_reach, hop);
            sim.anti_entropy_round(all_reach);
            sim.digest()
        };
        assert_eq!(run(), run());
        let mut other = ReplicaSim::new(5);
        other.write(c(0), n(0), &[n(1), n(2)], all_reach);
        assert_ne!(run(), other.digest());
    }
}
