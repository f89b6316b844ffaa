//! SWIM-style failure detection: ping / ping-req / suspect / confirm.
//!
//! The world layer previously learned about node deaths by fiat — a
//! scripted [`crate::chaos::FaultPlan::death`] entry flipped the node
//! off and the planner repaired around it. Real edge deployments have
//! no such oracle: nodes must *detect* death through lost probes, and
//! naive timeout detectors confuse a lossy link with a dead peer. This
//! module implements the SWIM detector (Das et al., DSN'02) over the
//! same deliver-closure transport the chaos harness drives:
//!
//! 1. Each protocol period every live member probes one peer, chosen
//!    by a per-member shuffled ring (round-robin with reshuffle, the
//!    SWIM rule that bounds worst-case first-detection time).
//! 2. A failed direct probe triggers `ping_req_fanout` indirect probes
//!    through other members, so a single flapping or grey link cannot
//!    produce a false positive by itself.
//! 3. Only when the direct and all indirect probes fail is the target
//!    marked **Suspect** — not dead. A suspect that answers any later
//!    probe is refuted and returns to Alive with a bumped incarnation
//!    (SWIM's refutation counter, so stale suspicion never outranks
//!    fresh liveness).
//! 4. A suspicion that survives [`SwimConfig::suspect_timeout`] ticks
//!    is **Confirmed**: terminal, and surfaced through
//!    [`Swim::take_confirmed`] for the caller to translate into the
//!    world's `NodeDeparted` machinery.
//!
//! Everything is deterministic for a given [`SwimConfig::seed`]: ring
//! shuffles come from one ChaCha8 stream, probers run in ascending id
//! order, and the transport closure is the only source of outcome
//! variation — replaying the same fault trace replays the same
//! membership history byte for byte.

use std::collections::BTreeMap;

use peercache_graph::NodeId;
use peercache_obs as obs;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::Tick;

/// Tuning knobs of the SWIM detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwimConfig {
    /// Ticks between protocol periods (every live member sends one
    /// direct probe per period).
    pub ping_period: Tick,
    /// Ticks a member may stay Suspect before it is Confirmed dead.
    pub suspect_timeout: Tick,
    /// Number of indirect probes relayed through other members after a
    /// failed direct probe.
    pub ping_req_fanout: usize,
    /// Seed of the ring-shuffle RNG stream.
    pub seed: u64,
}

impl Default for SwimConfig {
    fn default() -> Self {
        SwimConfig {
            ping_period: 4,
            suspect_timeout: 16,
            ping_req_fanout: 2,
            seed: 0x5717,
        }
    }
}

impl SwimConfig {
    /// Whether the parameters are usable (nonzero periods).
    pub fn is_valid(&self) -> bool {
        self.ping_period >= 1 && self.suspect_timeout >= 1
    }
}

/// Detector state of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Answering probes; `incarnation` counts refutations survived.
    Alive {
        /// Refutation counter: bumped each time suspicion is refuted.
        incarnation: u64,
    },
    /// Missed a direct and all indirect probes; pending confirmation.
    Suspect {
        /// Incarnation at suspicion time.
        incarnation: u64,
        /// Tick the suspicion was raised.
        since: Tick,
    },
    /// Declared dead (terminal).
    Confirmed {
        /// Tick of the confirmation.
        at: Tick,
    },
}

/// What a membership event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEventKind {
    /// A member entered the Suspect state.
    Suspected,
    /// A suspected member answered a probe and returned to Alive.
    Refuted,
    /// A suspicion timed out; the member is Confirmed dead.
    Confirmed,
}

/// One entry of the membership history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Tick of the transition.
    pub tick: Tick,
    /// The member whose state changed.
    pub node: NodeId,
    /// The transition.
    pub kind: MembershipEventKind,
}

/// The deterministic SWIM detector over a fixed member set.
///
/// The transport is a caller-supplied closure `(now, from, to) ->
/// bool`: whether a single one-way message from `from` to `to` gets
/// through at tick `now`. A probe is a round trip (two calls), an
/// indirect probe is four; wiring the closure to
/// [`crate::chaos::ChaosState::reachable`] plus grey-node draws makes
/// the detector see exactly the faults the protocol sees.
#[derive(Debug, Clone)]
pub struct Swim {
    cfg: SwimConfig,
    members: Vec<NodeId>,
    states: BTreeMap<NodeId, MemberState>,
    /// Per-member shuffled probe ring and cursor (SWIM's round-robin
    /// target selection), indexed like `members`.
    rings: Vec<(Vec<NodeId>, usize)>,
    rng: ChaCha8Rng,
    events: Vec<MembershipEvent>,
    /// Confirmations not yet drained by [`Swim::take_confirmed`].
    pending_confirmed: Vec<NodeId>,
}

impl Swim {
    /// A detector over `members`, all initially Alive at incarnation 0.
    pub fn new(members: impl IntoIterator<Item = NodeId>, cfg: SwimConfig) -> Self {
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        let states = members
            .iter()
            .map(|&n| (n, MemberState::Alive { incarnation: 0 }))
            .collect();
        let rings = members.iter().map(|_| (Vec::new(), 0)).collect();
        Swim {
            cfg,
            members,
            states,
            rings,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            events: Vec::new(),
            pending_confirmed: Vec::new(),
        }
    }

    /// The member set, ascending.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Current state of a member (`None` for a stranger).
    pub fn state(&self, node: NodeId) -> Option<MemberState> {
        self.states.get(&node).copied()
    }

    /// Whether a member is not (yet) Confirmed dead.
    pub fn is_live(&self, node: NodeId) -> bool {
        !matches!(
            self.states.get(&node),
            None | Some(MemberState::Confirmed { .. })
        )
    }

    /// The full membership history so far.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Drains the members confirmed dead since the last drain — the
    /// hook the world layer turns into `NodeDeparted` events.
    pub fn take_confirmed(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pending_confirmed)
    }

    /// Advances the detector to `now`, probing when a protocol period
    /// boundary is hit and expiring suspicions every tick.
    ///
    /// `deliver(now, from, to)` reports one-way message success.
    pub fn tick(&mut self, now: Tick, deliver: &mut impl FnMut(Tick, NodeId, NodeId) -> bool) {
        if self.cfg.is_valid() && now.is_multiple_of(self.cfg.ping_period) {
            self.probe_round(now, deliver);
        }
        self.expire_suspicions(now);
    }

    /// One protocol period: every live member probes its next ring
    /// target, in ascending prober id (the deterministic schedule).
    fn probe_round(&mut self, now: Tick, deliver: &mut impl FnMut(Tick, NodeId, NodeId) -> bool) {
        for slot in 0..self.members.len() {
            let Some(&prober) = self.members.get(slot) else {
                continue;
            };
            if !self.is_live(prober) {
                continue;
            }
            let Some(target) = self.next_target(slot, prober) else {
                continue;
            };
            self.probe(now, prober, target, deliver);
        }
    }

    /// The next probe target from `prober`'s ring, reshuffling when the
    /// ring is exhausted; skips dead members and the prober itself.
    fn next_target(&mut self, slot: usize, prober: NodeId) -> Option<NodeId> {
        // One reshuffle attempt plus a full scan of the fresh ring is
        // enough: if no live non-self member exists, give up.
        for _ in 0..2 {
            let refill = match self.rings.get(slot) {
                Some((ring, cursor)) => *cursor >= ring.len(),
                None => return None,
            };
            if refill {
                let mut ring: Vec<NodeId> = self
                    .members
                    .iter()
                    .copied()
                    .filter(|&n| n != prober && self.is_live(n))
                    .collect();
                // Fisher–Yates off the shared seeded stream; probers
                // run in a fixed order, so draws are deterministic.
                for i in (1..ring.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    ring.swap(i, j);
                }
                if let Some(entry) = self.rings.get_mut(slot) {
                    *entry = (ring, 0);
                }
            }
            if let Some((ring, cursor)) = self.rings.get_mut(slot) {
                while let Some(&candidate) = ring.get(*cursor) {
                    *cursor += 1;
                    if candidate != prober
                        && !matches!(
                            self.states.get(&candidate),
                            None | Some(MemberState::Confirmed { .. })
                        )
                    {
                        return Some(candidate);
                    }
                }
            }
        }
        None
    }

    /// One probe: direct round trip, then `ping_req_fanout` indirect
    /// round trips on failure; updates the target's state.
    fn probe(
        &mut self,
        now: Tick,
        prober: NodeId,
        target: NodeId,
        deliver: &mut impl FnMut(Tick, NodeId, NodeId) -> bool,
    ) {
        if obs::enabled() {
            obs::counter("dist.swim.ping").incr();
        }
        let mut answered = deliver(now, prober, target) && deliver(now, target, prober);
        if !answered {
            for proxy in self.proxies(prober, target) {
                // ping-req: prober → proxy → target → proxy → prober.
                if deliver(now, prober, proxy)
                    && deliver(now, proxy, target)
                    && deliver(now, target, proxy)
                    && deliver(now, proxy, prober)
                {
                    answered = true;
                    break;
                }
            }
        }
        match (answered, self.states.get(&target).copied()) {
            (true, Some(MemberState::Suspect { incarnation, .. })) => {
                // Refutation: the suspect proved liveness, so it rejoins
                // with a higher incarnation that outranks the suspicion.
                self.states.insert(
                    target,
                    MemberState::Alive {
                        incarnation: incarnation.saturating_add(1),
                    },
                );
                self.push_event(now, target, MembershipEventKind::Refuted);
                if obs::enabled() {
                    obs::counter("dist.swim.refute").incr();
                }
            }
            (false, Some(MemberState::Alive { incarnation })) => {
                self.states.insert(
                    target,
                    MemberState::Suspect {
                        incarnation,
                        since: now,
                    },
                );
                self.push_event(now, target, MembershipEventKind::Suspected);
                if obs::enabled() {
                    obs::counter("dist.swim.suspect").incr();
                }
            }
            // Alive and answering, already Suspect (timeout pending), or
            // Confirmed (terminal): no transition.
            _ => {}
        }
    }

    /// Up to `ping_req_fanout` live relays, lowest ids first — a fixed
    /// choice keeps the schedule independent of RNG state so indirect
    /// probing draws no randomness (replay stability).
    fn proxies(&self, prober: NodeId, target: NodeId) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|&w| w != prober && w != target && self.is_live(w))
            .take(self.cfg.ping_req_fanout)
            .collect()
    }

    /// Confirms every suspicion older than the timeout.
    fn expire_suspicions(&mut self, now: Tick) {
        let expired: Vec<NodeId> = self
            .states
            .iter()
            .filter_map(|(&n, &s)| match s {
                MemberState::Suspect { since, .. }
                    if now.saturating_sub(since) >= self.cfg.suspect_timeout =>
                {
                    Some(n)
                }
                _ => None,
            })
            .collect();
        for node in expired {
            self.states.insert(node, MemberState::Confirmed { at: now });
            self.push_event(now, node, MembershipEventKind::Confirmed);
            self.pending_confirmed.push(node);
            if obs::enabled() {
                obs::counter("dist.swim.confirm").incr();
            }
        }
    }

    fn push_event(&mut self, tick: Tick, node: NodeId, kind: MembershipEventKind) {
        self.events.push(MembershipEvent { tick, node, kind });
    }

    /// A deterministic digest of the full state + history, for replay
    /// equality checks across runs.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (&n, &s) in &self.states {
            mix(n.index() as u64);
            match s {
                MemberState::Alive { incarnation } => {
                    mix(1);
                    mix(incarnation);
                }
                MemberState::Suspect { incarnation, since } => {
                    mix(2);
                    mix(incarnation);
                    mix(since);
                }
                MemberState::Confirmed { at } => {
                    mix(3);
                    mix(at);
                }
            }
        }
        for e in &self.events {
            mix(e.tick);
            mix(e.node.index() as u64);
            mix(match e.kind {
                MembershipEventKind::Suspected => 11,
                MembershipEventKind::Refuted => 12,
                MembershipEventKind::Confirmed => 13,
            });
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn quorum(members: usize) -> Swim {
        Swim::new((0..members).map(n), SwimConfig::default())
    }

    /// Transport where everything is delivered.
    fn perfect() -> impl FnMut(Tick, NodeId, NodeId) -> bool {
        |_, _, _| true
    }

    #[test]
    fn a_healthy_cluster_never_suspects_anyone() {
        let mut swim = quorum(5);
        let mut net = perfect();
        for t in 0..200 {
            swim.tick(t, &mut net);
        }
        assert!(swim.events().is_empty());
        assert!((0..5).all(|i| swim.is_live(n(i))));
        assert!(swim.take_confirmed().is_empty());
    }

    #[test]
    fn a_dead_node_is_suspected_then_confirmed() {
        let mut swim = quorum(4);
        let dead = n(3);
        let mut net = move |_t: Tick, from: NodeId, to: NodeId| from != dead && to != dead;
        for t in 0..200 {
            swim.tick(t, &mut net);
        }
        assert!(matches!(
            swim.state(dead),
            Some(MemberState::Confirmed { .. })
        ));
        assert_eq!(swim.take_confirmed(), vec![dead]);
        assert!(!swim.is_live(dead));
        assert!((0..3).all(|i| swim.is_live(n(i))));
        // The history shows the two-step path: Suspected before Confirmed.
        let kinds: Vec<MembershipEventKind> = swim
            .events()
            .iter()
            .filter(|e| e.node == dead)
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                MembershipEventKind::Suspected,
                MembershipEventKind::Confirmed
            ]
        );
    }

    #[test]
    fn confirmation_is_terminal_even_if_the_node_answers_again() {
        let mut swim = quorum(3);
        let flaky = n(2);
        // Dead long enough to be confirmed...
        let mut down = move |_t: Tick, from: NodeId, to: NodeId| from != flaky && to != flaky;
        for t in 0..100 {
            swim.tick(t, &mut down);
        }
        assert!(matches!(
            swim.state(flaky),
            Some(MemberState::Confirmed { .. })
        ));
        let events_before = swim.events().len();
        // ...then the network heals: the confirmation must not revert.
        let mut up = perfect();
        for t in 100..200 {
            swim.tick(t, &mut up);
        }
        assert!(matches!(
            swim.state(flaky),
            Some(MemberState::Confirmed { .. })
        ));
        assert_eq!(swim.events().len(), events_before);
    }

    #[test]
    fn same_seed_and_transport_replay_the_same_history() {
        let script = |swim: &mut Swim| {
            let dead = n(1);
            let mut net = move |t: Tick, from: NodeId, to: NodeId| {
                // node 1 dies at tick 40; node 4's inbound links flap.
                if t >= 40 && (from == dead || to == dead) {
                    return false;
                }
                !(to == n(4) && t.is_multiple_of(7))
            };
            for t in 0..300 {
                swim.tick(t, &mut net);
            }
        };
        let mut a = quorum(6);
        let mut b = quorum(6);
        script(&mut a);
        script(&mut b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.events(), b.events());
        let mut c = Swim::new(
            (0..6).map(n),
            SwimConfig {
                seed: 0xBEEF,
                ..SwimConfig::default()
            },
        );
        script(&mut c);
        // A different seed may reorder probes but must reach the same
        // verdicts: node 1 confirmed, everyone else live.
        assert!(!c.is_live(n(1)));
        assert_eq!((0..6).filter(|&i| c.is_live(n(i))).count(), 5);
    }
}
