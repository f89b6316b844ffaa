//! Deterministic chaos harness: a seeded fault-injection plan for the
//! protocol simulator.
//!
//! [`FaultPlan`] is a declarative description of everything that can go
//! wrong on the wire — probabilistic drops, duplication, reordering,
//! payload corruption, timed partition windows, flapping links, grey
//! (half-deaf) nodes, and scheduled node deaths. [`ChaosState`] compiles
//! a plan into the mutable per-round machinery: a single seeded RNG
//! drawn in a fixed order per send, a tick-indexed death schedule, and
//! per-cause drop counters ([`FaultStats`]).
//!
//! Everything is deterministic for a given seed: the same plan over the
//! same network replays byte-identically, which is what lets the chaos
//! tests assert convergence-or-degradation *and* exact replay at once.
//! A default (empty) plan draws no random numbers at all, so legacy
//! runs are bit-for-bit unaffected by the harness being present.
//!
//! Scope notes, honest about the abstraction level:
//!
//! * Partition windows are node-set cuts: a message whose sender and
//!   receiver fall on opposite sides of an active window is dropped,
//!   whatever its hop count. Messages within one side are assumed to
//!   route within that side (the simulator does not model per-hop
//!   paths for control traffic).
//! * Flapping links affect direct exchanges between their two
//!   endpoints — the one-hop serve/freeze traffic they would carry —
//!   not multi-hop routes through them.
//! * Corrupted payloads are modeled as receiver-side discards (the
//!   checksum fails, the frame is dropped) and counted separately from
//!   plain chaos drops.

use peercache_graph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::Tick;

/// A timed network partition: during `from..until`, `island` is cut off
/// from the rest of the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick (inclusive) at which the cut is active.
    pub from: Tick,
    /// First tick at which the cut has healed (exclusive end).
    pub until: Tick,
    /// The nodes on the far side of the cut, in any order.
    pub island: Vec<NodeId>,
}

/// A link that goes down periodically: for every `period`-tick cycle,
/// the link is down for the first `down_for` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlappingLink {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Cycle length in ticks (must be > 0 to have any effect).
    pub period: Tick,
    /// Ticks per cycle the link spends down.
    pub down_for: Tick,
}

/// A node whose radio degrades: every message to or from it is dropped
/// with the given probability (grey failure — alive but unreliable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreyNode {
    /// The degraded node.
    pub node: NodeId,
    /// Per-message drop probability on its links.
    pub drop_probability: f64,
}

/// A declarative, seeded fault-injection plan.
///
/// The default plan injects nothing and draws no randomness. Builder
/// methods compose:
///
/// ```
/// use peercache_dist::chaos::FaultPlan;
/// use peercache_graph::NodeId;
///
/// let plan = FaultPlan::new(42)
///     .drop(0.1)
///     .duplicate(0.05)
///     .reorder(0.1, 3)
///     .partition(100, 200, vec![NodeId::new(0), NodeId::new(1)])
///     .flap(NodeId::new(2), NodeId::new(3), 16, 4)
///     .grey(NodeId::new(4), 0.5)
///     .death(50, NodeId::new(5));
/// assert_eq!(plan.deaths, [(50, NodeId::new(5))]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic fault in the plan.
    pub seed: u64,
    /// Probability of silently dropping any message.
    pub drop: f64,
    /// Probability of delivering a message twice.
    pub duplicate: f64,
    /// Probability of delaying a message by a random 1..=`reorder_max_ticks`
    /// extra ticks (which reorders it past later traffic).
    pub reorder: f64,
    /// Maximum extra delay of a reordered message.
    pub reorder_max_ticks: u32,
    /// Probability a message arrives corrupted (and is discarded).
    pub corrupt: f64,
    /// Timed partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Periodically failing links.
    pub flaps: Vec<FlappingLink>,
    /// Nodes with degraded radios.
    pub grey: Vec<GreyNode>,
    /// Mid-round churn: `(tick, node)` pairs at which a peer dies. A
    /// dead node stops bidding and serving, messages addressed to it
    /// vanish, and any client frozen on it as provider reverts to
    /// bidding — re-electing an ADMIN or falling back to the producer.
    /// Entries naming the producer are ignored (the producer is the
    /// round's anchor and cannot die).
    pub deaths: Vec<(Tick, NodeId)>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the uniform message-drop probability.
    #[must_use]
    pub fn drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplication probability.
    #[must_use]
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reorder probability and maximum extra delay.
    #[must_use]
    pub fn reorder(mut self, p: f64, max_extra_ticks: u32) -> Self {
        self.reorder = p;
        self.reorder_max_ticks = max_extra_ticks;
        self
    }

    /// Sets the corruption probability.
    #[must_use]
    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Adds a partition window cutting `island` off during `from..until`.
    #[must_use]
    pub fn partition(mut self, from: Tick, until: Tick, island: Vec<NodeId>) -> Self {
        self.partitions.push(PartitionWindow {
            from,
            until,
            island,
        });
        self
    }

    /// Adds a flapping link.
    #[must_use]
    pub fn flap(mut self, a: NodeId, b: NodeId, period: Tick, down_for: Tick) -> Self {
        self.flaps.push(FlappingLink {
            a,
            b,
            period,
            down_for,
        });
        self
    }

    /// Marks a node's radio as degraded.
    #[must_use]
    pub fn grey(mut self, node: NodeId, drop_probability: f64) -> Self {
        self.grey.push(GreyNode {
            node,
            drop_probability,
        });
        self
    }

    /// Schedules a node death.
    #[must_use]
    pub fn death(mut self, at: Tick, node: NodeId) -> Self {
        self.deaths.push((at, node));
        self
    }

    /// `true` when any fault in the plan needs random draws.
    fn needs_rng(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.corrupt > 0.0
            || self.grey.iter().any(|g| g.drop_probability > 0.0)
    }
}

/// Why the chaos layer dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// Sender and receiver were on opposite sides of an active
    /// partition window.
    Partition,
    /// The message used a flapping link during its down phase.
    Flap,
    /// A grey endpoint's radio lost it.
    Grey,
    /// The payload arrived corrupted and was discarded.
    Corrupt,
    /// Plain probabilistic loss.
    Chaos,
}

impl DropCause {
    /// Trace label for the fate of a dropped message, e.g.
    /// `dropped:partition`.
    pub const fn label(self) -> &'static str {
        match self {
            DropCause::Partition => "dropped:partition",
            DropCause::Flap => "dropped:flap",
            DropCause::Grey => "dropped:grey",
            DropCause::Corrupt => "dropped:corrupt",
            DropCause::Chaos => "dropped:chaos",
        }
    }
}

/// The fate of one message after the chaos layer ruled on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Deliver the message (`copies` > 1 means duplication), after
    /// `extra_delay` additional ticks of reordering delay.
    Deliver {
        /// Extra ticks of delay beyond the hop distance.
        extra_delay: u32,
        /// How many copies to enqueue (1 normally, 2 when duplicated).
        copies: u8,
    },
    /// Drop the message, for the given reason.
    Dropped(DropCause),
}

/// Per-cause fault counters for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages cut by partition windows.
    pub partition_drops: u64,
    /// Messages lost to flapping links.
    pub flap_drops: u64,
    /// Messages lost to grey nodes.
    pub grey_drops: u64,
    /// Messages discarded as corrupted.
    pub corrupted: u64,
    /// Messages lost to plain probabilistic chaos drops.
    pub chaos_drops: u64,
    /// Messages duplicated in flight.
    pub duplicated: u64,
    /// Messages delayed (reordered) in flight.
    pub delayed: u64,
}

impl FaultStats {
    /// Total messages the chaos layer dropped, over every cause.
    pub fn total_drops(&self) -> u64 {
        self.partition_drops + self.flap_drops + self.grey_drops + self.corrupted + self.chaos_drops
    }

    /// Total fault injections: drops plus duplications plus delays.
    pub fn total(&self) -> u64 {
        self.total_drops() + self.duplicated + self.delayed
    }
}

/// A [`FaultPlan`] compiled for one protocol round: sorted islands, a
/// tick-indexed death schedule, the seeded RNG, and live counters.
#[derive(Debug)]
pub struct ChaosState {
    partitions: Vec<PartitionWindow>,
    flaps: Vec<FlappingLink>,
    grey: Vec<GreyNode>,
    /// The plan's deaths, sorted by `(tick, node)`, one per node.
    deaths: Vec<(Tick, NodeId)>,
    death_cursor: usize,
    rng: Option<ChaCha8Rng>,
    drop: f64,
    duplicate: f64,
    reorder: f64,
    reorder_max_ticks: u32,
    corrupt: f64,
    /// Per-cause counters, incremented as the round runs.
    pub stats: FaultStats,
}

impl ChaosState {
    /// Compiles `plan` into round-ready state.
    pub fn compile(plan: &FaultPlan) -> Self {
        let mut partitions = plan.partitions.clone();
        for w in &mut partitions {
            w.island.sort_unstable();
            w.island.dedup();
        }
        let mut deaths = plan.deaths.clone();
        deaths.sort_unstable_by_key(|&(t, n)| (t, n));
        // A node dies exactly once: when the plan schedules it more
        // than once, only the earliest entry survives. `deaths_due`
        // batches therefore never double-report a node, which is what
        // lets simultaneous deaths at one tick be counted per *node* by
        // the ≤R−1 durability oracle — and what spares every consumer
        // the re-death guard the simulator used to need.
        let mut seen = std::collections::BTreeSet::new();
        deaths.retain(|&(_, n)| seen.insert(n));
        let rng = if plan.needs_rng() {
            Some(ChaCha8Rng::seed_from_u64(plan.seed))
        } else {
            None
        };
        ChaosState {
            partitions,
            flaps: plan.flaps.clone(),
            grey: plan.grey.clone(),
            deaths,
            death_cursor: 0,
            rng,
            drop: plan.drop,
            duplicate: plan.duplicate,
            reorder: plan.reorder,
            reorder_max_ticks: plan.reorder_max_ticks,
            corrupt: plan.corrupt,
            stats: FaultStats::default(),
        }
    }

    /// Deaths scheduled at or before `now` that have not been returned
    /// yet. Call once per tick with a monotone `now`; the schedule is
    /// pre-sorted, so each call is O(deaths due now), not O(all deaths).
    pub fn deaths_due(&mut self, now: Tick) -> &[(Tick, NodeId)] {
        let start = self.death_cursor;
        while self
            .deaths
            .get(self.death_cursor)
            .is_some_and(|&(t, _)| t <= now)
        {
            self.death_cursor += 1;
        }
        self.deaths.get(start..self.death_cursor).unwrap_or(&[])
    }

    /// `true` when the compiled plan contains any partition window
    /// (active or not).
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// `true` when no active partition window at `now` separates `a`
    /// from `b`.
    pub fn reachable(&self, now: Tick, a: NodeId, b: NodeId) -> bool {
        !self.partitions.iter().any(|w| {
            w.from <= now
                && now < w.until
                && (w.island.binary_search(&a).is_ok() != w.island.binary_search(&b).is_ok())
        })
    }

    /// Rules on one message: dropped (and for what cause), or delivered
    /// with possible duplication / extra reordering delay.
    ///
    /// The probabilistic checks run in a fixed order (corrupt, drop,
    /// duplicate, reorder) and each draws from the RNG only when its
    /// probability is positive, so enabling one fault never perturbs
    /// another's random stream.
    pub fn on_send(&mut self, now: Tick, from: NodeId, to: NodeId, _hops: u32) -> SendFate {
        if !self.reachable(now, from, to) {
            self.stats.partition_drops += 1;
            return SendFate::Dropped(DropCause::Partition);
        }
        for f in &self.flaps {
            let on_link = (f.a == from && f.b == to) || (f.a == to && f.b == from);
            if on_link && f.period > 0 && now % f.period < f.down_for {
                self.stats.flap_drops += 1;
                return SendFate::Dropped(DropCause::Flap);
            }
        }
        for g in &self.grey {
            if (g.node == from || g.node == to) && g.drop_probability > 0.0 {
                let lost = self
                    .rng
                    .as_mut()
                    .is_some_and(|r| r.gen::<f64>() < g.drop_probability);
                if lost {
                    self.stats.grey_drops += 1;
                    return SendFate::Dropped(DropCause::Grey);
                }
            }
        }
        if self.corrupt > 0.0 {
            let hit = self
                .rng
                .as_mut()
                .is_some_and(|r| r.gen::<f64>() < self.corrupt);
            if hit {
                self.stats.corrupted += 1;
                return SendFate::Dropped(DropCause::Corrupt);
            }
        }
        if self.drop > 0.0 {
            let hit = self
                .rng
                .as_mut()
                .is_some_and(|r| r.gen::<f64>() < self.drop);
            if hit {
                self.stats.chaos_drops += 1;
                return SendFate::Dropped(DropCause::Chaos);
            }
        }
        let mut copies = 1u8;
        if self.duplicate > 0.0 {
            let hit = self
                .rng
                .as_mut()
                .is_some_and(|r| r.gen::<f64>() < self.duplicate);
            if hit {
                copies = 2;
                self.stats.duplicated += 1;
            }
        }
        let mut extra_delay = 0u32;
        if self.reorder > 0.0 {
            let hit = self
                .rng
                .as_mut()
                .is_some_and(|r| r.gen::<f64>() < self.reorder);
            if hit {
                let max = self.reorder_max_ticks.max(1);
                extra_delay = match self.rng.as_mut() {
                    Some(r) => r.gen_range(1..=max),
                    None => 1,
                };
                self.stats.delayed += 1;
            }
        }
        SendFate::Deliver {
            extra_delay,
            copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn default_plan_is_a_noop_without_randomness() {
        let mut state = ChaosState::compile(&FaultPlan::default());
        for t in 0..100 {
            assert_eq!(
                state.on_send(t, n(0), n(1), 1),
                SendFate::Deliver {
                    extra_delay: 0,
                    copies: 1
                }
            );
        }
        assert_eq!(state.stats, FaultStats::default());
        assert!(state.deaths_due(1_000).is_empty());
    }

    #[test]
    fn partition_window_cuts_cross_island_traffic_only() {
        let plan = FaultPlan::new(1).partition(10, 20, vec![n(0), n(1)]);
        let mut state = ChaosState::compile(&plan);
        // Before the window: everything flows.
        assert!(matches!(
            state.on_send(9, n(0), n(5), 2),
            SendFate::Deliver { .. }
        ));
        // During: cross-cut traffic dies both ways, intra-island lives.
        assert_eq!(
            state.on_send(10, n(0), n(5), 2),
            SendFate::Dropped(DropCause::Partition)
        );
        assert_eq!(
            state.on_send(15, n(5), n(1), 2),
            SendFate::Dropped(DropCause::Partition)
        );
        assert!(matches!(
            state.on_send(15, n(0), n(1), 1),
            SendFate::Deliver { .. }
        ));
        assert!(matches!(
            state.on_send(15, n(5), n(6), 1),
            SendFate::Deliver { .. }
        ));
        // After: healed.
        assert!(matches!(
            state.on_send(20, n(0), n(5), 2),
            SendFate::Deliver { .. }
        ));
        assert_eq!(state.stats.partition_drops, 2);
        assert!(!state.reachable(15, n(0), n(5)));
        assert!(state.reachable(15, n(0), n(1)));
        assert!(state.reachable(20, n(0), n(5)));
    }

    #[test]
    fn flapping_link_cycles_down_and_up() {
        let plan = FaultPlan::new(1).flap(n(2), n(3), 10, 4);
        let mut state = ChaosState::compile(&plan);
        // Ticks 0..4 of each cycle: down (both directions).
        assert_eq!(
            state.on_send(0, n(2), n(3), 1),
            SendFate::Dropped(DropCause::Flap)
        );
        assert_eq!(
            state.on_send(13, n(3), n(2), 1),
            SendFate::Dropped(DropCause::Flap)
        );
        // Ticks 4..10: up.
        assert!(matches!(
            state.on_send(4, n(2), n(3), 1),
            SendFate::Deliver { .. }
        ));
        // Other links unaffected even during the down phase.
        assert!(matches!(
            state.on_send(0, n(2), n(4), 1),
            SendFate::Deliver { .. }
        ));
        assert_eq!(state.stats.flap_drops, 2);
    }

    #[test]
    fn grey_node_loses_a_fraction_of_its_traffic() {
        let plan = FaultPlan::new(7).grey(n(4), 0.5);
        let mut state = ChaosState::compile(&plan);
        let mut lost = 0u64;
        for t in 0..200 {
            if matches!(state.on_send(t, n(4), n(5), 1), SendFate::Dropped(_)) {
                lost += 1;
            }
        }
        assert!(lost > 50 && lost < 150, "~50% expected, got {lost}");
        assert_eq!(state.stats.grey_drops, lost);
        // Traffic not touching the grey node is never grey-dropped.
        for t in 0..50 {
            assert!(matches!(
                state.on_send(t, n(1), n(2), 1),
                SendFate::Deliver { .. }
            ));
        }
    }

    #[test]
    fn probabilistic_faults_replay_identically() {
        let plan = FaultPlan::new(99)
            .drop(0.2)
            .duplicate(0.1)
            .reorder(0.15, 3)
            .corrupt(0.05);
        let run = || {
            let mut state = ChaosState::compile(&plan);
            let fates: Vec<SendFate> = (0..500).map(|t| state.on_send(t, n(0), n(1), 1)).collect();
            (fates, state.stats)
        };
        let (fates_a, stats_a) = run();
        let (fates_b, stats_b) = run();
        assert_eq!(fates_a, fates_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.chaos_drops > 0);
        assert!(stats_a.duplicated > 0);
        assert!(stats_a.delayed > 0);
        assert!(stats_a.corrupted > 0);
        assert_eq!(
            stats_a.total(),
            stats_a.chaos_drops + stats_a.corrupted + stats_a.duplicated + stats_a.delayed
        );
    }

    #[test]
    fn death_schedule_is_tick_indexed_and_sorted() {
        let plan = FaultPlan::new(0)
            .death(30, n(2))
            .death(10, n(1))
            .death(10, n(0))
            .death(50, n(3));
        let mut state = ChaosState::compile(&plan);
        assert!(state.deaths_due(5).is_empty());
        // Tick 10: both tick-10 deaths, in node order.
        assert_eq!(state.deaths_due(10), &[(10, n(0)), (10, n(1))]);
        // Already-returned deaths never repeat.
        assert!(state.deaths_due(10).is_empty());
        assert_eq!(state.deaths_due(40), &[(30, n(2))]);
        assert_eq!(state.deaths_due(60), &[(50, n(3))]);
        assert!(state.deaths_due(1_000).is_empty());
    }

    #[test]
    fn duplicate_death_entries_collapse_to_the_earliest() {
        // Node 1 is scheduled twice at one tick and node 2 at two
        // different ticks: one death each survives.
        let plan = FaultPlan::new(0)
            .death(10, n(1))
            .death(30, n(2))
            .death(10, n(1))
            .death(10, n(4))
            .death(45, n(2));
        let mut state = ChaosState::compile(&plan);
        assert_eq!(state.deaths_due(10), &[(10, n(1)), (10, n(4))]);
        assert_eq!(state.deaths_due(50), &[(30, n(2))]);
        assert!(state.deaths_due(1_000).is_empty());
    }

    #[test]
    fn simultaneous_deaths_arrive_as_one_batch_per_tick() {
        // The ≤R−1 durability oracle kills several nodes at one tick;
        // the cursor must hand them all over in a single node-ordered
        // batch, never spread across later calls.
        let plan = FaultPlan::new(0)
            .death(20, n(3))
            .death(20, n(1))
            .death(20, n(2));
        let mut state = ChaosState::compile(&plan);
        assert!(state.deaths_due(19).is_empty());
        assert_eq!(state.deaths_due(20), &[(20, n(1)), (20, n(2)), (20, n(3))]);
        assert!(state.deaths_due(20).is_empty());
    }

    #[test]
    fn death_dedup_never_perturbs_the_seeded_rng_stream() {
        // Exactly the perf-gate chaos fields (`chaos_cells`): seed
        // 0xFA117, duplicate + reorder at intensity 0.4, a tick-10
        // partition window. Deaths draw no randomness, so scheduling
        // duplicates must leave every fate and counter bit-identical —
        // this pins the RNG draw order across the dedup change.
        let base = FaultPlan::new(0xFA117)
            .duplicate(0.2)
            .reorder(0.2, 2)
            .partition(10, 90, vec![n(0)]);
        let run = |plan: &FaultPlan| {
            let mut state = ChaosState::compile(plan);
            let fates: Vec<SendFate> = (0..400).map(|t| state.on_send(t, n(1), n(2), 1)).collect();
            let mut deaths = Vec::new();
            for t in 0..400 {
                deaths.extend_from_slice(state.deaths_due(t));
            }
            (fates, state.stats, deaths)
        };
        let clean = run(&base);
        let dup_plan = base
            .clone()
            .death(25, n(5))
            .death(25, n(5))
            .death(25, n(5))
            .death(120, n(5));
        let (fates, stats, deaths) = run(&dup_plan);
        assert_eq!(fates, clean.0);
        assert_eq!(stats, clean.1);
        assert_eq!(deaths, vec![(25, n(5))]);
        assert!(stats.duplicated > 0 && stats.delayed > 0);
    }

    #[test]
    fn reorder_delay_is_bounded() {
        let plan = FaultPlan::new(3).reorder(1.0, 4);
        let mut state = ChaosState::compile(&plan);
        for t in 0..100 {
            match state.on_send(t, n(0), n(1), 1) {
                SendFate::Deliver { extra_delay, .. } => {
                    assert!((1..=4).contains(&extra_delay));
                }
                SendFate::Dropped(c) => panic!("reorder-only plan dropped a message: {c:?}"),
            }
        }
        assert_eq!(state.stats.delayed, 100);
    }
}
