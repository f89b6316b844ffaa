//! Discrete-event core: virtual clock, ordered event queue, hop-delayed
//! delivery and optional message loss.
//!
//! Control messages travel one hop per tick; a message to a node `h`
//! hops away is delivered `h` ticks after it is sent. Events at the same
//! tick are processed in send order (a monotone sequence number), so
//! simulations are fully deterministic for a given seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use peercache_graph::NodeId;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use peercache_obs as obs;

use crate::protocol::{Message, MessageKind, MessageStats};

/// Virtual time in ticks.
pub type Tick = u64;

/// A scheduled delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Delivery time.
    pub at: Tick,
    /// Receiving node.
    pub to: NodeId,
    /// The message.
    pub msg: Message,
    /// When the message was sent (for delivery-latency histograms; the
    /// caller supplies its own clock, since the engine clock only
    /// advances on deliveries).
    pub sent: Tick,
    /// Whether this delivery is a chaos-injected duplicate copy.
    pub dup: bool,
    /// Causal identity of this message's span. All-zero when tracing is
    /// off; never read by protocol logic.
    pub ctx: obs::TraceContext,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueueKey {
    at: Tick,
    seq: u64,
}

/// Message-loss fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Probability that any single control message is silently dropped.
    pub drop_probability: f64,
    /// RNG seed for reproducible loss patterns.
    pub seed: u64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            drop_probability: 0.0,
            seed: 0,
        }
    }
}

/// Random extra delivery delay — wireless links do not deliver in
/// lockstep; back-off and retransmission smear arrival times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JitterConfig {
    /// Maximum extra ticks added to every delivery (uniform in
    /// `0..=max_extra_ticks`); 0 disables jitter.
    pub max_extra_ticks: u32,
    /// RNG seed for reproducible jitter patterns.
    pub seed: u64,
}

/// The event engine: a clock plus a delivery queue with statistics.
#[derive(Debug)]
pub struct Engine {
    now: Tick,
    seq: u64,
    queue: BinaryHeap<Reverse<(QueueKey, NodeId)>>,
    payloads: Vec<Option<Delivery>>,
    stats: MessageStats,
    loss: Option<(f64, ChaCha8Rng)>,
    jitter: Option<(u32, ChaCha8Rng)>,
    payload_misses: u64,
}

impl Engine {
    /// Creates an engine with no fault injection.
    pub fn new() -> Self {
        Engine {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            stats: MessageStats::default(),
            loss: None,
            jitter: None,
            payload_misses: 0,
        }
    }

    /// Creates an engine that drops messages per `loss`.
    pub fn with_loss(loss: LossConfig) -> Self {
        Engine::with_faults(loss, JitterConfig::default())
    }

    /// Creates an engine with message loss and delivery jitter.
    pub fn with_faults(loss: LossConfig, jitter: JitterConfig) -> Self {
        use rand::SeedableRng;
        let mut engine = Engine::new();
        if loss.drop_probability > 0.0 {
            engine.loss = Some((loss.drop_probability, ChaCha8Rng::seed_from_u64(loss.seed)));
        }
        if jitter.max_extra_ticks > 0 {
            engine.jitter = Some((
                jitter.max_extra_ticks,
                ChaCha8Rng::seed_from_u64(jitter.seed),
            ));
        }
        engine
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Delivered-message statistics so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Schedules `msg` to arrive at `to` after `delay_hops` ticks.
    ///
    /// Lossy engines may silently drop the message (counted in
    /// [`MessageStats::dropped`]).
    pub fn send(&mut self, to: NodeId, delay_hops: u32, msg: Message) {
        let sent = self.now;
        self.send_tagged(
            to,
            delay_hops,
            msg,
            sent,
            false,
            obs::TraceContext::default(),
        );
    }

    /// [`Engine::send`] with explicit telemetry: the caller's send time
    /// `sent` (for latency histograms), whether this is a chaos
    /// duplicate, and the message's causal span. Returns `false` when
    /// the lossy engine dropped the message, so the caller can record
    /// the drop fate against `ctx`.
    pub fn send_tagged(
        &mut self,
        to: NodeId,
        delay_hops: u32,
        msg: Message,
        sent: Tick,
        dup: bool,
        ctx: obs::TraceContext,
    ) -> bool {
        if let Some((p, rng)) = &mut self.loss {
            if rng.gen::<f64>() < *p {
                self.stats.dropped += 1;
                if obs::enabled() {
                    obs::counter("dist.msg.dropped").incr();
                }
                return false;
            }
        }
        let extra = match &mut self.jitter {
            Some((max, rng)) => rng.gen_range(0..=*max),
            None => 0,
        };
        let key = QueueKey {
            at: self.now + Tick::from(delay_hops.max(1) + extra),
            seq: self.seq,
        };
        self.seq += 1;
        let slot = self.payloads.len();
        self.payloads.push(Some(Delivery {
            at: key.at,
            to,
            msg,
            sent,
            dup,
            ctx,
        }));
        // NodeId in the heap entry is only a tiebreak-stable payload
        // index carrier; the key orders deliveries.
        self.queue.push(Reverse((key, NodeId::new(slot))));
        true
    }

    /// Pops the next delivery, advancing the clock to its time.
    /// Returns `None` when the queue is empty.
    pub fn next_delivery(&mut self) -> Option<Delivery> {
        // Every queue entry points at a filled payload slot by
        // construction (`send` pushes both together); if the bookkeeping
        // ever diverged, skipping the phantom entry (and counting it as
        // a [`crate::ProtocolError::MissingPayload`] occurrence for the
        // run report) beats panicking mid-protocol (lint rule P1).
        while let Some(Reverse((key, slot))) = self.queue.pop() {
            self.now = key.at;
            let Some(delivery) = self.payloads.get_mut(slot.index()).and_then(Option::take) else {
                self.payload_misses += 1;
                if obs::enabled() {
                    obs::counter("dist.engine.payload_miss").incr();
                }
                continue;
            };
            self.stats.record(delivery.msg.kind());
            if delivery.dup {
                self.stats.record_duplicate();
            }
            if obs::enabled() {
                delivered_counter(delivery.msg.kind()).incr();
                latency_histogram(delivery.msg.kind())
                    .record(delivery.at.saturating_sub(delivery.sent));
            }
            return Some(delivery);
        }
        None
    }

    /// Queue entries that pointed at an empty payload slot — each one is
    /// a would-be [`crate::ProtocolError::MissingPayload`], surfaced as
    /// a counter instead of an abort so the round can finish.
    pub fn payload_misses(&self) -> u64 {
        self.payload_misses
    }

    /// Peeks at the time of the next pending delivery.
    pub fn next_time(&self) -> Option<Tick> {
        self.queue.peek().map(|Reverse((key, _))| key.at)
    }

    /// Pops the next delivery due at or before `tick`, advancing the
    /// clock as [`Engine::next_delivery`] does, or `None` when nothing
    /// is due. This is the per-tick drain step of the simulation loop,
    /// extracted as a *single* pop on purpose: handlers run between
    /// pops and their sends consume the loss/jitter RNG streams, so a
    /// collect-then-handle drain would reorder the draws and change
    /// fault outcomes bit-for-bit.
    pub fn next_delivery_due(&mut self, tick: Tick) -> Option<Delivery> {
        if self.next_time().is_some_and(|t| t <= tick) {
            // `next_time` just peeked a queue entry, so a delivery
            // exists; `None` on a phantom entry ends the caller's
            // drain loop panic-free (P1), as the inline loop did.
            self.next_delivery()
        } else {
            None
        }
    }

    /// Number of pending deliveries (time-series sampling).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Removes and returns every still-pending delivery in queue order
    /// **without** advancing the clock or touching any statistic — the
    /// round is over and these messages will never arrive. Used by the
    /// tracer to close their spans with an `expired` fate; behind a
    /// tracing check, so untraced runs never call it.
    pub fn drain_pending(&mut self) -> Vec<Delivery> {
        let mut expired = Vec::with_capacity(self.queue.len());
        while let Some(Reverse((_, slot))) = self.queue.pop() {
            if let Some(d) = self.payloads.get_mut(slot.index()).and_then(Option::take) {
                expired.push(d);
            }
        }
        expired
    }
}

/// Process-global delivered-message counter for one kind (snapshotted
/// into the trace by `obs::emit_metrics`).
fn delivered_counter(kind: MessageKind) -> &'static obs::Counter {
    match kind {
        MessageKind::Npi => obs::counter("dist.msg.npi"),
        MessageKind::Cc => obs::counter("dist.msg.cc"),
        MessageKind::Tight => obs::counter("dist.msg.tight"),
        MessageKind::Span => obs::counter("dist.msg.span"),
        MessageKind::Freeze => obs::counter("dist.msg.freeze"),
        MessageKind::NAdmin => obs::counter("dist.msg.nadmin"),
        MessageKind::BAdmin => obs::counter("dist.msg.badmin"),
        MessageKind::Ping => obs::counter("dist.msg.ping"),
        MessageKind::Pong => obs::counter("dist.msg.pong"),
    }
}

/// Process-global delivery-latency histogram (send tick → delivery
/// tick) for one kind; p50/p95/p99 appear in the metrics snapshot.
fn latency_histogram(kind: MessageKind) -> &'static obs::Histogram {
    match kind {
        MessageKind::Npi => obs::histogram("dist.latency.npi"),
        MessageKind::Cc => obs::histogram("dist.latency.cc"),
        MessageKind::Tight => obs::histogram("dist.latency.tight"),
        MessageKind::Span => obs::histogram("dist.latency.span"),
        MessageKind::Freeze => obs::histogram("dist.latency.freeze"),
        MessageKind::NAdmin => obs::histogram("dist.latency.nadmin"),
        MessageKind::BAdmin => obs::histogram("dist.latency.badmin"),
        MessageKind::Ping => obs::histogram("dist.latency.ping"),
        MessageKind::Pong => obs::histogram("dist.latency.pong"),
    }
}

/// The span name for a delivered message of `kind` in the causal trace.
pub(crate) fn message_span_name(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::Npi => "dist.msg.npi",
        MessageKind::Cc => "dist.msg.cc",
        MessageKind::Tight => "dist.msg.tight",
        MessageKind::Span => "dist.msg.span",
        MessageKind::Freeze => "dist.msg.freeze",
        MessageKind::NAdmin => "dist.msg.nadmin",
        MessageKind::BAdmin => "dist.msg.badmin",
        MessageKind::Ping => "dist.msg.ping",
        MessageKind::Pong => "dist.msg.pong",
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_core::ChunkId;

    fn msg() -> Message {
        Message::Tight {
            from: NodeId::new(0),
        }
    }

    #[test]
    fn deliveries_come_out_in_time_order() {
        let mut e = Engine::new();
        e.send(NodeId::new(1), 3, msg());
        e.send(NodeId::new(2), 1, msg());
        let first = e.next_delivery().unwrap();
        assert_eq!(first.to, NodeId::new(2));
        assert_eq!(e.now(), 1);
        let second = e.next_delivery().unwrap();
        assert_eq!(second.to, NodeId::new(1));
        assert_eq!(e.now(), 3);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn same_tick_preserves_send_order() {
        let mut e = Engine::new();
        for i in 0..5 {
            e.send(NodeId::new(i), 2, msg());
        }
        for i in 0..5 {
            assert_eq!(e.next_delivery().unwrap().to, NodeId::new(i));
        }
    }

    #[test]
    fn next_delivery_due_matches_peek_and_pop() {
        let mut a = Engine::new();
        let mut b = Engine::new();
        for e in [&mut a, &mut b] {
            for i in 0..6 {
                e.send(NodeId::new(i), 1 + (i as u32 % 3), msg());
            }
        }
        for tick in 1..=4u64 {
            let mut drained = Vec::new();
            while let Some(d) = a.next_delivery_due(tick) {
                drained.push(d);
            }
            let mut inline = Vec::new();
            while b.next_time().is_some_and(|t| t <= tick) {
                let Some(d) = b.next_delivery() else { break };
                inline.push(d);
            }
            assert_eq!(drained, inline, "tick {tick} diverged");
            assert_eq!(a.now(), b.now());
        }
        assert_eq!((a.pending(), b.pending()), (0, 0));
    }

    #[test]
    fn zero_delay_is_clamped_to_one_tick() {
        let mut e = Engine::new();
        e.send(NodeId::new(0), 0, msg());
        assert_eq!(e.next_time(), Some(1));
    }

    #[test]
    fn stats_count_by_kind() {
        let mut e = Engine::new();
        e.send(NodeId::new(0), 1, msg());
        e.send(
            NodeId::new(0),
            1,
            Message::Npi {
                chunk: ChunkId::new(0),
            },
        );
        while e.next_delivery().is_some() {}
        assert_eq!(e.stats().get(MessageKind::Tight), 1);
        assert_eq!(e.stats().get(MessageKind::Npi), 1);
        assert_eq!(e.stats().total(), 2);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut e = Engine::with_loss(LossConfig {
            drop_probability: 1.0,
            seed: 1,
        });
        e.send(NodeId::new(0), 1, msg());
        assert_eq!(e.pending(), 0);
        assert_eq!(e.stats().dropped, 1);
    }

    #[test]
    fn jitter_spreads_deliveries_deterministically() {
        let run = || {
            let mut e = Engine::with_faults(
                LossConfig::default(),
                JitterConfig {
                    max_extra_ticks: 5,
                    seed: 3,
                },
            );
            for i in 0..20 {
                e.send(NodeId::new(i), 1, msg());
            }
            let mut times = Vec::new();
            while let Some(d) = e.next_delivery() {
                times.push(d.at);
            }
            times
        };
        let a = run();
        assert_eq!(a, run());
        // Some deliveries were delayed beyond the base 1 tick.
        assert!(a.iter().any(|&t| t > 1));
        assert!(a.iter().all(|&t| t <= 6));
    }

    #[test]
    fn tagged_sends_carry_telemetry_and_duplicates_reconcile() {
        let mut e = Engine::new();
        let ctx = obs::TraceContext {
            trace: 5,
            span: 2,
            parent: 1,
        };
        assert!(e.send_tagged(NodeId::new(1), 2, msg(), 0, false, ctx));
        assert!(e.send_tagged(NodeId::new(1), 2, msg(), 0, true, ctx));
        assert_eq!(e.pending(), 2);
        let d = e.next_delivery().unwrap();
        assert_eq!(d.ctx, ctx);
        assert!(!d.dup);
        assert_eq!(d.sent, 0);
        let d2 = e.next_delivery().unwrap();
        assert!(d2.dup);
        assert_eq!(e.stats().duplicate_delivered, 1);
        assert_eq!(e.stats().unique_delivered(), 1);
    }

    #[test]
    fn drain_pending_returns_undelivered_messages_untouched() {
        let mut e = Engine::new();
        e.send(NodeId::new(1), 1, msg());
        e.send(NodeId::new(2), 5, msg());
        let _ = e.next_delivery().unwrap();
        let stats_before = *e.stats();
        let left = e.drain_pending();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].to, NodeId::new(2));
        assert_eq!(e.pending(), 0);
        assert_eq!(e.stats(), &stats_before);
        assert_eq!(e.now(), 1, "drain must not advance the clock");
    }

    #[test]
    fn partial_loss_is_reproducible() {
        let run = |seed| {
            let mut e = Engine::with_loss(LossConfig {
                drop_probability: 0.5,
                seed,
            });
            for i in 0..100 {
                e.send(NodeId::new(i % 4), 1, msg());
            }
            e.stats().dropped
        };
        assert_eq!(run(7), run(7));
        assert!(run(7) > 10 && run(7) < 90);
    }
}
