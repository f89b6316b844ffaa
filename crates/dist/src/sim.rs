//! The per-chunk protocol round (the body of Algorithm 2).
//!
//! One round caches one chunk: the producer broadcasts NPI, clients bid
//! (`α` per tick), send TIGHT when a candidate's estimated contention
//! cost is covered, escalate to SPAN when the relay bid `γ` is covered,
//! and a candidate promotes itself to ADMIN when it has gathered
//! [`SimConfig::span_threshold`] SPAN supporters *and* the resource
//! contributions it has observed cover its own Fairness Degree Cost —
//! the distributed analog of the centralized `Σ_j β_ij ≥ f_i` rule
//! (supporters keep bidding `U_β` per tick from the moment their TIGHT
//! arrived, so the admin can account the collected `β` locally).
//!
//! Clients that run out of candidates fall back to fetching from the
//! producer, which guarantees termination even under message loss.
//!
//! # Liveness extensions
//!
//! [`LivenessConfig`] adds three opt-in mechanisms (all off by default,
//! so legacy runs replay byte-identically):
//!
//! * **Retry with backoff** — TIGHT/SPAN are retransmitted up to
//!   `retry_limit` times with deterministic exponential backoff plus
//!   keyed jitter, so a single lost bid no longer stalls an election.
//!   Receivers deduplicate requesters by identity, so retries (and
//!   chaos-duplicated copies) never double-count `β` contributions.
//! * **FREEZE leases** — a frozen client periodically PINGs its
//!   provider; a provider that still serves answers PONG, renewing the
//!   lease. When the lease expires (the provider died silently or a
//!   partition cut it off) the client *deposes* it: thaws back to
//!   bidding and re-elects in its own component.
//! * **Election timeout** — a client that stays unsettled past the
//!   timeout settles explicitly: producer fallback when the producer is
//!   reachable, [`RoundOutcome::degraded`] when a partition window cuts
//!   it off (explicit degradation instead of a burned tick budget).
//!
//! Fault injection beyond loss/jitter — partitions, flapping links,
//! grey nodes, duplication, reordering, corruption — comes from the
//! seeded [`FaultPlan`] in [`SimConfig::chaos`] (see [`crate::chaos`]).

use peercache_core::{ChunkId, Network};
use peercache_graph::paths::bfs_hops;
use peercache_graph::regions::splitmix64;
use peercache_graph::NodeId;

use crate::chaos::{ChaosState, FaultPlan, FaultStats, SendFate};
use crate::engine::{message_span_name, Engine, JitterConfig, LossConfig, Tick};
use peercache_obs as obs;

use crate::protocol::{Message, MessageStats};
use crate::view::LocalView;

/// Parameters of one protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Bid increment of `α` per tick.
    pub u_alpha: f64,
    /// Bid increment of `β` per tick (per tight candidate).
    pub u_beta: f64,
    /// Bid increment of `γ` per tick (per tight candidate).
    pub u_gamma: f64,
    /// SPAN supporters required before a node declares itself ADMIN
    /// (the `M` of Algorithm 2).
    pub span_threshold: usize,
    /// A client abandons peer caching and fetches from the producer
    /// once `α` exceeds this multiple of its costliest visible peer.
    pub give_up_factor: f64,
    /// Hard tick budget per chunk round.
    pub max_ticks: Tick,
    /// Message-loss fault injection.
    pub loss: LossConfig,
    /// Random extra delivery delay.
    pub jitter: JitterConfig,
    /// Seeded chaos plan: partitions, flapping links, grey nodes,
    /// duplication, reordering, corruption, and mid-round node deaths
    /// ([`FaultPlan::death`]).
    pub chaos: FaultPlan,
    /// Retry / lease / election-timeout parameters.
    pub liveness: LivenessConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            u_alpha: 1.0,
            u_beta: 1.0,
            u_gamma: 1.0,
            span_threshold: 4,
            give_up_factor: 2.5,
            max_ticks: 100_000,
            loss: LossConfig::default(),
            jitter: JitterConfig::default(),
            chaos: FaultPlan::default(),
            liveness: LivenessConfig::default(),
        }
    }
}

/// Retry, lease, and election-timeout parameters. The defaults disable
/// every mechanism, preserving the legacy protocol exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Maximum transmissions of each TIGHT/SPAN per `(client,
    /// candidate)` pair; 1 means no retries (legacy behavior).
    pub retry_limit: u32,
    /// Backoff before the first retry, doubling per attempt.
    pub backoff_base: Tick,
    /// Maximum deterministic jitter added to each backoff (keyed on
    /// `(node, candidate, attempt)` — no RNG state, so replays and the
    /// chaos RNG stream are unaffected).
    pub backoff_jitter: Tick,
    /// FREEZE lease duration; 0 disables leases. Frozen clients ping
    /// their provider every `lease_ticks / 3` ticks and depose it when
    /// no PONG renews the lease in time.
    pub lease_ticks: Tick,
    /// A client unsettled for this many ticks settles explicitly —
    /// producer fallback when reachable, degraded when partitioned off.
    /// 0 disables the timeout.
    pub election_timeout: Tick,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            retry_limit: 1,
            backoff_base: 8,
            backoff_jitter: 3,
            lease_ticks: 0,
            election_timeout: 0,
        }
    }
}

/// Result of one chunk's protocol round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Nodes that declared themselves ADMIN (will cache the chunk).
    pub admins: Vec<NodeId>,
    /// Delivered/dropped message counters (CC traffic excluded — it is
    /// accounted by [`crate::view::build_views`]).
    pub stats: MessageStats,
    /// Ticks until every client settled.
    pub ticks: Tick,
    /// Clients that gave up on peers and fell back to the producer.
    pub producer_fallbacks: usize,
    /// Nodes that died mid-round (scheduled deaths actually applied).
    pub deaths: usize,
    /// Clients that resumed bidding because the provider they were
    /// frozen on died — each is one ADMIN re-election attempt.
    pub re_elections: usize,
    /// TIGHT/SPAN retransmissions sent by the retry mechanism.
    pub retries: u64,
    /// Clients settled by the election timeout.
    pub timeouts: u64,
    /// Providers deposed by lease expiry (client thawed back to
    /// bidding because no PONG arrived in time).
    pub depositions: u64,
    /// Tick of the first deposition, if any.
    pub first_deposition: Option<Tick>,
    /// Clients that ended the round cut off from the producer by a
    /// partition — explicit degradation, not silent non-convergence.
    pub degraded: Vec<NodeId>,
    /// Every ADMIN election as `(tick, node)`, in election order.
    pub elections: Vec<(Tick, NodeId)>,
    /// Per-cause chaos fault counters (partition/flap/grey drops,
    /// corruption, duplication, reordering). Disjoint from
    /// [`MessageStats::dropped`], which counts plain loss.
    pub faults: FaultStats,
    /// Engine bookkeeping faults survived without aborting (would-be
    /// [`crate::ProtocolError::MissingPayload`] occurrences).
    pub protocol_errors: u64,
}

/// How often (in ticks) the producer re-broadcasts NPI to nodes that
/// have not joined the round yet (loss recovery).
const NPI_RETRANSMIT_INTERVAL: Tick = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the NPI announcement.
    Idle,
    /// Bidding.
    Active,
    /// Served; bids stopped.
    Frozen,
    /// Volunteered to cache the chunk.
    Admin,
    /// Cut off from the producer by a partition and timed out —
    /// settled, but explicitly unserved this round.
    Degraded,
}

#[derive(Debug, Clone)]
struct NodeState {
    phase: Phase,
    alpha: f64,
    /// TIGHT transmissions per candidate (0 = not sent yet).
    tight_attempts: Vec<u32>,
    /// Earliest tick for the next TIGHT retry, per candidate.
    tight_next: Vec<Tick>,
    /// SPAN transmissions per candidate (0 = not sent yet).
    span_attempts: Vec<u32>,
    /// Earliest tick for the next SPAN retry, per candidate.
    span_next: Vec<Tick>,
    gamma: Vec<f64>,
    beta: Vec<f64>,
    /// TIGHT/SPAN requesters and the tick their first request arrived.
    requesters: Vec<(NodeId, Tick)>,
    /// Nodes whose SPAN escalation reached us (by identity, so a
    /// supporter's death can strike it from the election tally).
    span_from: Vec<NodeId>,
    /// Who froze us — the admin or relay this node is served through.
    /// `None` while unsettled, and for self-sufficient phases (ADMIN,
    /// producer fallback). When the provider dies the node thaws.
    provider: Option<NodeId>,
    /// Tick this node (re-)entered the bidding pool, for the election
    /// timeout.
    activated_at: Tick,
    /// Lease expiry tick (meaningful only while frozen on a provider
    /// with leases enabled).
    lease_until: Tick,
    /// Last tick a lease PING was sent.
    last_ping: Tick,
    /// Trace-only: span id of the event that (re-)activated this node
    /// (the NPI delivery, or a deposition). Parents this node's
    /// spontaneous sends; 0 when untraced. Never read by protocol
    /// logic.
    activate_span: u64,
    /// Trace-only: span id of the FREEZE/NADMIN/BADMIN delivery this
    /// node froze on. Parents its lease PINGs and an eventual
    /// deposition; 0 when untraced.
    freeze_span: u64,
}

impl NodeState {
    fn new(member_count: usize) -> Self {
        NodeState {
            phase: Phase::Idle,
            alpha: 0.0,
            tight_attempts: vec![0; member_count],
            tight_next: vec![0; member_count],
            span_attempts: vec![0; member_count],
            span_next: vec![0; member_count],
            gamma: vec![0.0; member_count],
            beta: vec![0.0; member_count],
            requesters: Vec::new(),
            span_from: Vec::new(),
            provider: None,
            activated_at: 0,
            lease_until: 0,
            last_ping: 0,
            activate_span: 0,
            freeze_span: 0,
        }
    }

    fn settled(&self) -> bool {
        matches!(self.phase, Phase::Frozen | Phase::Admin | Phase::Degraded)
    }

    /// Freezes this node on `provider`, starting a lease when enabled.
    /// `span` is the trace span id of the freezing delivery (0 when
    /// untraced) — lease PINGs and an eventual deposition parent to it.
    fn freeze_on(&mut self, provider: NodeId, now: Tick, lease_ticks: Tick, span: u64) {
        self.phase = Phase::Frozen;
        self.provider = Some(provider);
        self.freeze_span = span;
        if lease_ticks > 0 {
            self.lease_until = now + lease_ticks;
            self.last_ping = now;
        }
    }
}

/// Span id of the per-round root span (`dist.round`) in a traced run.
const ROOT_SPAN: u64 = 1;

/// Trace identity and span-id allocator for one traced round. Span ids
/// are a plain counter (root = 1, children from 2 up), so replays
/// allocate identically; ids are never read by protocol logic.
#[derive(Debug)]
struct RoundTrace {
    trace: u64,
    next_span: u64,
}

impl RoundTrace {
    fn alloc(&mut self, parent: u64) -> obs::TraceContext {
        let span = self.next_span;
        self.next_span += 1;
        obs::TraceContext {
            trace: self.trace,
            span,
            parent,
        }
    }
}

/// The deterministic trace id of one chunk round: a pure hash of the
/// seeds that shape the round, the chunk index, and a topology
/// fingerprint (node/edge counts and the producer), so a replay maps
/// to the same trace while different chunks, configs, or networks map
/// to different ones.
pub fn round_trace_id(net: &Network, cfg: &SimConfig, chunk: ChunkId) -> u64 {
    let topology = (net.node_count() as u64)
        .wrapping_add((net.graph().edge_count() as u64).rotate_left(16))
        .wrapping_add((net.producer().index() as u64).rotate_left(40));
    splitmix64(
        cfg.chaos
            .seed
            .wrapping_add(cfg.loss.seed.rotate_left(24))
            .wrapping_add(cfg.jitter.seed.rotate_left(48))
            .wrapping_add((chunk.index() as u64).wrapping_mul(0x9E37_79B9))
            .wrapping_add(splitmix64(topology)),
    )
}

/// The engine plus the chaos layer: every protocol send goes through
/// here so fault injection sees `(now, from, to)` for every message.
/// With tracing on, every send also allocates a causal span whose fate
/// (dropped at the chaos layer, dropped by loss, delivered, expired)
/// is recorded exactly once.
#[derive(Debug)]
struct Wire {
    engine: Engine,
    chaos: ChaosState,
    trace: Option<RoundTrace>,
}

impl Wire {
    fn send(&mut self, now: Tick, from: NodeId, to: NodeId, hops: u32, msg: Message, parent: u64) {
        match self.chaos.on_send(now, from, to, hops) {
            SendFate::Dropped(cause) => {
                if let Some(tr) = &mut self.trace {
                    let ctx = tr.alloc(parent);
                    obs::emit_span(
                        message_span_name(msg.kind()),
                        ctx,
                        now,
                        now,
                        cause.label(),
                        &[
                            ("from", obs::Value::from(from.index())),
                            ("to", obs::Value::from(to.index())),
                        ],
                    );
                }
            }
            SendFate::Deliver {
                extra_delay,
                copies,
            } => {
                for copy in 0..copies {
                    let ctx = match &mut self.trace {
                        Some(tr) => tr.alloc(parent),
                        None => obs::TraceContext::default(),
                    };
                    let scheduled = self.engine.send_tagged(
                        to,
                        hops.saturating_add(extra_delay),
                        msg,
                        now,
                        copy > 0,
                        ctx,
                    );
                    if !scheduled && self.trace.is_some() {
                        obs::emit_span(
                            message_span_name(msg.kind()),
                            ctx,
                            now,
                            now,
                            "dropped:loss",
                            &[
                                ("from", obs::Value::from(from.index())),
                                ("to", obs::Value::from(to.index())),
                            ],
                        );
                    }
                }
            }
        }
    }

    /// Emits an instantaneous marker span (retry, deposition, election,
    /// timeout) and returns its id for parenting follow-on sends.
    /// Returns `parent` unchanged when tracing is off, so callers can
    /// thread the result unconditionally.
    fn mark(
        &mut self,
        name: &'static str,
        parent: u64,
        now: Tick,
        fate: &str,
        node: NodeId,
    ) -> u64 {
        match &mut self.trace {
            Some(tr) => {
                let ctx = tr.alloc(parent);
                obs::emit_span(
                    name,
                    ctx,
                    now,
                    now,
                    fate,
                    &[("node", obs::Value::from(node.index()))],
                );
                ctx.span
            }
            None => parent,
        }
    }
}

/// Per-tick telemetry series of one traced round (only allocated when
/// tracing is on).
#[derive(Debug)]
struct RoundSeries {
    queue_depth: obs::TimeSeries,
    in_flight: obs::TimeSeries,
    unsettled: obs::TimeSeries,
}

impl RoundSeries {
    fn new() -> Self {
        RoundSeries {
            queue_depth: obs::TimeSeries::new("sim.queue_depth"),
            in_flight: obs::TimeSeries::new("sim.in_flight"),
            unsettled: obs::TimeSeries::new("sim.unsettled_clients"),
        }
    }

    fn sample(&mut self, tick: Tick, queued: usize, in_flight: usize, unsettled: usize) {
        self.queue_depth.record(tick, queued as i64);
        self.in_flight.record(tick, in_flight as i64);
        self.unsettled.record(tick, unsettled as i64);
    }

    fn emit(&self) {
        self.queue_depth.emit();
        self.in_flight.emit();
        self.unsettled.emit();
    }
}

/// `span` if it is a real span id, the round root otherwise — so sends
/// triggered by state whose causal span was never recorded still attach
/// to the trace instead of dangling.
fn parent_or_root(span: u64) -> u64 {
    if span == 0 {
        ROOT_SPAN
    } else {
        span
    }
}

/// Mutable per-round counters threaded through the handlers.
#[derive(Debug, Default)]
struct Tally {
    fallbacks: usize,
    deaths_applied: usize,
    re_elections: usize,
    retries: u64,
    timeouts: u64,
    depositions: u64,
    first_deposition: Option<Tick>,
    elections: Vec<(Tick, NodeId)>,
}

/// Exponential backoff with keyed jitter: `base << (attempt-1)` plus a
/// deterministic `0..=backoff_jitter` offset so synchronized retries
/// de-synchronize without drawing from the chaos RNG.
fn retry_delay(liv: &LivenessConfig, node: NodeId, member: usize, attempt: u32, salt: u64) -> Tick {
    let exp = liv
        .backoff_base
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    if liv.backoff_jitter == 0 {
        return exp.max(1);
    }
    let key = splitmix64(
        (node.index() as u64)
            .wrapping_mul(0x1_0000_0001)
            .wrapping_add(member as u64)
            .wrapping_add(u64::from(attempt) << 32)
            .wrapping_add(salt),
    );
    exp.max(1) + key % (liv.backoff_jitter + 1)
}

/// Runs the protocol for one chunk and returns the elected ADMIN set.
///
/// `views` must have been built for the network's *current* caching
/// state (see [`crate::view::build_views`]).
// Dense per-node state arrays (`states`, `dead`, `producer_hops`) are all
// sized to `views.len()` = node_count and indexed by NodeId/member indices
// validated at view construction, so indexing cannot panic here.
#[allow(clippy::indexing_slicing)]
pub fn run_chunk_round(
    net: &Network,
    views: &[LocalView],
    chunk: ChunkId,
    cfg: &SimConfig,
) -> RoundOutcome {
    let producer = net.producer();
    let producer_hops = bfs_hops(net.graph(), producer);
    // The tracing decision is latched once per round: ids feed nothing
    // but the JSONL sink, so outcomes are identical with tracing on or
    // off.
    let tracing = obs::enabled();
    let mut wire = Wire {
        engine: Engine::with_faults(cfg.loss, cfg.jitter),
        chaos: ChaosState::compile(&cfg.chaos),
        trace: tracing.then(|| RoundTrace {
            trace: round_trace_id(net, cfg, chunk),
            next_span: ROOT_SPAN + 1,
        }),
    };
    let mut series = tracing.then(RoundSeries::new);
    let mut states: Vec<NodeState> = views
        .iter()
        .map(|v| NodeState::new(v.members().len()))
        .collect();
    states[producer.index()].phase = Phase::Admin; // always serving
    let mut dead = vec![false; views.len()];
    let mut tally = Tally::default();

    // NPI broadcast: one message per client, delivered at hop distance.
    for j in net.clients() {
        let hops = producer_hops[j.index()].unwrap_or(1);
        wire.send(0, producer, j, hops, Message::Npi { chunk }, ROOT_SPAN);
    }

    let mut tick: Tick = 0;
    while tick < cfg.max_ticks {
        tick += 1;

        // Churn: apply every death due at this tick. The schedule is
        // pre-sorted by (tick, node) and consumed through a cursor, so
        // this is O(deaths due now), not O(all deaths) per tick.
        let due: Vec<(Tick, NodeId)> = wire.chaos.deaths_due(tick).to_vec();
        for (_, node) in due {
            if node != producer && node.index() < dead.len() && !dead[node.index()] {
                apply_death(net, &mut states, &mut dead, node, tick, &mut tally);
                tally.deaths_applied += 1;
            }
        }

        // Lossy links can swallow the NPI broadcast; the producer
        // periodically re-announces so every node eventually joins.
        if tick.is_multiple_of(NPI_RETRANSMIT_INTERVAL) {
            for j in net.clients() {
                if states[j.index()].phase == Phase::Idle && !dead[j.index()] {
                    let hops = producer_hops[j.index()].unwrap_or(1);
                    wire.send(tick, producer, j, hops, Message::Npi { chunk }, ROOT_SPAN);
                }
            }
        }

        // Deliver everything due at this tick, one pop per handler run
        // (handler sends draw the loss/jitter RNGs, so pop order and
        // send order must stay interleaved exactly as scheduled).
        // Messages addressed to a dead node vanish into the void
        // (in-flight messages *from* a node that has since died still
        // arrive — radio waves do not recall themselves).
        while let Some(d) = wire.engine.next_delivery_due(tick) {
            let to_dead = dead[d.to.index()];
            if wire.trace.is_some() {
                let fate = if to_dead {
                    "dead"
                } else if d.dup {
                    "delivered_dup"
                } else {
                    "delivered"
                };
                obs::emit_span(
                    message_span_name(d.msg.kind()),
                    d.ctx,
                    d.sent,
                    d.at,
                    fate,
                    &[("to", obs::Value::from(d.to.index()))],
                );
            }
            if to_dead {
                continue;
            }
            handle_message(
                net,
                views,
                cfg,
                &mut states,
                &mut wire,
                &dead,
                &mut tally,
                d.to,
                d.msg,
                tick,
                d.ctx.span,
            );
        }

        // Lease maintenance: frozen clients ping their provider; an
        // expired lease deposes it (the provider died silently or a
        // partition cut it off) and the client re-enters the election.
        if cfg.liveness.lease_ticks > 0 {
            let ping_every = (cfg.liveness.lease_ticks / 3).max(1);
            for j in net.clients() {
                if dead[j.index()] || states[j.index()].phase != Phase::Frozen {
                    continue;
                }
                let Some(p) = states[j.index()].provider else {
                    continue; // producer-served: the anchor needs no lease
                };
                if tick >= states[j.index()].lease_until {
                    // The deposition is caused by the freeze that set up
                    // the lease; re-activation re-parents the client's
                    // follow-on bids to the deposition marker.
                    let freeze_span = states[j.index()].freeze_span;
                    let dep_span = wire.mark(
                        "dist.deposition",
                        parent_or_root(freeze_span),
                        tick,
                        "deposed",
                        j,
                    );
                    let st = &mut states[j.index()];
                    st.phase = Phase::Active;
                    st.provider = None;
                    st.activated_at = tick;
                    st.activate_span = dep_span;
                    tally.depositions += 1;
                    tally.first_deposition.get_or_insert(tick);
                    if obs::enabled() {
                        obs::counter("dist.deposition").incr();
                    }
                } else if tick.saturating_sub(states[j.index()].last_ping) >= ping_every {
                    states[j.index()].last_ping = tick;
                    let freeze_span = states[j.index()].freeze_span;
                    wire.send(
                        tick,
                        j,
                        p,
                        1,
                        Message::Ping { from: j },
                        parent_or_root(freeze_span),
                    );
                }
            }
        }

        // Per-tick bidding for active clients, in id order.
        for j in net.clients() {
            if states[j.index()].phase != Phase::Active || dead[j.index()] {
                continue;
            }
            let view = &views[j.index()];
            states[j.index()].alpha += cfg.u_alpha;
            for idx in 0..view.members().len() {
                let cost = view.cost(idx);
                if !cost.is_finite() {
                    continue;
                }
                let st = &mut states[j.index()];
                let bid_parent = parent_or_root(st.activate_span);
                if st.alpha >= cost {
                    if st.tight_attempts[idx] == 0 {
                        st.tight_attempts[idx] = 1;
                        st.tight_next[idx] = tick + retry_delay(&cfg.liveness, j, idx, 1, 0x71);
                        wire.send(
                            tick,
                            j,
                            view.members()[idx],
                            view.hops(idx),
                            Message::Tight { from: j },
                            bid_parent,
                        );
                    } else if st.tight_attempts[idx] < cfg.liveness.retry_limit
                        && tick >= st.tight_next[idx]
                    {
                        st.tight_attempts[idx] += 1;
                        let attempt = st.tight_attempts[idx];
                        st.tight_next[idx] =
                            tick + retry_delay(&cfg.liveness, j, idx, attempt, 0x71);
                        tally.retries += 1;
                        if obs::enabled() {
                            obs::counter("dist.retry").incr();
                        }
                        let retry_span = wire.mark("dist.retry", bid_parent, tick, "retry", j);
                        wire.send(
                            tick,
                            j,
                            view.members()[idx],
                            view.hops(idx),
                            Message::Tight { from: j },
                            retry_span,
                        );
                    }
                }
                let st = &mut states[j.index()];
                if st.tight_attempts[idx] > 0 {
                    st.beta[idx] += cfg.u_beta;
                    st.gamma[idx] += cfg.u_gamma;
                    if st.gamma[idx] >= cost {
                        if st.span_attempts[idx] == 0 {
                            st.span_attempts[idx] = 1;
                            st.span_next[idx] = tick + retry_delay(&cfg.liveness, j, idx, 1, 0x53);
                            wire.send(
                                tick,
                                j,
                                view.members()[idx],
                                view.hops(idx),
                                Message::Span { from: j },
                                bid_parent,
                            );
                        } else if st.span_attempts[idx] < cfg.liveness.retry_limit
                            && tick >= st.span_next[idx]
                        {
                            st.span_attempts[idx] += 1;
                            let attempt = st.span_attempts[idx];
                            st.span_next[idx] =
                                tick + retry_delay(&cfg.liveness, j, idx, attempt, 0x53);
                            tally.retries += 1;
                            if obs::enabled() {
                                obs::counter("dist.retry").incr();
                            }
                            let retry_span = wire.mark("dist.retry", bid_parent, tick, "retry", j);
                            wire.send(
                                tick,
                                j,
                                view.members()[idx],
                                view.hops(idx),
                                Message::Span { from: j },
                                retry_span,
                            );
                        }
                    }
                }
            }
            // Fallback: no peer left worth waiting for. Under an active
            // partition the producer may be unreachable — settle as
            // explicitly degraded instead of pretending it can serve.
            if states[j.index()].alpha > cfg.give_up_factor * view.max_cost() + 1.0 {
                let reach = wire.chaos.reachable(tick, j, producer);
                let st = &mut states[j.index()];
                if reach {
                    st.phase = Phase::Frozen;
                    st.provider = None; // served by the producer directly
                    tally.fallbacks += 1;
                } else {
                    st.phase = Phase::Degraded;
                }
            }
        }

        // Election timeout: clients unsettled for too long settle
        // explicitly rather than spinning to the tick budget.
        if cfg.liveness.election_timeout > 0 {
            for j in net.clients() {
                if dead[j.index()] {
                    continue;
                }
                let ph = states[j.index()].phase;
                if ph != Phase::Active && ph != Phase::Idle {
                    continue;
                }
                if tick.saturating_sub(states[j.index()].activated_at)
                    < cfg.liveness.election_timeout
                {
                    continue;
                }
                tally.timeouts += 1;
                if obs::enabled() {
                    obs::counter("dist.election_timeout").incr();
                }
                let reach = wire.chaos.reachable(tick, j, producer);
                wire.mark(
                    "dist.timeout",
                    parent_or_root(states[j.index()].activate_span),
                    tick,
                    if reach { "fallback" } else { "degraded" },
                    j,
                );
                let st = &mut states[j.index()];
                if reach {
                    st.phase = Phase::Frozen;
                    st.provider = None;
                    tally.fallbacks += 1;
                } else {
                    st.phase = Phase::Degraded;
                }
            }
        }

        // Promotion checks (β accounting advances with time, not only
        // with message arrivals).
        for i in net.clients() {
            if !dead[i.index()] {
                let parent = parent_or_root(states[i.index()].activate_span);
                try_promote(
                    net,
                    cfg,
                    &mut states,
                    &mut wire,
                    &mut tally,
                    i,
                    tick,
                    parent,
                );
            }
        }

        // Tick-resolution telemetry (traced runs only): demand-queue
        // depth across nodes, in-flight messages, unsettled clients.
        if let Some(series) = &mut series {
            let queued: usize = states.iter().map(|s| s.requesters.len()).sum();
            let unsettled = net
                .clients()
                .filter(|&j| !dead[j.index()] && !states[j.index()].settled())
                .count();
            series.sample(tick, queued, wire.engine.pending(), unsettled);
        }

        // With leases on, a frozen client whose provider is currently
        // cut off by a partition is not really served — keep the round
        // alive so its lease can expire and depose the provider.
        let lease_on = cfg.liveness.lease_ticks > 0;
        if net.clients().all(|j| {
            if dead[j.index()] || !states[j.index()].settled() {
                return dead[j.index()];
            }
            if !lease_on {
                return true;
            }
            match states[j.index()].provider {
                Some(p) => wire.chaos.reachable(tick, j, p),
                None => true,
            }
        }) {
            break;
        }
    }

    // Anything still unsettled at the budget is served by the producer
    // when reachable, or reported as degraded when partitioned off.
    for j in net.clients() {
        if !dead[j.index()] && !states[j.index()].settled() {
            if wire.chaos.reachable(tick, j, producer) {
                states[j.index()].phase = Phase::Frozen;
                states[j.index()].provider = None;
                tally.fallbacks += 1;
            } else {
                states[j.index()].phase = Phase::Degraded;
            }
        }
    }

    #[cfg(feature = "strict-invariants")]
    strict_round_audit(net, &states, &dead, &wire.chaos);

    let admins: Vec<NodeId> = net
        .clients()
        .filter(|&i| states[i.index()].phase == Phase::Admin && !dead[i.index()])
        .collect();
    let degraded: Vec<NodeId> = net
        .clients()
        .filter(|&i| states[i.index()].phase == Phase::Degraded && !dead[i.index()])
        .collect();
    let stats = *wire.engine.stats();
    let faults = wire.chaos.stats;
    let protocol_errors = wire.engine.payload_misses();
    if wire.trace.is_some() {
        // Close the spans of messages still in flight at round end —
        // they will never arrive, so every trace terminates.
        for d in wire.engine.drain_pending() {
            obs::emit_span(
                message_span_name(d.msg.kind()),
                d.ctx,
                d.sent,
                tick,
                "expired",
                &[("to", obs::Value::from(d.to.index()))],
            );
        }
    }
    if let Some(tr) = &wire.trace {
        obs::emit_span(
            "dist.round",
            obs::TraceContext {
                trace: tr.trace,
                span: ROOT_SPAN,
                parent: 0,
            },
            0,
            tick,
            if tick < cfg.max_ticks {
                "settled"
            } else {
                "budget"
            },
            &[
                ("chunk", obs::Value::from(chunk.index())),
                ("admins", obs::Value::from(admins.len())),
                ("spans", obs::Value::from(tr.next_span - 1)),
            ],
        );
    }
    if let Some(series) = &series {
        series.emit();
    }
    if obs::enabled() {
        let mut fields = vec![
            ("chunk", obs::Value::from(chunk.index())),
            ("converged_tick", obs::Value::from(tick)),
            ("converged", obs::Value::from(tick < cfg.max_ticks)),
            ("admins", obs::Value::from(admins.len())),
            ("producer_fallbacks", obs::Value::from(tally.fallbacks)),
            ("dropped", obs::Value::from(stats.dropped)),
            ("deaths", obs::Value::from(tally.deaths_applied)),
            ("re_elections", obs::Value::from(tally.re_elections)),
            ("retries", obs::Value::from(tally.retries)),
            ("timeouts", obs::Value::from(tally.timeouts)),
            ("depositions", obs::Value::from(tally.depositions)),
            ("degraded", obs::Value::from(degraded.len())),
            ("chaos_faults", obs::Value::from(faults.total())),
        ];
        for (kind, n) in stats.per_kind() {
            fields.push((kind.label(), obs::Value::from(n)));
        }
        obs::event("dist.sim.converged", &fields);
        obs::gauge("dist.degraded_clients").set(degraded.len() as i64);
    }
    RoundOutcome {
        admins,
        stats,
        ticks: tick,
        producer_fallbacks: tally.fallbacks,
        deaths: tally.deaths_applied,
        re_elections: tally.re_elections,
        retries: tally.retries,
        timeouts: tally.timeouts,
        depositions: tally.depositions,
        first_deposition: tally.first_deposition,
        degraded,
        elections: tally.elections,
        faults,
        protocol_errors,
    }
}

/// Post-round oracle (strict-invariants builds only): every client must
/// have settled one way or another, no corpse may appear as a provider,
/// and degradation is only legal when the plan actually contains
/// partition windows.
// Node-count-sized arrays indexed by in-range NodeIds, as in the round
// body.
#[cfg(feature = "strict-invariants")]
#[allow(clippy::indexing_slicing)]
fn strict_round_audit(net: &Network, states: &[NodeState], dead: &[bool], chaos: &ChaosState) {
    for j in net.clients() {
        if dead[j.index()] {
            continue;
        }
        let st = &states[j.index()];
        assert!(
            st.settled(),
            "strict: client {j} left the round unsettled (phase {:?})",
            st.phase
        );
        if let Some(p) = st.provider {
            assert!(
                !dead[p.index()],
                "strict: client {j} is frozen on dead provider {p}"
            );
        }
        if st.phase == Phase::Degraded {
            assert!(
                chaos.has_partitions(),
                "strict: client {j} degraded without any partition window in the plan"
            );
        }
    }
}

/// Kills `node`: strikes it from every election tally and thaws every
/// client that was frozen on it as provider, sending them back to
/// bidding (the distributed analog of the world layer's orphan repair —
/// the thawed clients re-elect an ADMIN or fall back to the producer).
// `states`/`dead` are node-count-sized; `node` is bounds-checked by the
// caller before scheduling the death.
#[allow(clippy::indexing_slicing)]
fn apply_death(
    net: &Network,
    states: &mut [NodeState],
    dead: &mut [bool],
    node: NodeId,
    now: Tick,
    tally: &mut Tally,
) {
    dead[node.index()] = true;
    for j in net.clients() {
        if j == node || dead[j.index()] {
            continue;
        }
        let st = &mut states[j.index()];
        st.requesters.retain(|&(r, _)| r != node);
        st.span_from.retain(|&r| r != node);
        if st.phase == Phase::Frozen && st.provider == Some(node) {
            st.phase = Phase::Active;
            st.provider = None;
            st.activated_at = now;
            // Causally the re-bid starts a fresh arc: parent it on the
            // round root rather than the dead provider's freeze.
            st.activate_span = 0;
            tally.re_elections += 1;
        }
    }
}

// Per-node arrays are node-count-sized and member indices come from
// `LocalView::index_of`, which only returns in-bounds positions.
#[allow(clippy::too_many_arguments, clippy::indexing_slicing)]
fn handle_message(
    net: &Network,
    views: &[LocalView],
    cfg: &SimConfig,
    states: &mut [NodeState],
    wire: &mut Wire,
    dead: &[bool],
    tally: &mut Tally,
    to: NodeId,
    msg: Message,
    now: Tick,
    parent: u64,
) {
    let lease = cfg.liveness.lease_ticks;
    match msg {
        Message::Npi { .. } => {
            if states[to.index()].phase == Phase::Idle {
                states[to.index()].phase = Phase::Active;
                states[to.index()].activated_at = now;
                states[to.index()].activate_span = parent;
            }
        }
        Message::Tight { from } | Message::Span { from } => {
            let is_span = matches!(msg, Message::Span { .. });
            let phase = states[to.index()].phase;
            if !states[to.index()]
                .requesters
                .iter()
                .any(|&(r, _)| r == from)
            {
                states[to.index()].requesters.push((from, now));
            }
            match phase {
                Phase::Admin => {
                    // Producer or an elected admin: serve immediately.
                    wire.send(now, to, from, 1, Message::Freeze { provider: to }, parent);
                }
                Phase::Frozen if net.remaining(to) == 0 => {
                    // INACTIVE branch (Table I): a node that cannot cache
                    // anything points the requester at itself as a relay
                    // toward its own provider.
                    wire.send(now, to, from, 1, Message::Freeze { provider: to }, parent);
                }
                Phase::Frozen | Phase::Degraded => {
                    // A served node with spare storage stays quiet: its
                    // requesters keep bidding until an admin emerges or
                    // they fall back to the producer. Answering with a
                    // relay here would freeze the whole network before
                    // any election could gather SPAN support. Degraded
                    // nodes are out of the round entirely.
                }
                Phase::Active | Phase::Idle => {
                    if is_span {
                        if !states[to.index()].span_from.contains(&from) {
                            states[to.index()].span_from.push(from);
                        }
                        try_promote(net, cfg, states, wire, tally, to, now, parent);
                    }
                }
            }
        }
        Message::Freeze { provider } => {
            // A freeze naming an already-dead provider is stale news
            // from before the death; accepting it would strand the
            // client on a corpse.
            if dead[provider.index()] {
                return;
            }
            if states[to.index()].phase == Phase::Active || states[to.index()].phase == Phase::Idle
            {
                states[to.index()].freeze_on(provider, now, lease, parent);
            }
        }
        Message::NAdmin { admin } => {
            if dead[admin.index()] {
                return;
            }
            if states[to.index()].phase == Phase::Active || states[to.index()].phase == Phase::Idle
            {
                states[to.index()].freeze_on(admin, now, lease, parent);
                // Our pending requesters can reach the chunk through us.
                let requesters: Vec<NodeId> = states[to.index()]
                    .requesters
                    .iter()
                    .map(|&(r, _)| r)
                    .collect();
                for r in requesters {
                    wire.send(now, to, r, 1, Message::Freeze { provider: admin }, parent);
                }
            }
        }
        Message::BAdmin { admin } => {
            // Freeze only when we actually contributed resources toward
            // this admin (the paper's β_j > Con_j guard).
            if dead[admin.index()] {
                return;
            }
            let view = &views[to.index()];
            if states[to.index()].phase == Phase::Active {
                if let Some(idx) = view.index_of(admin) {
                    if states[to.index()].beta[idx] > 0.0 {
                        states[to.index()].freeze_on(admin, now, lease, parent);
                        let requesters: Vec<NodeId> = states[to.index()]
                            .requesters
                            .iter()
                            .map(|&(r, _)| r)
                            .collect();
                        for r in requesters {
                            wire.send(now, to, r, 1, Message::Freeze { provider: admin }, parent);
                        }
                    }
                }
            }
        }
        Message::Ping { from } => {
            // Only a node that still serves — an admin (the producer
            // included) or a full relay — renews its clients' leases.
            let phase = states[to.index()].phase;
            let serving =
                phase == Phase::Admin || (phase == Phase::Frozen && net.remaining(to) == 0);
            if serving {
                wire.send(now, to, from, 1, Message::Pong { provider: to }, parent);
            }
        }
        Message::Pong { provider } => {
            let st = &mut states[to.index()];
            if lease > 0 && st.phase == Phase::Frozen && st.provider == Some(provider) {
                st.lease_until = now + lease;
            }
        }
        Message::CollectContention { .. } | Message::ContentionReply { .. } => {
            // CC traffic is modeled by `view::build_views`.
        }
    }
}

/// Declares `i` ADMIN when it has storage, enough SPAN supporters, and
/// the observed resource contributions cover its fairness cost.
// Same bound proof as `handle_message`: node-count-sized arrays,
// view-validated member indices.
#[allow(clippy::too_many_arguments, clippy::indexing_slicing)]
fn try_promote(
    net: &Network,
    cfg: &SimConfig,
    states: &mut [NodeState],
    wire: &mut Wire,
    tally: &mut Tally,
    i: NodeId,
    now: Tick,
    parent: u64,
) {
    if states[i.index()].phase != Phase::Active && states[i.index()].phase != Phase::Idle {
        return;
    }
    if net.remaining(i) == 0 {
        return; // a full node never volunteers
    }
    if states[i.index()].span_from.len() < cfg.span_threshold {
        return;
    }
    // Collected β estimate: every requester bids U_β per tick since its
    // request arrived.
    let collected: f64 = states[i.index()]
        .requesters
        .iter()
        .map(|&(_, since)| cfg.u_beta * (now.saturating_sub(since)) as f64)
        .sum();
    let f_i = net.fairness_cost(i);
    if collected < f_i {
        return;
    }
    states[i.index()].phase = Phase::Admin;
    tally.elections.push((now, i));
    // The election marker is caused by the SPAN arrival (or bid tick)
    // that tipped the threshold; the announcements are its children.
    let election_span = wire.mark("dist.election", parent, now, "elected", i);
    let requesters: Vec<NodeId> = states[i.index()]
        .requesters
        .iter()
        .map(|&(r, _)| r)
        .collect();
    for r in &requesters {
        wire.send(now, i, *r, 1, Message::NAdmin { admin: i }, election_span);
    }
    for j in net.clients() {
        if j != i && !requesters.contains(&j) {
            wire.send(now, i, j, 1, Message::BAdmin { admin: i }, election_span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MessageKind;
    use crate::view::build_views;
    use peercache_core::workload::paper_grid;

    fn round(side: usize, k: u32, cfg: &SimConfig) -> RoundOutcome {
        let net = paper_grid(side).unwrap();
        let (views, _) = build_views(&net, k).unwrap();
        run_chunk_round(&net, &views, ChunkId::new(0), cfg)
    }

    #[test]
    fn round_terminates_and_elects_admins() {
        let out = round(6, 2, &SimConfig::default());
        assert!(out.ticks < SimConfig::default().max_ticks);
        assert!(!out.admins.is_empty(), "a 6x6 grid should elect caches");
        assert!(out.stats[MessageKind::Tight] > 0);
        assert!(out.stats[MessageKind::Span] > 0);
    }

    #[test]
    fn default_config_keeps_every_liveness_mechanism_inert() {
        // The liveness/chaos extensions must be strictly opt-in: a
        // default round sends no lease traffic, retries nothing, and
        // injects no chaos faults.
        let out = round(5, 2, &SimConfig::default());
        assert_eq!(out.retries, 0);
        assert_eq!(out.timeouts, 0);
        assert_eq!(out.depositions, 0);
        assert_eq!(out.first_deposition, None);
        assert!(out.degraded.is_empty());
        assert_eq!(out.faults, FaultStats::default());
        assert_eq!(out.protocol_errors, 0);
        assert_eq!(out.stats[MessageKind::Ping], 0);
        assert_eq!(out.stats[MessageKind::Pong], 0);
        // Elections are recorded and match the admin set.
        let mut elected: Vec<NodeId> = out.elections.iter().map(|&(_, n)| n).collect();
        elected.sort_unstable();
        assert_eq!(elected, out.admins);
    }

    #[test]
    fn producer_never_becomes_admin() {
        let net = paper_grid(4).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &SimConfig::default());
        assert!(!out.admins.contains(&net.producer()));
    }

    #[test]
    fn one_hop_scope_elects_fewer_admins_than_two_hop() {
        let k1 = round(6, 1, &SimConfig::default());
        let k2 = round(6, 2, &SimConfig::default());
        assert!(
            k1.admins.len() <= k2.admins.len(),
            "k=1 gave {} admins, k=2 gave {}",
            k1.admins.len(),
            k2.admins.len()
        );
    }

    #[test]
    fn huge_span_threshold_blocks_elections() {
        let cfg = SimConfig {
            span_threshold: 10_000,
            ..Default::default()
        };
        let out = round(4, 2, &cfg);
        assert!(out.admins.is_empty());
        // Everybody fell back to the producer but the round terminated.
        assert!(out.producer_fallbacks > 0);
    }

    #[test]
    fn full_nodes_never_volunteer() {
        let mut net = paper_grid(3).unwrap();
        // Fill every client completely.
        for j in net.clients().collect::<Vec<_>>() {
            for c in 0..net.capacity(j) {
                net.cache(j, ChunkId::new(100 + c)).unwrap();
            }
        }
        let (views, _) = build_views(&net, 2).unwrap();
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &SimConfig::default());
        assert!(out.admins.is_empty());
    }

    #[test]
    fn rounds_are_deterministic() {
        let a = round(5, 2, &SimConfig::default());
        let b = round(5, 2, &SimConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn survives_delivery_jitter() {
        let cfg = SimConfig {
            jitter: JitterConfig {
                max_extra_ticks: 4,
                seed: 9,
            },
            ..Default::default()
        };
        let out = round(5, 2, &cfg);
        assert!(out.ticks < cfg.max_ticks);
        // Jitter reorders elections but the protocol still caches.
        assert!(!out.admins.is_empty());
    }

    #[test]
    fn survives_heavy_message_loss() {
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.3,
                seed: 42,
            },
            ..Default::default()
        };
        let out = round(5, 2, &cfg);
        assert!(
            out.ticks < cfg.max_ticks,
            "lossy round must still terminate"
        );
        assert!(out.stats.dropped > 0);
    }

    #[test]
    fn loss_and_jitter_combined_still_converge_via_retransmission() {
        // Both fault injectors at once: 25% drops plus up to 3 ticks of
        // extra delay. NPI retransmission must still pull every client
        // into the round and the round must settle.
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.25,
                seed: 7,
            },
            jitter: JitterConfig {
                max_extra_ticks: 3,
                seed: 11,
            },
            ..Default::default()
        };
        let out = round(6, 2, &cfg);
        assert!(out.ticks < cfg.max_ticks);
        assert!(out.stats.dropped > 0, "25% loss must drop something");
        // Every client settled one way or the other.
        let net = paper_grid(6).unwrap();
        assert!(out.admins.len() + out.producer_fallbacks <= net.graph().node_count());
        assert!(
            !out.admins.is_empty() || out.producer_fallbacks > 0,
            "clients must settle on an admin or the producer"
        );
    }

    #[test]
    fn message_counts_stay_bounded_under_retransmission() {
        // TIGHT and SPAN are sent at most once per (client, candidate)
        // pair regardless of loss (retries are off by default), and NPI
        // retransmission is bounded by one broadcast per client per
        // retransmit interval.
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.3,
                seed: 5,
            },
            ..Default::default()
        };
        let net = paper_grid(5).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
        let pair_bound: u64 = views.iter().map(|v| v.members().len() as u64).sum();
        assert!(out.stats[MessageKind::Tight] <= pair_bound);
        assert!(out.stats[MessageKind::Span] <= pair_bound);
        let clients = net.graph().node_count() as u64 - 1;
        let npi_bound = clients * (2 + out.ticks / NPI_RETRANSMIT_INTERVAL);
        assert!(
            out.stats[MessageKind::Npi] <= npi_bound,
            "NPI deliveries {} exceed retransmission bound {npi_bound}",
            out.stats[MessageKind::Npi]
        );
    }

    #[test]
    fn retries_recover_lost_bids_within_the_limit() {
        let liveness = LivenessConfig {
            retry_limit: 4,
            backoff_base: 4,
            backoff_jitter: 2,
            ..LivenessConfig::default()
        };
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.4,
                seed: 13,
            },
            liveness,
            ..Default::default()
        };
        let net = paper_grid(5).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
        assert!(out.ticks < cfg.max_ticks);
        assert!(out.retries > 0, "40% loss must trigger retransmissions");
        // The retry limit still bounds total TIGHT/SPAN traffic.
        let pair_bound: u64 = views.iter().map(|v| v.members().len() as u64).sum();
        let limit = u64::from(liveness.retry_limit);
        assert!(out.stats[MessageKind::Tight] <= pair_bound * limit);
        assert!(out.stats[MessageKind::Span] <= pair_bound * limit);
    }

    #[test]
    fn leases_keep_quiet_on_healthy_rounds_but_ping_providers() {
        // With leases on and nothing failing, pings flow and nobody is
        // deposed.
        let cfg = SimConfig {
            liveness: LivenessConfig {
                lease_ticks: 12,
                ..LivenessConfig::default()
            },
            ..Default::default()
        };
        let out = round(6, 2, &cfg);
        assert!(out.ticks < cfg.max_ticks);
        assert_eq!(out.depositions, 0, "healthy providers keep their leases");
        assert!(!out.admins.is_empty());
    }

    #[test]
    fn partition_deposes_the_severed_admin_and_reelects() {
        // Learn who gets elected first and when, undisturbed; then cut
        // that admin off the tick its NADMIN freezes land (one hop
        // after the election). The lease must depose it within the
        // timeout and the surviving side must settle again (new
        // election or producer fallback).
        let net = paper_grid(6).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let baseline = run_chunk_round(&net, &views, ChunkId::new(0), &SimConfig::default());
        let &(elected_at, victim) = baseline.elections.first().expect("baseline elects");
        let window_from = elected_at + 1;
        let lease = 24;
        let cfg = SimConfig {
            chaos: FaultPlan::new(17).partition(window_from, u64::MAX, vec![victim]),
            liveness: LivenessConfig {
                lease_ticks: lease,
                election_timeout: 400,
                ..LivenessConfig::default()
            },
            ..Default::default()
        };
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
        assert!(out.ticks < cfg.max_ticks, "partitioned round must settle");
        assert!(
            out.depositions >= 1,
            "clients frozen on the severed admin must depose it"
        );
        let first = out.first_deposition.expect("a deposition happened");
        assert!(
            first <= window_from + 2 * lease,
            "deposition at {first} exceeds lease bound {}",
            window_from + 2 * lease
        );
        // The surviving component recovered: someone else got elected
        // after the cut, or the thawed clients fell back to the
        // producer.
        let recovered = out
            .elections
            .iter()
            .any(|&(t, n)| t > window_from && n != victim)
            || out.producer_fallbacks > 0;
        assert!(recovered, "surviving side must re-elect or fall back");
        assert!(out.faults.partition_drops > 0);
    }

    #[test]
    fn clients_cut_from_the_producer_degrade_explicitly() {
        // Node 0 is islanded for the whole round; with an election
        // timeout it must settle as degraded, not burn the tick budget.
        let victim = NodeId::new(0);
        let cfg = SimConfig {
            chaos: FaultPlan::new(3).partition(0, u64::MAX, vec![victim]),
            liveness: LivenessConfig {
                election_timeout: 60,
                ..LivenessConfig::default()
            },
            ..Default::default()
        };
        let out = round(4, 2, &cfg);
        assert!(out.ticks < cfg.max_ticks);
        assert!(out.degraded.contains(&victim));
        assert!(!out.admins.contains(&victim));
        assert!(out.timeouts >= 1);
    }

    #[test]
    fn duplication_and_reordering_do_not_break_elections() {
        // Receivers deduplicate requesters by identity, so duplicated
        // and reordered copies must not change the outcome class.
        let cfg = SimConfig {
            chaos: FaultPlan::new(21).duplicate(0.3).reorder(0.2, 3),
            ..Default::default()
        };
        let out = round(6, 2, &cfg);
        assert!(out.ticks < cfg.max_ticks);
        assert!(out.faults.duplicated > 0);
        assert!(out.faults.delayed > 0);
        assert!(!out.admins.is_empty() || out.producer_fallbacks > 0);
    }

    #[test]
    fn chaos_rounds_replay_byte_identically() {
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.1,
                seed: 2,
            },
            jitter: JitterConfig {
                max_extra_ticks: 2,
                seed: 6,
            },
            chaos: FaultPlan::new(40)
                .drop(0.05)
                .duplicate(0.1)
                .reorder(0.1, 2)
                .corrupt(0.02)
                .partition(30, 80, vec![NodeId::new(0), NodeId::new(1)])
                .flap(NodeId::new(2), NodeId::new(3), 16, 5)
                .grey(NodeId::new(7), 0.3)
                .death(25, NodeId::new(11)),
            liveness: LivenessConfig {
                retry_limit: 3,
                backoff_base: 4,
                backoff_jitter: 2,
                lease_ticks: 20,
                election_timeout: 300,
            },
            ..Default::default()
        };
        let a = round(5, 2, &cfg);
        let b = round(5, 2, &cfg);
        assert_eq!(a, b, "full chaos round must replay byte-identically");
        assert!(a.faults.total() > 0);
    }

    #[test]
    fn death_of_elected_admin_triggers_reelection() {
        // Run once undisturbed to learn who gets elected and when the
        // round settles, then replay with each elected admin dying at
        // each possible tick. Whatever the timing, the round must
        // settle and the corpse must stay out of the admin set; for
        // some (victim, tick) the admin's supporters are caught frozen
        // on it and must thaw back to bidding.
        let net = paper_grid(6).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let baseline = run_chunk_round(&net, &views, ChunkId::new(0), &SimConfig::default());
        assert!(!baseline.admins.is_empty(), "baseline elects admins");
        let mut saw_reelection = false;
        for &victim in &baseline.admins {
            for t in 1..=baseline.ticks {
                let cfg = SimConfig {
                    chaos: FaultPlan::default().death(t, victim),
                    ..Default::default()
                };
                let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
                assert_eq!(out.deaths, 1);
                assert!(out.ticks < cfg.max_ticks, "churned round must settle");
                assert!(!out.admins.contains(&victim), "dead admins cannot cache");
                saw_reelection |= out.re_elections > 0;
            }
        }
        assert!(
            saw_reelection,
            "some death tick must catch clients frozen on an admin"
        );
    }

    #[test]
    fn dead_nodes_never_join_the_admin_set() {
        let net = paper_grid(5).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let victims = [NodeId::new(0), NodeId::new(24)];
        let cfg = SimConfig {
            chaos: FaultPlan::default()
                .death(1, victims[0])
                .death(2, victims[1]),
            ..Default::default()
        };
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
        assert_eq!(out.deaths, 2);
        assert!(out.ticks < cfg.max_ticks);
        for v in victims {
            assert!(!out.admins.contains(&v));
        }
    }

    #[test]
    fn producer_death_is_ignored() {
        let net = paper_grid(4).unwrap();
        let (views, _) = build_views(&net, 2).unwrap();
        let cfg = SimConfig {
            chaos: FaultPlan::default().death(1, net.producer()),
            ..Default::default()
        };
        let out = run_chunk_round(&net, &views, ChunkId::new(0), &cfg);
        let undisturbed = run_chunk_round(&net, &views, ChunkId::new(0), &SimConfig::default());
        assert_eq!(out.deaths, 0);
        assert_eq!(out.admins, undisturbed.admins);
        assert_eq!(out.ticks, undisturbed.ticks);
    }

    #[test]
    fn churned_rounds_are_deterministic() {
        // Loss, jitter, and deaths together must still replay exactly.
        let cfg = SimConfig {
            loss: LossConfig {
                drop_probability: 0.2,
                seed: 3,
            },
            jitter: JitterConfig {
                max_extra_ticks: 2,
                seed: 4,
            },
            chaos: FaultPlan::default()
                .death(5, NodeId::new(3))
                .death(40, NodeId::new(12)),
            ..Default::default()
        };
        let a = round(5, 2, &cfg);
        let b = round(5, 2, &cfg);
        assert_eq!(a, b);
    }
}
