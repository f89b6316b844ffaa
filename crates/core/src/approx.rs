//! The paper's approximation algorithm (Algorithm 1).
//!
//! Per chunk, a **primal-dual dual ascent** in the style of the
//! 6.55-approximation ConFL algorithm of Jung et al. \[20\] selects the
//! caching (ADMIN) set, and a Steiner tree connects it to the producer
//! for dissemination. Chunks are processed iteratively; the storage
//! consumed by earlier chunks raises both the Fairness Degree Cost and
//! the Contention Cost seen by later chunks, which is what spreads load
//! (Theorem 1 shows the iteration preserves the approximation ratio).
//!
//! Mechanics of one chunk (mirroring the paper's variables):
//!
//! * every unfrozen client `j` raises a connection bid `α_j` by `U_α`
//!   per round;
//! * when `α_j ≥ c_ij` for an **open** facility `i` (the producer is
//!   open from the start), `j` connects and freezes;
//! * when `α_j ≥ c_ij` for a **closed** candidate `i ≠ j`, `j` starts
//!   contributing a resource bid `β_ij` toward the facility cost and a
//!   relay bid `γ_ij` toward the dissemination tree (`U_β`, `U_γ` per
//!   round) — `β` is the dual of the fairness term, `γ` plays the role
//!   of the `θ` variables that pay for Steiner edges in dual (9);
//! * a closed candidate opens when the resource bids cover its fairness
//!   cost (`Σ_j β_ij ≥ f_i`), the relay bids cover the (estimated)
//!   `M`-scaled cost of attaching it to the already-connected set
//!   (`Σ_j γ_ij ≥ M · attach(i)`), and at least
//!   [`ApproxConfig::span_threshold`] clients support it;
//! * opening freezes its supporters; the loop ends when every client is
//!   frozen (guaranteed: `α_j` eventually covers the producer's cost).
//!
//! Clients never bid on themselves (`i ≠ j`), matching the distributed
//! algorithm where TIGHT/SPAN requests go to *other* nodes; a client
//! whose own node opens still serves itself at zero cost afterwards.

use peercache_graph::paths::{Parallelism, PathSelection};
use peercache_graph::NodeId;

use crate::costs::CostWeights;
use crate::instance::{ConflCosts, ConflInstance};
use crate::placement::Placement;
use peercache_obs as obs;

use crate::planner::{
    chunk_span, commit_chunk_replicated, finish_chunk_span, improve_by_removal,
    improve_by_removal_reference, plan_chunks, prune_unused_facilities, CachePlanner, ChunkSpan,
};
use crate::replication::ReplicationPolicy;
use crate::{ChunkId, CoreError, Network};

/// Tuning parameters of the approximation algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxConfig {
    /// Per-round increment of the connection bids `α_j` (`U_α`).
    pub u_alpha: f64,
    /// Per-round increment of the facility contributions `β_ij` (`U_β`).
    pub u_beta: f64,
    /// Per-round increment of the relay bids `γ_ij` (`U_γ`).
    pub u_gamma: f64,
    /// Number of relay-tight supporters required to open a facility
    /// (the `M` of Algorithm 2's ADMIN rule).
    pub span_threshold: usize,
    /// Objective weights (fairness / contention / dissemination).
    pub weights: CostWeights,
    /// The route model of the contention metric. Unread: every path is
    /// hop-shortest, the one [`PathSelection`] variant.
    pub selection: PathSelection,
    /// Thread fan-out for the all-pairs shortest-path phases. Purely a
    /// wall-clock knob: every setting produces byte-identical plans.
    pub parallelism: Parallelism,
    /// Test-only escape hatch: run the original unoptimized pipeline —
    /// full contention recompute every chunk and the fixed-increment
    /// round-scanning dual ascent. The optimized path is proven against
    /// this oracle by the determinism regression tests; production code
    /// has no reason to enable it.
    pub reference_mode: bool,
    /// R-copy replication: after the ascent settles a chunk's facility
    /// set, top it up to [`ReplicationPolicy::degree`] copies under the
    /// per-node replica-load fairness cap. The default single-copy
    /// policy leaves every planner byte-identical to the pre-replication
    /// pipeline.
    pub replication: ReplicationPolicy,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            u_alpha: 1.0,
            u_beta: 1.0,
            // Relay bids grow faster than connection bids: supporters
            // share the dissemination attachment, and the attachment
            // estimate (a node-weighted path cost) counts interior
            // nodes once where the true edge sum counts them twice.
            // Calibrated on the paper's 6x6 scenario (§V): the default
            // yields ~7-10 caching nodes per chunk, a Gini coefficient
            // around 0.25 and a total contention cost at or below the
            // Contention-based baseline — the paper's reported regime.
            u_gamma: 8.0,
            span_threshold: 1,
            weights: CostWeights::default(),
            selection: PathSelection::FewestHops,
            parallelism: Parallelism::Auto,
            reference_mode: false,
            replication: ReplicationPolicy::default(),
        }
    }
}

impl ApproxConfig {
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        for (name, v) in [
            ("u_alpha", self.u_alpha),
            ("u_beta", self.u_beta),
            ("u_gamma", self.u_gamma),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(CoreError::InvalidParameter(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if self.span_threshold == 0 {
            return Err(CoreError::InvalidParameter(
                "span_threshold must be at least 1".into(),
            ));
        }
        self.replication.validate()?;
        Ok(())
    }
}

/// Outcome statistics of one chunk's dual ascent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualAscentStats {
    /// Rounds until every client froze.
    pub rounds: usize,
    /// Facilities opened (before unused-facility pruning).
    pub opened: usize,
    /// Clients frozen because their α went tight with an already-open
    /// facility (or the producer) — the "tight edge" events of §IV-B.
    pub tight_events: usize,
}

/// Runs the dual ascent for one chunk and returns the opened facility
/// set (sorted) plus statistics.
///
/// Dispatches to the event-driven implementation unless
/// [`ApproxConfig::reference_mode`] asks for the original
/// round-scanning loop; both produce byte-identical results.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for non-positive increments
/// and propagates internal failures.
pub fn dual_ascent(
    net: &Network,
    inst: &ConflInstance,
    cfg: &ApproxConfig,
) -> Result<(Vec<NodeId>, DualAscentStats), CoreError> {
    cfg.validate()?;
    if cfg.reference_mode {
        dual_ascent_reference(net, inst, cfg)
    } else {
        let result = dual_ascent_fast(inst, cfg)?;
        // Oracle: re-run the reference loop with dual-feasibility and
        // complementary-slackness assertions armed, and require the fast
        // path's opened set to match it exactly.
        #[cfg(feature = "strict-invariants")]
        crate::strict::check_dual_solution(inst, cfg, &result.0);
        Ok(result)
    }
}

/// Runs the event-driven dual ascent over any [`ConflCosts`] view —
/// the entry point the hierarchical planner uses for its per-region
/// sub-instances backed by [`crate::scoped::ScopedContention`].
///
/// Identical algorithm and tie-breaks as the fast path of
/// [`dual_ascent`]; with `strict-invariants` enabled the reference
/// replay oracle is armed against the same view.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] for non-positive increments
/// and propagates internal failures.
pub fn dual_ascent_scoped<V: ConflCosts>(
    view: &V,
    cfg: &ApproxConfig,
) -> Result<(Vec<NodeId>, DualAscentStats), CoreError> {
    cfg.validate()?;
    let result = dual_ascent_fast(view, cfg)?;
    #[cfg(feature = "strict-invariants")]
    crate::strict::check_dual_solution(view, cfg, &result.0);
    Ok(result)
}

/// What bounds the ascents over a chunk's audience: the cost of the
/// producer's connection to its farthest client.
pub(crate) const PRODUCER_COST: &str = "producer connection cost";

/// Termination bound of a dual ascent: once `α_j` reaches its anchor
/// cost, `j` freezes, so the round count is bounded by
/// `max_cost / U_α` (§IV-B's `C = max{c_ij}/U_α`), plus slack for the
/// same-round checks. Saturates rather than wraps on huge ratios.
///
/// # Errors
///
/// Returns [`CoreError::NonFiniteCost`] naming `what` when `max_cost`
/// is not finite: a client the anchor cannot reach never freezes.
pub(crate) fn round_cap(
    what: &'static str,
    max_cost: f64,
    u_alpha: f64,
) -> Result<usize, CoreError> {
    if !max_cost.is_finite() {
        return Err(CoreError::NonFiniteCost {
            what,
            value: max_cost,
        });
    }
    Ok(((max_cost / u_alpha).ceil() as usize).saturating_add(2))
}

/// The original fixed-increment round loop, kept verbatim as the oracle
/// the optimized ascent is regression-tested against.
fn dual_ascent_reference(
    net: &Network,
    inst: &ConflInstance,
    cfg: &ApproxConfig,
) -> Result<(Vec<NodeId>, DualAscentStats), CoreError> {
    let n = net.node_count();
    let producer = inst.producer();
    let clients: Vec<NodeId> = inst.clients().to_vec();
    let candidates = inst.candidates();

    let mut alpha = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut open = vec![false; n];
    // Dense bid matrices indexed [facility][client].
    let mut beta = vec![0.0f64; n * n];
    let mut beta_sum = vec![0.0f64; n];
    let mut gamma = vec![0.0f64; n * n];
    let mut gamma_sum = vec![0.0f64; n];
    // Estimated cost of attaching each candidate to the connected set
    // (open facilities ∪ producer); shrinks as facilities open.
    let mut attach: Vec<f64> = (0..n)
        .map(|i| inst.connection_cost(producer, NodeId::new(i)))
        .collect();

    let max_producer_cost = clients
        .iter()
        .map(|&j| inst.connection_cost(producer, j))
        .fold(0.0f64, f64::max);
    let round_cap = round_cap(PRODUCER_COST, max_producer_cost, cfg.u_alpha)?;

    let mut ascent_span = obs::span!(
        "core.dual_ascent",
        clients = clients.len(),
        candidates = candidates.len(),
    );
    let mut rounds = 0usize;
    let mut tight_events = 0usize;
    while clients.iter().any(|&j| !frozen[j.index()]) {
        rounds += 1;
        if rounds > round_cap {
            return Err(CoreError::InvalidParameter(format!(
                "dual ascent failed to converge within {round_cap} rounds"
            )));
        }

        // 1. Raise connection bids.
        for &j in &clients {
            if !frozen[j.index()] {
                alpha[j.index()] += cfg.u_alpha;
            }
        }

        // 2. Freeze clients tight with an open facility (producer
        //    included; a client whose own node is open freezes at cost 0).
        for &j in &clients {
            if frozen[j.index()] {
                continue;
            }
            let tight_open = alpha[j.index()] >= inst.connection_cost(producer, j)
                || candidates
                    .iter()
                    .any(|&i| open[i.index()] && alpha[j.index()] >= inst.connection_cost(i, j));
            if tight_open {
                frozen[j.index()] = true;
                tight_events += 1;
            }
        }

        // 3. Contributions toward closed candidates (never self-bids):
        //    β pays the fairness cost, γ pays the tree attachment.
        for &j in &clients {
            if frozen[j.index()] {
                continue;
            }
            for &i in &candidates {
                if i == j || open[i.index()] {
                    continue;
                }
                if alpha[j.index()] >= inst.connection_cost(i, j) {
                    let f_i = inst.facility_cost(i);
                    let room = f_i - beta_sum[i.index()];
                    if room > 0.0 {
                        let add = cfg.u_beta.min(room);
                        beta[i.index() * n + j.index()] += add;
                        beta_sum[i.index()] += add;
                    }
                    gamma[i.index() * n + j.index()] += cfg.u_gamma;
                    gamma_sum[i.index()] += cfg.u_gamma;
                }
            }
        }

        // 4. Open facilities whose fairness cost and attachment cost are
        //    both paid and whose supporter count meets the SPAN
        //    threshold; freeze their supporters. Openings are
        //    serialized — one per round, best-supported first — because
        //    supporters overlap: batching would open many facilities on
        //    the *same* contributors before freezing can take effect
        //    (the continuous-time primal-dual processes these events one
        //    at a time).
        let mut best_open: Option<(usize, NodeId)> = None;
        for &i in &candidates {
            if open[i.index()] {
                continue;
            }
            let f_i = inst.facility_cost(i);
            if beta_sum[i.index()] + 1e-12 < f_i {
                continue;
            }
            let attach_due = inst.weights().dissemination * attach[i.index()];
            if gamma_sum[i.index()] + 1e-12 < attach_due {
                continue;
            }
            let supporters = clients
                .iter()
                .filter(|&&j| {
                    j != i && !frozen[j.index()] && gamma[i.index() * n + j.index()] > 0.0
                })
                .count();
            if supporters >= cfg.span_threshold
                && best_open.is_none_or(|(bs, bi)| supporters > bs || (supporters == bs && i < bi))
            {
                best_open = Some((supporters, i));
            }
        }
        if let Some((_, i)) = best_open {
            open[i.index()] = true;
            for &j in &clients {
                if frozen[j.index()] || j == i {
                    continue;
                }
                if beta[i.index() * n + j.index()] > 0.0 || gamma[i.index() * n + j.index()] > 0.0 {
                    frozen[j.index()] = true;
                }
            }
            // The new facility shrinks everyone's attachment estimate.
            for (k, slot) in attach.iter_mut().enumerate() {
                let via = inst.connection_cost(i, NodeId::new(k));
                if via < *slot {
                    *slot = via;
                }
            }
        }
    }

    let facilities: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&i| open[i.index()])
        .collect();
    let stats = DualAscentStats {
        rounds,
        opened: facilities.len(),
        tight_events,
    };
    if ascent_span.is_recording() {
        ascent_span.add_field("rounds", obs::Value::from(stats.rounds));
        ascent_span.add_field("opened", obs::Value::from(stats.opened));
        ascent_span.add_field("tight_events", obs::Value::from(stats.tight_events));
    }
    Ok((facilities, stats))
}

/// Pays `adds` per-round contributions of `u_beta` into a facility's
/// resource-bid total, each capped by the remaining room up to the
/// fairness cost `f` — the exact fold the reference loop performs, so
/// the saturated total lands on the same bit pattern.
fn accrue_beta(beta_sum: &mut f64, f: f64, u_beta: f64, adds: usize) {
    for _ in 0..adds {
        let room = f - *beta_sum;
        if room <= 0.0 {
            break;
        }
        *beta_sum += u_beta.min(room);
    }
}

/// Smallest round `r ≥ 1` with `r·u_alpha ≥ c`, i.e. the round at which
/// a bid of cost `c` goes tight. The `ceil` guess is fixed up in both
/// directions so floating-point division error cannot shift the event
/// by a round. `None` for unreachable (non-finite) costs.
fn tight_round_of(c: f64, u_alpha: f64) -> Option<u64> {
    if !c.is_finite() {
        return None;
    }
    if c <= u_alpha {
        return Some(1);
    }
    let mut t = (c / u_alpha).ceil();
    while t * u_alpha < c {
        t += 1.0;
    }
    while t > 1.0 && (t - 1.0) * u_alpha >= c {
        t -= 1.0;
    }
    Some(t as u64)
}

/// Event-driven dual ascent, byte-identical to
/// [`dual_ascent_reference`].
///
/// Three observations collapse the reference loop's per-round
/// `O(n²)` scans:
///
/// 1. Every unfrozen client's bid is `α = r·U_α` — a single scalar per
///    round; a frozen client's bid is never read again.
/// 2. The per-pair `β_ij`/`γ_ij` matrices are only ever *read* as
///    "is this pair contributing?", and a pair `(i, j)` contributes in
///    round `r` exactly when `i` is closed, `j` is unfrozen and
///    `r·U_α ≥ c_ij`. The round each pair first activates is therefore
///    known up front (`tight_round_of`), so pairs are bucket-sorted by
///    activation round and drained with a cursor, and each candidate
///    only needs its *count* of active supporters (`tight`).
/// 3. Rounds with no activation, no freeze and no opening change state
///    by a predictable amount, so the loop computes the round of the
///    next event (next α-freeze, next pair activation, next possible
///    opening) and jumps straight to the round before it, batch-paying
///    the skipped rounds' β/γ contributions. The bounds are
///    conservative lower bounds: undershooting just executes a few
///    exact (cheap) rounds; events themselves always run exactly.
fn dual_ascent_fast<V: ConflCosts>(
    inst: &V,
    cfg: &ApproxConfig,
) -> Result<(Vec<NodeId>, DualAscentStats), CoreError> {
    let producer = inst.producer();
    let clients: Vec<NodeId> = inst.clients().to_vec();
    let candidates: Vec<NodeId> = inst.candidates();
    let nc = clients.len();
    let ncand = candidates.len();
    let m_weight = inst.weights().dissemination;

    // Same termination bound as the reference loop, same error message.
    let max_producer_cost = clients
        .iter()
        .map(|&j| inst.connection_cost(producer, j))
        .fold(0.0f64, f64::max);
    let round_cap = round_cap(PRODUCER_COST, max_producer_cost, cfg.u_alpha)?;
    let cap = round_cap as u64;

    let mut ascent_span = obs::span!(
        "core.dual_ascent",
        clients = clients.len(),
        candidates = candidates.len(),
    );

    // Per-client: cheapest open facility (producer to start) and the
    // closed candidates whose pair went tight while the client was
    // unfrozen (walked to decrement supporter counts on freeze).
    let mut frozen = vec![false; nc];
    let mut freeze_c: Vec<f64> = clients
        .iter()
        .map(|&j| inst.connection_cost(producer, j))
        .collect();
    let mut tight_lists: Vec<Vec<u32>> = vec![Vec::new(); nc];

    // Per-candidate: bid totals, live supporter count, shrinking
    // attachment estimate.
    let mut open = vec![false; ncand];
    let mut beta_sum = vec![0.0f64; ncand];
    let mut gamma_sum = vec![0.0f64; ncand];
    let mut tight = vec![0usize; ncand];
    let f_cost: Vec<f64> = candidates.iter().map(|&i| inst.facility_cost(i)).collect();
    let mut attach: Vec<f64> = candidates
        .iter()
        .map(|&i| inst.connection_cost(producer, i))
        .collect();

    // All (candidate, client) pairs keyed by first-tight round,
    // counting-sorted when the round range is dense enough (order
    // within a round is irrelevant — only counts reach the totals).
    let mut pairs: Vec<(u64, u32, u32)> = Vec::new();
    for (is, &i) in candidates.iter().enumerate() {
        for (js, &j) in clients.iter().enumerate() {
            if i == j {
                continue;
            }
            if let Some(r) = tight_round_of(inst.connection_cost(i, j), cfg.u_alpha) {
                if r <= cap {
                    pairs.push((r, is as u32, js as u32));
                }
            }
        }
    }
    let max_round = pairs.iter().map(|p| p.0).max().unwrap_or(0) as usize;
    if max_round <= pairs.len().saturating_mul(8) + 1024 {
        let mut counts = vec![0usize; max_round + 2];
        for p in &pairs {
            counts[p.0 as usize + 1] += 1;
        }
        for r in 1..counts.len() {
            counts[r] += counts[r - 1];
        }
        let mut sorted = vec![(0u64, 0u32, 0u32); pairs.len()];
        for p in &pairs {
            let slot = &mut counts[p.0 as usize];
            sorted[*slot] = *p;
            *slot += 1;
        }
        pairs = sorted;
    } else {
        pairs.sort_unstable_by_key(|p| p.0);
    }
    let mut cursor = 0usize;

    let mut unfrozen_left = nc;
    let mut r: u64 = 0;
    let mut exact_rounds = 0usize;
    let mut tight_events = 0usize;
    while unfrozen_left > 0 {
        r += 1;
        if r > cap {
            return Err(CoreError::InvalidParameter(format!(
                "dual ascent failed to converge within {round_cap} rounds"
            )));
        }
        exact_rounds += 1;
        let alpha = r as f64 * cfg.u_alpha;

        // Step 2 of the reference loop: freeze clients tight with an
        // open facility (producer included).
        for js in 0..nc {
            if !frozen[js] && alpha >= freeze_c[js] {
                frozen[js] = true;
                unfrozen_left -= 1;
                tight_events += 1;
                for &is in &tight_lists[js] {
                    tight[is as usize] -= 1;
                }
            }
        }
        if unfrozen_left == 0 {
            // Steps 3–4 are no-ops with no unfrozen contributors
            // (span_threshold ≥ 1 blocks openings), as in the reference.
            break;
        }

        // Step 3, split: (a) activate pairs going tight this round...
        while cursor < pairs.len() && pairs[cursor].0 <= r {
            debug_assert_eq!(pairs[cursor].0, r, "pair activation round was skipped");
            let (_, is, js) = pairs[cursor];
            cursor += 1;
            if !frozen[js as usize] && !open[is as usize] {
                tight[is as usize] += 1;
                tight_lists[js as usize].push(is);
            }
        }
        // ...(b) pay this round's contributions per candidate.
        for is in 0..ncand {
            let t = tight[is];
            if open[is] || t == 0 {
                continue;
            }
            accrue_beta(&mut beta_sum[is], f_cost[is], cfg.u_beta, t);
            gamma_sum[is] += t as f64 * cfg.u_gamma;
        }

        // Step 4: open the best-supported paid-up candidate (smallest
        // id on ties — slot order is id order), freeze its supporters,
        // shrink attachment estimates.
        let mut best: Option<(usize, usize)> = None;
        for is in 0..ncand {
            if open[is] || beta_sum[is] + 1e-12 < f_cost[is] {
                continue;
            }
            if gamma_sum[is] + 1e-12 < m_weight * attach[is] {
                continue;
            }
            let supporters = tight[is];
            if supporters >= cfg.span_threshold && best.is_none_or(|(bs, _)| supporters > bs) {
                best = Some((supporters, is));
            }
        }
        if let Some((_, is_open)) = best {
            open[is_open] = true;
            let i = candidates[is_open];
            for js in 0..nc {
                let j = clients[js];
                if frozen[js] || j == i {
                    continue;
                }
                // A pair bid (β or γ) is nonzero iff it has activated,
                // which for an unfrozen client means α ≥ c_ij now.
                if alpha >= inst.connection_cost(i, j) {
                    frozen[js] = true;
                    unfrozen_left -= 1;
                    for &is in &tight_lists[js] {
                        tight[is as usize] -= 1;
                    }
                }
            }
            for (js, &j) in clients.iter().enumerate() {
                let via = inst.connection_cost(i, j);
                if via < freeze_c[js] {
                    freeze_c[js] = via;
                }
            }
            for (is, &k) in candidates.iter().enumerate() {
                let via = inst.connection_cost(i, k);
                if via < attach[is] {
                    attach[is] = via;
                }
            }
        }
        if unfrozen_left == 0 {
            break;
        }

        // Fast-forward: lower-bound the round of the next event and
        // jump to just before it, batch-paying the skipped rounds.
        let mut next_event = u64::MAX;
        for js in 0..nc {
            if frozen[js] {
                continue;
            }
            let t = tight_round_of(freeze_c[js], cfg.u_alpha).unwrap_or(u64::MAX);
            next_event = next_event.min(t.max(r + 1));
        }
        if cursor < pairs.len() {
            next_event = next_event.min(pairs[cursor].0.max(r + 1));
        }
        for is in 0..ncand {
            let t = tight[is];
            if open[is] || t == 0 || t < cfg.span_threshold {
                continue;
            }
            // Rounds until both bid targets could be met at the current
            // accrual rate (β may saturate early, so this is a lower
            // bound; supporter-count changes are events themselves and
            // bound `next_event` through the clauses above).
            let beta_rounds = if beta_sum[is] + 1e-12 >= f_cost[is] {
                0
            } else {
                let need = f_cost[is] - 1e-12 - beta_sum[is];
                (need / (t as f64 * cfg.u_beta)).floor().max(0.0) as u64
            };
            let attach_due = m_weight * attach[is];
            let gamma_rounds = if gamma_sum[is] + 1e-12 >= attach_due {
                0
            } else {
                let need = attach_due - 1e-12 - gamma_sum[is];
                (need / (t as f64 * cfg.u_gamma)).floor().max(0.0) as u64
            };
            next_event = next_event.min(r + beta_rounds.max(gamma_rounds).max(1));
        }
        if next_event > r + 1 {
            let k = (next_event - r - 1).min(cap.saturating_sub(r));
            if k > 0 {
                for is in 0..ncand {
                    let t = tight[is];
                    if open[is] || t == 0 {
                        continue;
                    }
                    accrue_beta(
                        &mut beta_sum[is],
                        f_cost[is],
                        cfg.u_beta,
                        t.saturating_mul(k as usize),
                    );
                    gamma_sum[is] += k as f64 * t as f64 * cfg.u_gamma;
                }
                r += k;
            }
        }
    }

    let facilities: Vec<NodeId> = candidates
        .iter()
        .enumerate()
        .filter(|&(is, _)| open[is])
        .map(|(_, &i)| i)
        .collect();
    let stats = DualAscentStats {
        rounds: r as usize,
        opened: facilities.len(),
        tight_events,
    };
    if ascent_span.is_recording() {
        ascent_span.add_field("rounds", obs::Value::from(stats.rounds));
        ascent_span.add_field("opened", obs::Value::from(stats.opened));
        ascent_span.add_field("tight_events", obs::Value::from(stats.tight_events));
        ascent_span.add_field("events", obs::Value::from(exact_rounds));
    }
    Ok((facilities, stats))
}

/// The approximation-algorithm planner ("Appx" in the figures).
#[derive(Debug, Clone, Default)]
pub struct ApproxPlanner {
    /// Algorithm parameters.
    pub config: ApproxConfig,
}

impl ApproxPlanner {
    /// Creates a planner with explicit parameters.
    pub fn new(config: ApproxConfig) -> Self {
        ApproxPlanner { config }
    }

    /// Ascent → prune → improve: the facility set Appx commits for one
    /// chunk, with the phase laps and ascent counters on its span.
    fn select(
        &self,
        net: &Network,
        inst: &ConflInstance,
        span: &mut ChunkSpan,
    ) -> Result<Vec<NodeId>, CoreError> {
        let (facilities, stats) = dual_ascent(net, inst, &self.config)?;
        span.lap("ascent_us");
        let facilities = prune_unused_facilities(net, inst, &facilities);
        span.lap("prune_us");
        let facilities = if self.config.reference_mode {
            improve_by_removal_reference(net, inst, &facilities)?
        } else {
            improve_by_removal(net, inst, &facilities)?
        };
        span.lap("improve_us");
        span.field("rounds", stats.rounds);
        span.field("tight_events", stats.tight_events);
        span.field("opened", stats.opened);
        span.field("pruned", stats.opened - facilities.len());
        Ok(facilities)
    }
}

impl CachePlanner for ApproxPlanner {
    fn name(&self) -> &str {
        "Appx"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        self.config.validate()?;
        let cfg = &self.config;
        if !cfg.reference_mode {
            return plan_chunks(
                "Appx",
                net,
                (0..chunk_count).map(ChunkId::new),
                cfg.weights,
                cfg.parallelism,
                &cfg.replication,
                |net, inst, _, span| self.select(net, inst, span),
            );
        }
        // The oracle loop: a fresh all-pairs matrix and the original
        // removal search every chunk.
        let mut placement = Placement::default();
        for q in 0..chunk_count {
            let chunk = ChunkId::new(q);
            let mut span = chunk_span("Appx", chunk);
            let inst = ConflInstance::build_for_chunk(net, chunk, cfg.weights, cfg.selection)?;
            span.field("apsp_recomputed", net.node_count());
            span.lap("build_us");
            let facilities = self.select(net, &inst, &mut span)?;
            let cp = commit_chunk_replicated(net, &inst, chunk, &facilities, &cfg.replication)?;
            span.lap("steiner_commit_us");
            finish_chunk_span(span, &cp);
            placement.push(cp);
        }
        Ok(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    fn grid_net(side: usize, cap: usize) -> Network {
        Network::new(builders::grid(side, side), NodeId::new(side + 1), cap).unwrap()
    }

    fn build_inst(net: &Network) -> ConflInstance {
        ConflInstance::build(net, CostWeights::default()).unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_increments() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = ApproxConfig {
                u_alpha: bad,
                ..Default::default()
            };
            assert!(cfg.validate().is_err(), "u_alpha {bad} accepted");
        }
        let cfg = ApproxConfig {
            span_threshold: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    /// A client the producer cannot reach has no round cap: both ascent
    /// paths refuse it by name instead of wrapping the cap to one round.
    #[test]
    fn unreachable_client_is_a_typed_error_on_both_paths() {
        let mut net = grid_net(3, 5);
        net.set_partition_policy(crate::model::PartitionPolicy::Allow);
        net.remove_link(NodeId::new(0), NodeId::new(1)).unwrap();
        net.remove_link(NodeId::new(0), NodeId::new(3)).unwrap();
        let inst = build_inst(&net);
        assert!(inst
            .connection_cost(net.producer(), NodeId::new(0))
            .is_infinite());
        for reference_mode in [true, false] {
            let cfg = ApproxConfig {
                reference_mode,
                ..Default::default()
            };
            let err = dual_ascent(&net, &inst, &cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::NonFiniteCost {
                        what: PRODUCER_COST,
                        value
                    } if value.is_infinite()
                ),
                "reference_mode={reference_mode}: {err}"
            );
        }
    }

    #[test]
    fn round_cap_saturates_instead_of_wrapping() {
        assert_eq!(round_cap(PRODUCER_COST, 10.0, 1.0), Ok(12));
        assert_eq!(round_cap(PRODUCER_COST, f64::MAX, 1e-300), Ok(usize::MAX));
        assert!(round_cap(PRODUCER_COST, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn dual_ascent_terminates_and_opens_some_facilities() {
        let net = grid_net(4, 5);
        let inst = build_inst(&net);
        let (facilities, stats) = dual_ascent(&net, &inst, &ApproxConfig::default()).unwrap();
        assert!(stats.rounds > 0);
        assert!(
            !facilities.is_empty(),
            "grid should open at least one cache"
        );
        assert!(facilities.iter().all(|&i| i != net.producer()));
    }

    #[test]
    fn dual_ascent_is_deterministic() {
        let net = grid_net(5, 5);
        let inst = build_inst(&net);
        let (f1, s1) = dual_ascent(&net, &inst, &ApproxConfig::default()).unwrap();
        let (f2, s2) = dual_ascent(&net, &inst, &ApproxConfig::default()).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn huge_span_threshold_leaves_producer_only() {
        let net = grid_net(3, 5);
        let inst = build_inst(&net);
        let cfg = ApproxConfig {
            span_threshold: 1000,
            ..Default::default()
        };
        let (facilities, _) = dual_ascent(&net, &inst, &cfg).unwrap();
        assert!(facilities.is_empty());
    }

    #[test]
    fn bigger_alpha_step_converges_in_fewer_rounds() {
        let net = grid_net(5, 5);
        let inst = build_inst(&net);
        let slow = ApproxConfig {
            u_alpha: 0.5,
            ..Default::default()
        };
        let fast = ApproxConfig {
            u_alpha: 5.0,
            ..Default::default()
        };
        let (_, s_slow) = dual_ascent(&net, &inst, &slow).unwrap();
        let (_, s_fast) = dual_ascent(&net, &inst, &fast).unwrap();
        assert!(s_fast.rounds <= s_slow.rounds);
    }

    #[test]
    fn fast_ascent_matches_reference_bitwise() {
        // The event-driven ascent must reproduce the reference loop
        // exactly — facilities, round count, tight events — across
        // increment configurations (including the non-default α steps
        // exercised elsewhere).
        for (ua, ub, ug, thr) in [
            (1.0, 1.0, 8.0, 1),
            (0.5, 1.0, 8.0, 1),
            (5.0, 1.0, 8.0, 1),
            (1.0, 0.5, 2.0, 2),
            (2.0, 1.0, 4.0, 3),
        ] {
            let net = grid_net(6, 5);
            let inst = build_inst(&net);
            let cfg = ApproxConfig {
                u_alpha: ua,
                u_beta: ub,
                u_gamma: ug,
                span_threshold: thr,
                ..Default::default()
            };
            let reference = ApproxConfig {
                reference_mode: true,
                ..cfg.clone()
            };
            let (f_fast, s_fast) = dual_ascent(&net, &inst, &cfg).unwrap();
            let (f_ref, s_ref) = dual_ascent(&net, &inst, &reference).unwrap();
            assert_eq!(f_fast, f_ref, "facilities diverged for {cfg:?}");
            assert_eq!(s_fast, s_ref, "stats diverged for {cfg:?}");
        }
    }

    #[test]
    fn fast_ascent_matches_reference_on_random_topologies() {
        use rand::SeedableRng;
        for seed in 0..6u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = builders::random_geometric(24, 0.35, &mut rng);
            let net = Network::new(g, NodeId::new(0), 4).unwrap();
            let inst = build_inst(&net);
            let cfg = ApproxConfig::default();
            let reference = ApproxConfig {
                reference_mode: true,
                ..cfg.clone()
            };
            let (f_fast, s_fast) = dual_ascent(&net, &inst, &cfg).unwrap();
            let (f_ref, s_ref) = dual_ascent(&net, &inst, &reference).unwrap();
            assert_eq!(f_fast, f_ref, "facilities diverged for seed {seed}");
            assert_eq!(s_fast, s_ref, "stats diverged for seed {seed}");
        }
    }

    #[test]
    fn planner_matches_reference_mode_plan() {
        let placement = {
            let mut net = grid_net(5, 4);
            ApproxPlanner::default().plan(&mut net, 4).unwrap()
        };
        let reference = {
            let mut net = grid_net(5, 4);
            let cfg = ApproxConfig {
                reference_mode: true,
                ..Default::default()
            };
            ApproxPlanner::new(cfg).plan(&mut net, 4).unwrap()
        };
        assert_eq!(placement.chunks().len(), reference.chunks().len());
        for (a, b) in placement.chunks().iter().zip(reference.chunks()) {
            assert_eq!(a.chunk, b.chunk);
            assert_eq!(a.caches, b.caches);
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.costs.total().to_bits(), b.costs.total().to_bits());
        }
    }

    #[test]
    fn planner_places_all_chunks_respecting_capacity() {
        let mut net = grid_net(4, 3);
        let placement = ApproxPlanner::default().plan(&mut net, 3).unwrap();
        assert_eq!(placement.chunks().len(), 3);
        for n in net.graph().nodes() {
            assert!(net.used(n) <= net.capacity(n));
        }
        // Every chunk is recorded exactly once per caching node.
        for cp in placement.chunks() {
            for &c in &cp.caches {
                assert!(net.is_cached(c, cp.chunk));
            }
            assert_eq!(cp.assignment.len(), net.node_count() - 1);
        }
    }

    #[test]
    fn later_chunks_prefer_less_loaded_nodes() {
        // With fairness in play, the multiset of caching nodes across
        // chunks should involve strictly more distinct nodes than one
        // chunk's facility set (no fixed-set degeneracy).
        let mut net = grid_net(5, 4);
        let placement = ApproxPlanner::default().plan(&mut net, 4).unwrap();
        let first: Vec<NodeId> = placement.chunks()[0].caches.clone();
        let mut all: Vec<NodeId> = placement
            .chunks()
            .iter()
            .flat_map(|c| c.caches.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert!(
            all.len() > first.len(),
            "fairness should recruit new nodes across chunks: {} vs {}",
            all.len(),
            first.len()
        );
    }

    #[test]
    fn zero_chunks_yields_empty_placement() {
        let mut net = grid_net(3, 2);
        let placement = ApproxPlanner::default().plan(&mut net, 0).unwrap();
        assert!(placement.chunks().is_empty());
    }

    #[test]
    fn works_on_random_topologies() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let g = builders::random_geometric(30, 0.3, &mut rng);
        let mut net = Network::new(g, NodeId::new(0), 5).unwrap();
        let placement = ApproxPlanner::default().plan(&mut net, 5).unwrap();
        assert_eq!(placement.chunks().len(), 5);
        assert!(placement.total_contention_cost() > 0.0);
    }
}
