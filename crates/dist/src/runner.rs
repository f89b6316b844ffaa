//! [`DistributedPlanner`] — Algorithm 2 as a drop-in planner.
//!
//! Runs one protocol round per chunk on the evolving caching state and
//! reports placements with the same cost model as every centralized
//! planner (so "Dist" is directly comparable in the figures), plus the
//! per-type message statistics §IV-D analyzes.

use std::cell::RefCell;

use peercache_core::costs::CostWeights;
use peercache_core::placement::Placement;
use peercache_core::planner::{plan_chunks, prune_unused_facilities, CachePlanner};
use peercache_core::{ChunkId, CoreError, Network, ReplicationPolicy};
use peercache_graph::paths::{Parallelism, PathSelection};

use peercache_obs as obs;

use crate::engine::{LossConfig, Tick};
use crate::protocol::MessageStats;
use crate::sim::{run_chunk_round, SimConfig};
use crate::view::build_views;

/// Configuration of the distributed planner.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedConfig {
    /// Scope of local control messages in hops (the paper picks 2 as
    /// the overhead/performance sweet spot, Fig. 3).
    pub k_hops: u32,
    /// Protocol bid parameters.
    pub sim: SimConfig,
    /// Objective weights used when reporting costs.
    pub weights: CostWeights,
    /// The route model used when reporting costs. Unread: every path is
    /// hop-shortest, the one [`PathSelection`] variant.
    pub selection: PathSelection,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            k_hops: 2,
            sim: SimConfig::default(),
            weights: CostWeights::default(),
            selection: PathSelection::FewestHops,
        }
    }
}

/// Per-run report: message traffic and convergence times per chunk.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Message counters summed over all chunk rounds (CC included).
    pub messages: MessageStats,
    /// Message counters for each chunk's round (CC included), in chunk
    /// order; `messages` is their sum.
    pub per_chunk: Vec<MessageStats>,
    /// Ticks to convergence, one entry per chunk.
    pub ticks_per_chunk: Vec<Tick>,
    /// Clients that fell back to the producer, per chunk.
    pub fallbacks_per_chunk: Vec<usize>,
    /// TIGHT/SPAN retransmissions across all rounds.
    pub retries: u64,
    /// Lease-expiry depositions across all rounds.
    pub depositions: u64,
    /// [`crate::ProtocolError`] occurrences the run survived without
    /// aborting (currently engine payload misses), across all rounds.
    pub protocol_errors: u64,
    /// Kind of the first such error (see [`crate::ProtocolError::kind`]),
    /// when any occurred.
    pub first_error: Option<String>,
}

/// The distributed planner ("Dist" in the figures).
#[derive(Debug, Clone, Default)]
pub struct DistributedPlanner {
    /// Planner parameters.
    pub config: DistributedConfig,
    last_report: RefCell<RunReport>,
}

impl DistributedPlanner {
    /// Creates a planner with explicit parameters.
    pub fn new(config: DistributedConfig) -> Self {
        DistributedPlanner {
            config,
            last_report: RefCell::new(RunReport::default()),
        }
    }

    /// Creates a planner with the default protocol limited to `k` hops.
    pub fn with_k_hops(k: u32) -> Self {
        DistributedPlanner::new(DistributedConfig {
            k_hops: k,
            ..Default::default()
        })
    }

    /// Creates a planner with message-loss fault injection.
    pub fn with_loss(loss: LossConfig) -> Self {
        let mut config = DistributedConfig::default();
        config.sim.loss = loss;
        DistributedPlanner::new(config)
    }

    /// The message/convergence report of the most recent
    /// [`CachePlanner::plan`] call.
    pub fn last_report(&self) -> RunReport {
        self.last_report.borrow().clone()
    }
}

impl CachePlanner for DistributedPlanner {
    fn name(&self) -> &str {
        "Dist"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        if self.config.k_hops == 0 {
            return Err(CoreError::InvalidParameter(
                "k_hops must be at least 1".into(),
            ));
        }
        let mut report = RunReport::default();
        let mut plan_span = obs::span!(
            "dist.plan",
            chunks = chunk_count,
            k_hops = self.config.k_hops
        );
        // Costs are reported with the shared global model, so Dist is
        // comparable with Appx/Brtf/Hopc/Cont.
        let placement = plan_chunks(
            "Dist",
            net,
            (0..chunk_count).map(ChunkId::new),
            self.config.weights,
            Parallelism::Sequential,
            &ReplicationPolicy::default(),
            |net, inst, chunk, _| {
                // Carry the causal trace id so the RAII round summary and
                // the per-message spans of the same round can be joined.
                let round_span = obs::span!(
                    "dist.round",
                    chunk = chunk.index(),
                    trace = crate::sim::round_trace_id(net, &self.config.sim, chunk)
                );
                // CC exchange against the current caching state.
                let (views, cc_stats) = build_views(net, self.config.k_hops)?;
                let mut round_stats = cc_stats;
                let outcome = run_chunk_round(net, &views, chunk, &self.config.sim);
                round_stats.merge(&outcome.stats);
                report.messages.merge(&round_stats);
                report.per_chunk.push(round_stats);
                report.ticks_per_chunk.push(outcome.ticks);
                report.fallbacks_per_chunk.push(outcome.producer_fallbacks);
                report.retries += outcome.retries;
                report.depositions += outcome.depositions;
                if outcome.protocol_errors > 0 {
                    report.protocol_errors += outcome.protocol_errors;
                    if report.first_error.is_none() {
                        // The engine's only survivable bookkeeping fault.
                        report.first_error = Some("MissingPayload".to_string());
                    }
                }
                emit_round_record(round_span, &round_stats, &outcome);
                // No improving-removal cleanup here: that pass needs
                // global information a distributed node does not have.
                // Only the assignment-level prune (an artifact of
                // reporting) runs.
                Ok(prune_unused_facilities(net, inst, &outcome.admins))
            },
        )?;
        plan_span.add_field("messages_total", obs::Value::from(report.messages.total()));
        plan_span.add_field("dropped", obs::Value::from(report.messages.dropped));
        drop(plan_span);
        *self.last_report.borrow_mut() = report;
        Ok(placement)
    }
}

/// Closes one chunk round's span with the per-kind delivered counters,
/// drops, convergence ticks, and election outcome.
fn emit_round_record(
    mut span: obs::Span,
    stats: &MessageStats,
    outcome: &crate::sim::RoundOutcome,
) {
    if !span.is_recording() {
        return;
    }
    for (kind, n) in stats.per_kind() {
        span.add_field(kind.label(), obs::Value::from(n));
    }
    span.add_field("dropped", obs::Value::from(stats.dropped));
    span.add_field("ticks", obs::Value::from(outcome.ticks));
    span.add_field("admins", obs::Value::from(outcome.admins.len()));
    span.add_field(
        "producer_fallbacks",
        obs::Value::from(outcome.producer_fallbacks),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MessageKind;
    use peercache_core::metrics;
    use peercache_core::workload::paper_grid;

    #[test]
    fn plans_all_chunks_and_reports_traffic() {
        let mut net = paper_grid(5).unwrap();
        let planner = DistributedPlanner::default();
        let placement = planner.plan(&mut net, 3).unwrap();
        assert_eq!(placement.chunks().len(), 3);
        let report = planner.last_report();
        assert_eq!(report.ticks_per_chunk.len(), 3);
        assert!(report.messages.total() > 0);
        assert!(report.messages[MessageKind::Cc] > 0);
        assert!(report.messages[MessageKind::Npi] > 0);
    }

    #[test]
    fn per_chunk_stats_sum_to_the_report_total() {
        let mut net = paper_grid(5).unwrap();
        let planner = DistributedPlanner::default();
        planner.plan(&mut net, 3).unwrap();
        let report = planner.last_report();
        assert_eq!(report.per_chunk.len(), 3);
        let mut summed = MessageStats::default();
        for s in &report.per_chunk {
            summed.merge(s);
        }
        assert_eq!(summed, report.messages);
        // The delivered/dropped split is an invariant of the report:
        // total() is exactly the per-kind sum, drops live outside it.
        let by_kind: u64 = report.messages.per_kind().map(|(_, n)| n).sum();
        assert_eq!(report.messages.total(), by_kind);
    }

    #[test]
    fn message_complexity_is_within_the_papers_bound() {
        // §IV-D: O(QN + N^2) messages. Check against a generous
        // constant on two sizes.
        for side in [4usize, 6] {
            let mut net = paper_grid(side).unwrap();
            let q = 3;
            let planner = DistributedPlanner::default();
            planner.plan(&mut net, q).unwrap();
            let n = (side * side) as u64;
            let bound = 20 * (q as u64 * n + q as u64 * n * n);
            let total = planner.last_report().messages.total();
            assert!(
                total <= bound,
                "{side}x{side}: {total} messages exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn distributed_spreads_load_like_the_paper() {
        let mut net = paper_grid(6).unwrap();
        DistributedPlanner::default().plan(&mut net, 5).unwrap();
        let loads: Vec<usize> = net.clients().map(|c| net.used(c)).collect();
        let g = metrics::gini(&loads);
        assert!(
            g < 0.6,
            "distributed gini {g} should beat fixed-set baselines"
        );
        let distinct = loads.iter().filter(|&&l| l > 0).count();
        assert!(distinct >= 8, "only {distinct} caching nodes used");
    }

    #[test]
    fn zero_k_hops_is_rejected() {
        let mut net = paper_grid(3).unwrap();
        let planner = DistributedPlanner::with_k_hops(0);
        assert!(matches!(
            planner.plan(&mut net, 1),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn lossy_runs_complete() {
        let mut net = paper_grid(4).unwrap();
        let planner = DistributedPlanner::with_loss(LossConfig {
            drop_probability: 0.2,
            seed: 3,
        });
        let placement = planner.plan(&mut net, 2).unwrap();
        assert_eq!(placement.chunks().len(), 2);
        assert!(planner.last_report().messages.dropped > 0);
    }

    #[test]
    fn deterministic_given_fixed_seeds() {
        let run = || {
            let mut net = paper_grid(4).unwrap();
            let planner = DistributedPlanner::default();
            let p = planner.plan(&mut net, 3).unwrap();
            (p, planner.last_report().messages)
        };
        let (p1, m1) = run();
        let (p2, m2) = run();
        assert_eq!(p1, p2);
        assert_eq!(m1, m2);
    }
}
