//! The planner interface shared by all caching algorithms.
//!
//! Every algorithm of the evaluation — the approximation algorithm, the
//! exact brute force, and the two prior-work baselines — implements
//! [`CachePlanner`]: given a mutable [`Network`], place `Q` chunks and
//! return the [`Placement`]. Planners mutate the network's caching state
//! as they go, which is exactly what couples chunks together through the
//! fairness and contention costs.

use peercache_graph::paths::{Parallelism, PathSelection};
use peercache_graph::{steiner, NodeId};
use peercache_obs as obs;

use crate::costs::{cost_tie_eq, ContentionMatrix, CostWeights};
use crate::instance::{ConflInstance, SetCosts};
use crate::placement::{ChunkPlacement, Placement};
use crate::replication::ReplicationPolicy;
use crate::{ChunkId, CoreError, Network};

/// The per-chunk telemetry span every planner emits, with the stopwatch
/// that splits it into phases. No-op (and allocation-free) when tracing
/// is off.
#[derive(Debug)]
pub struct ChunkSpan {
    span: obs::Span,
    clock: obs::Stopwatch,
}

impl ChunkSpan {
    /// Records the microseconds since the previous lap (or since the
    /// span opened) as field `name`.
    pub fn lap(&mut self, name: &'static str) {
        let us = self.clock.lap_us();
        self.field(name, us);
    }

    /// Attaches a field to the span.
    pub fn field(&mut self, name: &'static str, value: impl Into<obs::Value>) {
        self.span.add_field(name, value.into());
    }
}

/// Opens the `planner.chunk` span of one chunk; pass it to
/// [`finish_chunk_span`] once the chunk is committed.
pub(crate) fn chunk_span(planner: &'static str, chunk: ChunkId) -> ChunkSpan {
    ChunkSpan {
        span: obs::span!("planner.chunk", planner = planner, chunk = chunk.index()),
        clock: obs::Stopwatch::start(),
    }
}

/// Attaches the committed cost breakdown to the span and drops it,
/// emitting one record per (planner, chunk) with wall time and the
/// fairness/access/dissemination split.
pub(crate) fn finish_chunk_span(mut span: ChunkSpan, cp: &ChunkPlacement) {
    span.field("caches", cp.caches.len());
    span.field("fairness", cp.costs.fairness);
    span.field("access", cp.costs.access);
    span.field("dissemination", cp.costs.dissemination);
    span.field("cost_total", cp.costs.total());
}

/// A caching-placement algorithm.
pub trait CachePlanner {
    /// Short identifier used in figure legends ("Appx", "Brtf", ...).
    fn name(&self) -> &str;

    /// Places chunks `0..chunk_count`, mutating `net`'s caching state,
    /// and returns the full placement.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError`] on invalid parameters,
    /// storage violations, or solver failures.
    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError>;
}

/// Drops facilities that serve no client under the min-cost assignment,
/// iterating until stable.
///
/// The dual ascent (and the greedy baselines) can open a facility whose
/// clients were all claimed by cheaper facilities in the meantime;
/// removing it saves its fairness cost and can only shrink the
/// dissemination tree, while the assignment step reroutes nothing (the
/// facility served nobody). The producer never appears in the result.
///
/// The assignment reads only the instance; `_net` is the network the
/// instance was built for, taken like every other layer function.
pub fn prune_unused_facilities(
    _net: &Network,
    inst: &ConflInstance,
    facilities: &[NodeId],
) -> Vec<NodeId> {
    let mut current: Vec<NodeId> = facilities.to_vec();
    current.sort_unstable();
    current.dedup();
    loop {
        let (assignment, _) = inst.assign_clients(&current);
        let mut used: Vec<NodeId> = assignment
            .iter()
            .map(|&(_, provider)| provider)
            .filter(|&p| p != inst.producer())
            .collect();
        used.sort_unstable();
        used.dedup();
        if used.len() == current.len() {
            return current;
        }
        current = used;
    }
}

/// Greedy improving-removal cleanup: repeatedly drops the facility
/// whose removal most reduces the total ConFL objective (fairness +
/// access + dissemination), until no removal helps.
///
/// The dual ascent can over-open facilities early on — opening is
/// almost free while caches are empty (`f_i ≈ 0`), but every extra copy
/// inflates the contention seen by *later* chunks through the
/// `(1 + S(k))` feedback. This is the standard local-search cleanup
/// phase of primal-dual facility-location algorithms and never
/// increases the current chunk's objective.
///
/// # Errors
///
/// Propagates evaluation failures (cannot occur on a connected
/// [`Network`] with valid facilities).
pub fn improve_by_removal(
    net: &Network,
    inst: &ConflInstance,
    facilities: &[NodeId],
) -> Result<Vec<NodeId>, CoreError> {
    let mut current: Vec<NodeId> = facilities.to_vec();
    current.sort_unstable();
    current.dedup();
    if current.is_empty() {
        return Ok(current);
    }
    // Every tree the search prices reads the instance's shortest-path
    // memo, so each terminal is searched once per chunk, and the commit
    // after it reuses the same trees (see
    // `improve_by_removal_reference` for the original form).
    remove_greedily(inst, &[], current, |caches| {
        let mut terminals = caches.to_vec();
        terminals.push(inst.producer());
        Ok(inst.dissemination_tree(net, &terminals)?.cost)
    })
}

/// The greedy-removal loop shared by [`improve_by_removal`] and the
/// world repair's trim: repeatedly drops the member of `set` whose
/// removal lowers the objective the most (ties to the lowest index),
/// until no removal gains more than `1e-9`. The `pinned` copies always
/// serve and never leave.
///
/// A candidate `S` scores `fairness(S)` plus `access(pinned ∪ S)` plus
/// `M · tree_cost(pinned ∪ S)`, where `tree_cost` prices the
/// dissemination tree over the cache list it is given. Each pass ranks
/// every client's providers once ([`rank_providers`]); removing a member
/// moves exactly the clients it served best, to their second best, so a
/// candidate's access adds the per-client values
/// [`ConflInstance::assign_clients`] would add, in the same client
/// order, in `O(C)` instead of `O(C·F)`.
///
/// # Errors
///
/// Propagates `tree_cost` failures.
pub(crate) fn remove_greedily(
    inst: &ConflInstance,
    pinned: &[NodeId],
    mut set: Vec<NodeId>,
    tree_cost: impl Fn(&[NodeId]) -> Result<f64, CoreError>,
) -> Result<Vec<NodeId>, CoreError> {
    let caches = |set: &[NodeId], skip: Option<usize>| -> Vec<NodeId> {
        let kept = set.iter().enumerate().filter(|&(i, _)| Some(i) != skip);
        pinned
            .iter()
            .copied()
            .chain(kept.map(|(_, &f)| f))
            .collect()
    };
    let fairness = |set: &[NodeId], skip: Option<usize>| -> f64 {
        let kept = set.iter().enumerate().filter(|&(i, _)| Some(i) != skip);
        kept.map(|(_, &f)| inst.facility_cost(f)).sum()
    };
    let objective = |fairness: f64, access: f64, caches: &[NodeId]| {
        Ok::<f64, CoreError>(fairness + access + inst.weights().dissemination * tree_cost(caches)?)
    };
    let mut ranked = rank_providers(inst, &caches(&set, None));
    let access = ranked.iter().fold(0.0, |sum, r| sum + r.best_cost);
    let mut best_total = objective(fairness(&set, None), access, &caches(&set, None))?;
    loop {
        let mut best_removal: Option<(f64, usize)> = None;
        for idx in 0..set.len() {
            let gone = set[idx];
            let access = ranked.iter().fold(0.0, |sum, r| {
                sum + if r.best == gone {
                    r.next_cost
                } else {
                    r.best_cost
                }
            });
            let total = objective(fairness(&set, Some(idx)), access, &caches(&set, Some(idx)))?;
            if total < best_total - 1e-9 && best_removal.is_none_or(|(bt, _)| total < bt) {
                best_removal = Some((total, idx));
            }
        }
        match best_removal {
            Some((total, idx)) => {
                set.remove(idx);
                best_total = total;
                ranked = rank_providers(inst, &caches(&set, None));
            }
            None => return Ok(set),
        }
    }
}

/// One client's providers ranked under `(cost, id)`.
struct Ranked {
    /// The provider [`ConflInstance::assign_clients`] picks.
    best: NodeId,
    /// Its connection cost.
    best_cost: f64,
    /// The cost of the provider that picks up the client once one copy
    /// of `best` leaves.
    next_cost: f64,
}

/// Every client's best provider among `caches ∪ {producer}` and the
/// cost of the best once one copy of it is gone, in client order.
///
/// `(cost, id)` is a strict order, so the least element is the one
/// [`ConflInstance::assign_clients`] picks whatever the order it scans
/// in, and the least after it is the one it picks without that copy.
/// A node listed twice stays a provider after one copy leaves: its
/// second copy ranks next at the same cost.
fn rank_providers(inst: &ConflInstance, caches: &[NodeId]) -> Vec<Ranked> {
    let precedes =
        |a: (NodeId, f64), b: (NodeId, f64)| a.1 < b.1 || (cost_tie_eq(a.1, b.1) && a.0 < b.0);
    let producer = inst.producer();
    inst.clients()
        .iter()
        .map(|&j| {
            let mut best = (producer, inst.connection_cost(producer, j));
            let mut next: Option<(NodeId, f64)> = None;
            for &i in caches {
                let offer = (i, inst.connection_cost(i, j));
                if precedes(offer, best) {
                    next = Some(best);
                    best = offer;
                } else if next.is_none_or(|n| precedes(offer, n)) {
                    next = Some(offer);
                }
            }
            Ranked {
                best: best.0,
                best_cost: best.1,
                // No runner-up only when `caches` is empty, and then no
                // removal is ever priced.
                next_cost: next.map_or(f64::INFINITY, |n| n.1),
            }
        })
        .collect()
}

/// The original improving-removal loop, which rebuilds every Steiner
/// tree from scratch and re-assigns every client per evaluation. Kept
/// verbatim as the oracle behind
/// [`crate::approx::ApproxConfig::reference_mode`]; byte-identical to
/// [`improve_by_removal`].
///
/// # Errors
///
/// Propagates evaluation failures (cannot occur on a connected
/// [`Network`] with valid facilities).
pub fn improve_by_removal_reference(
    net: &Network,
    inst: &ConflInstance,
    facilities: &[NodeId],
) -> Result<Vec<NodeId>, CoreError> {
    let mut current: Vec<NodeId> = facilities.to_vec();
    current.sort_unstable();
    current.dedup();
    if current.is_empty() {
        return Ok(current);
    }
    let evaluate = |set: &[NodeId]| -> Result<f64, CoreError> {
        let fairness: f64 = set.iter().map(|&i| inst.facility_cost(i)).sum();
        let (_, access) = inst.assign_clients(set);
        let mut terminals = set.to_vec();
        terminals.push(inst.producer());
        let tree = steiner::steiner_tree(net.graph(), &terminals, |u, v| {
            inst.matrix().edge_cost(u, v)
        })?;
        let dissemination = inst.weights().dissemination * tree.cost;
        Ok(SetCosts {
            fairness,
            access,
            dissemination,
        }
        .total())
    };
    let mut best_total = evaluate(&current)?;
    loop {
        let mut best_removal: Option<(f64, usize)> = None;
        for idx in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(idx);
            let total = evaluate(&candidate)?;
            if total < best_total - 1e-9 && best_removal.is_none_or(|(bt, _)| total < bt) {
                best_removal = Some((total, idx));
            }
        }
        match best_removal {
            Some((total, idx)) => {
                current.remove(idx);
                best_total = total;
            }
            None => return Ok(current),
        }
    }
}

/// Evaluates `facilities` for `chunk`, commits the copies to the
/// network, and returns the chunk's placement record.
///
/// Partition-aware by construction: the instance's client list is the
/// chunk's audience, so a partition-tolerant world that restricted it to
/// one component (see [`crate::instance::ConflInstance::with_clients`])
/// gets an assignment, tree, and costs scoped to that component — no
/// infinite cross-partition terms can enter.
///
/// # Errors
///
/// Propagates storage errors from [`Network::cache`] and evaluation
/// failures from [`ConflInstance::evaluate_set`].
pub fn commit_chunk(
    net: &mut Network,
    inst: &ConflInstance,
    chunk: ChunkId,
    facilities: &[NodeId],
) -> Result<ChunkPlacement, CoreError> {
    let mut caches: Vec<NodeId> = facilities.to_vec();
    caches.sort_unstable();
    caches.dedup();
    let (costs, assignment, tree_edges) = inst.evaluate_set(net, &caches)?;
    for &i in &caches {
        net.cache(i, chunk)?;
    }
    let placement = ChunkPlacement {
        chunk,
        caches,
        assignment,
        tree_edges,
        costs,
    };
    // Oracle: the dissemination tree must actually connect every cache to
    // the producer at the moment it is committed.
    #[cfg(feature = "strict-invariants")]
    crate::strict::check_tree_connectivity(net, &placement);
    Ok(placement)
}

/// [`commit_chunk`] with R-copy replication: tops the facility set up
/// to `policy.degree` copies (fairness-capped, see
/// [`crate::replication::top_up_targets`]) before evaluating and
/// committing, so the assignment may serve clients from replicas and
/// the dissemination tree is the Steiner tree over *all* R copies plus
/// the producer (the R-connected objective). Replica fairness cost is
/// priced exactly like any opened facility via
/// [`ConflInstance::evaluate_set`].
///
/// A single-copy policy delegates to [`commit_chunk`] unchanged — the
/// pre-replication pipeline stays byte-identical.
///
/// # Errors
///
/// Same as [`commit_chunk`].
pub fn commit_chunk_replicated(
    net: &mut Network,
    inst: &ConflInstance,
    chunk: ChunkId,
    facilities: &[NodeId],
    policy: &crate::replication::ReplicationPolicy,
) -> Result<ChunkPlacement, CoreError> {
    if policy.is_single_copy() {
        return commit_chunk(net, inst, chunk, facilities);
    }
    let mut caches: Vec<NodeId> = facilities.to_vec();
    caches.sort_unstable();
    caches.dedup();
    let extra = crate::replication::top_up_targets(
        net,
        &caches,
        policy,
        |i| inst.facility_cost(i),
        |a, b| inst.connection_cost(a, b),
        inst.producer(),
    );
    caches.extend(extra);
    commit_chunk(net, inst, chunk, &caches)
}

/// The dense per-chunk pipeline: places `chunks` in order on `net`,
/// taking each chunk's facility set from `select` and committing it
/// with [`commit_chunk_replicated`].
///
/// One [`ContentionMatrix`] is carried across the chunks: computed for
/// the first, then refreshed with [`ContentionMatrix::update`] from the
/// previous commit's caches plus the producer — the only nodes whose
/// contention terms a commit changes — so each chunk is priced exactly
/// as a fresh [`ConflInstance::build_for_chunk`] would price it. The
/// pipeline owns each chunk's `planner.chunk` span and records
/// `apsp_recomputed`, `build_us`, `steiner_commit_us` and `spt_solved`
/// (the shortest-path trees the chunk's dissemination trees searched,
/// read off the instance's memo) on it; `select` adds its own phase
/// laps and counters.
///
/// # Errors
///
/// Propagates path-computation, selection and commit failures.
#[allow(clippy::too_many_arguments)]
pub fn plan_chunks(
    planner: &'static str,
    net: &mut Network,
    chunks: impl IntoIterator<Item = ChunkId>,
    weights: CostWeights,
    parallelism: Parallelism,
    replication: &ReplicationPolicy,
    mut select: impl FnMut(
        &Network,
        &ConflInstance,
        ChunkId,
        &mut ChunkSpan,
    ) -> Result<Vec<NodeId>, CoreError>,
) -> Result<Placement, CoreError> {
    let mut placement = Placement::default();
    let mut carried: Option<(ContentionMatrix, Vec<NodeId>)> = None;
    for chunk in chunks {
        let mut span = chunk_span(planner, chunk);
        let (matrix, apsp_recomputed) = match carried.take() {
            Some((mut matrix, dirty)) => {
                let rows = matrix.update(net, &dirty, parallelism)?;
                (matrix, rows)
            }
            None => (
                ContentionMatrix::compute_with(net, PathSelection::FewestHops, parallelism)?,
                net.node_count(),
            ),
        };
        let inst = ConflInstance::build_for_chunk_with_matrix(net, chunk, weights, matrix);
        span.field("apsp_recomputed", apsp_recomputed);
        span.lap("build_us");
        let facilities = select(net, &inst, chunk, &mut span)?;
        // Timed on its own clock: `select` may or may not lap the span's.
        // The commit evaluates the final set, Steiner tree included.
        let mut commit_clock = obs::Stopwatch::start();
        let cp = commit_chunk_replicated(net, &inst, chunk, &facilities, replication)?;
        span.field("steiner_commit_us", commit_clock.lap_us());
        span.field("spt_solved", inst.spt_solved());
        let mut dirty = cp.caches.clone();
        dirty.push(net.producer());
        carried = Some((inst.into_matrix(), dirty));
        finish_chunk_span(span, &cp);
        placement.push(cp);
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::CostWeights;
    use peercache_graph::builders;
    use peercache_graph::paths::PathSelection;

    fn setup() -> (Network, ConflInstance) {
        let net = Network::new(builders::grid(3, 3), NodeId::new(4), 2).unwrap();
        let inst = ConflInstance::build(&net, CostWeights::default()).unwrap();
        (net, inst)
    }

    #[test]
    fn prune_removes_facilities_nobody_uses() {
        // With the full audience every facility serves itself for free
        // and nothing can ever be pruned; a genuinely dominated
        // facility needs a restricted audience. Chunk 0 interests only
        // corner node 0: the adjacent facility 1 serves it strictly
        // cheaper than either the producer (4) or the far corner 8, so
        // 8 serves nobody and must be dropped.
        let (mut net, _) = setup();
        let chunk = crate::ChunkId::new(0);
        net.set_interest(chunk, [NodeId::new(0)]).unwrap();
        let inst = ConflInstance::build_for_chunk(
            &net,
            chunk,
            CostWeights::default(),
            PathSelection::FewestHops,
        )
        .unwrap();
        assert!(
            inst.connection_cost(NodeId::new(1), NodeId::new(0))
                < inst
                    .connection_cost(inst.producer(), NodeId::new(0))
                    .min(inst.connection_cost(NodeId::new(8), NodeId::new(0))),
            "test premise: facility 1 dominates 8 and the producer for client 0"
        );
        let pruned = prune_unused_facilities(&net, &inst, &[NodeId::new(1), NodeId::new(8)]);
        assert_eq!(pruned, vec![NodeId::new(1)]);
    }

    #[test]
    fn prune_keeps_self_serving_facilities() {
        let (net, inst) = setup();
        // Every facility serves at least itself at cost 0, so nothing
        // is pruned from a small spread set.
        let set = [NodeId::new(0), NodeId::new(8)];
        let pruned = prune_unused_facilities(&net, &inst, &set);
        assert_eq!(pruned, vec![NodeId::new(0), NodeId::new(8)]);
    }

    #[test]
    fn commit_chunk_caches_copies_and_reports_costs() {
        let (mut net, inst) = setup();
        let placement = commit_chunk(
            &mut net,
            &inst,
            ChunkId::new(0),
            &[NodeId::new(0), NodeId::new(8)],
        )
        .unwrap();
        assert!(net.is_cached(NodeId::new(0), ChunkId::new(0)));
        assert!(net.is_cached(NodeId::new(8), ChunkId::new(0)));
        assert_eq!(placement.caches.len(), 2);
        assert_eq!(placement.assignment.len(), 8);
        assert!(placement.costs.access > 0.0);
        assert!(placement.costs.dissemination > 0.0);
        assert_eq!(placement.costs.fairness, 0.0); // empty caches before
    }

    #[test]
    fn commit_chunk_rejects_overfull_nodes() {
        let (mut net, _) = setup();
        net.cache(NodeId::new(0), ChunkId::new(10)).unwrap();
        net.cache(NodeId::new(0), ChunkId::new(11)).unwrap();
        let inst = ConflInstance::build(&net, CostWeights::default()).unwrap();
        let err = commit_chunk(&mut net, &inst, ChunkId::new(0), &[NodeId::new(0)]);
        assert!(matches!(err, Err(CoreError::StorageFull { .. })));
    }
}
