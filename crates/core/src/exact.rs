//! Exact baselines: brute-force subset enumeration ("Brtf") and a MILP
//! cross-check.
//!
//! The paper's optimal baseline solves the ILP with PuLP for small
//! networks and reports that it "fails to obtain results within
//! meaningful time" beyond that. Here:
//!
//! * [`BruteForcePlanner`] enumerates every facility subset per chunk
//!   with cost-bound pruning. Its dissemination tree uses the same
//!   2-approximate Steiner routine as the other planners, so it is
//!   exact in facility choice and assignment, and tree-approximate —
//!   the practical "optimal" the figures compare against.
//! * [`MilpPlanner`] encodes one chunk's ConFL as a mixed-integer
//!   program (single-commodity-flow connectivity replaces the
//!   exponential cut family (6)) and solves it with `peercache-lp` —
//!   the certified optimum, viable only on tiny graphs, used in tests
//!   to validate the brute force.

// Index loops below walk several parallel arrays at once; iterator
// chains would obscure the lockstep structure.
#![allow(clippy::needless_range_loop)]

use peercache_graph::NodeId;
use peercache_lp::{solve_milp, MilpOptions, Model, Relation, Sense};

use peercache_graph::paths::Parallelism;

use crate::costs::CostWeights;
use crate::instance::ConflInstance;
use crate::placement::Placement;
use crate::planner::{plan_chunks, CachePlanner};
use crate::{ChunkId, CoreError, Network, ReplicationPolicy};

/// Configuration of the exact planners.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactConfig {
    /// Objective weights.
    pub weights: CostWeights,
    /// Refuse to enumerate beyond this many facility candidates
    /// (`2^max_candidates` subsets). Subsets are 64-bit masks, so the
    /// effective cap is at most 63.
    pub max_candidates: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            weights: CostWeights::default(),
            max_candidates: 20,
        }
    }
}

/// Brute-force exact planner ("Brtf" in the figures).
#[derive(Debug, Clone, Default)]
pub struct BruteForcePlanner {
    /// Planner parameters.
    pub config: ExactConfig,
}

impl BruteForcePlanner {
    /// Creates a planner with explicit parameters.
    pub fn new(config: ExactConfig) -> Self {
        BruteForcePlanner { config }
    }
}

/// Finds the cost-minimal facility subset for one chunk by enumeration.
///
/// Returns the best facility set (sorted). Subsets whose fairness +
/// access cost already exceed the incumbent skip the Steiner-tree
/// evaluation; masks are visited in increasing-cardinality-agnostic
/// numeric order, so the result is deterministic.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] when there are more than
/// `max_candidates` candidates, or more than 63: subsets are enumerated
/// as `u64` masks.
pub fn best_facility_set(
    net: &Network,
    inst: &ConflInstance,
    max_candidates: usize,
) -> Result<Vec<NodeId>, CoreError> {
    let candidates = inst.candidates();
    let max_candidates = max_candidates.min(63);
    if candidates.len() > max_candidates {
        return Err(CoreError::InvalidParameter(format!(
            "brute force limited to {max_candidates} candidates, instance has {}",
            candidates.len()
        )));
    }
    let mut best_set: Vec<NodeId> = Vec::new();
    let (empty_costs, _, _) = inst.evaluate_set(net, &[])?;
    let mut best_total = empty_costs.total();

    let mut subset = Vec::with_capacity(candidates.len());
    for mask in 1u64..(1u64 << candidates.len()) {
        subset.clear();
        let mut fairness = 0.0;
        for (bit, &cand) in candidates.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                subset.push(cand);
                fairness += inst.facility_cost(cand);
            }
        }
        if fairness >= best_total {
            continue;
        }
        let (_, access) = inst.assign_clients(&subset);
        if fairness + access >= best_total {
            continue;
        }
        let (costs, _, _) = inst.evaluate_set(net, &subset)?;
        if costs.total() < best_total {
            best_total = costs.total();
            best_set = subset.clone();
        }
    }
    Ok(best_set)
}

impl CachePlanner for BruteForcePlanner {
    fn name(&self) -> &str {
        "Brtf"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        plan_exact("Brtf", &self.config, net, chunk_count, |net, inst| {
            best_facility_set(net, inst, self.config.max_candidates)
        })
    }
}

/// Places chunks through [`plan_chunks`] with one exact solver's
/// facility set per chunk.
fn plan_exact(
    planner: &'static str,
    config: &ExactConfig,
    net: &mut Network,
    chunk_count: usize,
    solve: impl Fn(&Network, &ConflInstance) -> Result<Vec<NodeId>, CoreError>,
) -> Result<Placement, CoreError> {
    plan_chunks(
        planner,
        net,
        (0..chunk_count).map(ChunkId::new),
        config.weights,
        Parallelism::Sequential,
        &ReplicationPolicy::default(),
        |net, inst, _, _| solve(net, inst),
    )
}

/// Solves one chunk's ConFL instance as a MILP; returns the optimal
/// facility set and the certified objective value.
///
/// Connectivity constraint (6) of the ILP — "the chosen caching nodes
/// form a Steiner tree with the producer" — is encoded compactly with a
/// single-commodity flow: the producer ships one unit to every opened
/// facility and flow may only use purchased edges.
///
/// # Errors
///
/// Returns [`CoreError::Solver`] if branch-and-bound fails (node limit
/// or numerical trouble).
pub fn solve_chunk_milp(
    net: &Network,
    inst: &ConflInstance,
) -> Result<(Vec<NodeId>, f64), CoreError> {
    let producer = inst.producer();
    let candidates = inst.candidates();
    let clients: Vec<NodeId> = inst.clients().to_vec();
    let edges: Vec<(NodeId, NodeId)> = net.graph().edges().collect();
    let big_m = candidates.len().max(1) as f64;

    let mut model = Model::new(Sense::Minimize);

    // y_i: open facility i.
    let y: Vec<_> = candidates
        .iter()
        .map(|&i| model.add_binary_var(format!("y{i}"), inst.facility_cost(i)))
        .collect();
    // x_ij: client j served by facility i (candidates + producer);
    // continuous in [0,1] — integral at any optimum with integral y.
    let providers: Vec<NodeId> = candidates.iter().copied().chain([producer]).collect();
    let mut x = vec![Vec::new(); providers.len()];
    for (pi, &i) in providers.iter().enumerate() {
        for &j in &clients {
            let v = model.add_var(format!("x{i}_{j}"), 0.0, 1.0, inst.connection_cost(i, j));
            x[pi].push(v);
        }
    }
    // z_e: edge bought for dissemination.
    let z: Vec<_> = edges
        .iter()
        .map(|&(u, v)| {
            model.add_binary_var(
                format!("z{u}_{v}"),
                inst.weights().dissemination * inst.matrix().edge_cost(u, v),
            )
        })
        .collect();
    // Directed flows per edge.
    let flow: Vec<(peercache_lp::VarId, peercache_lp::VarId)> = edges
        .iter()
        .map(|&(u, v)| {
            (
                model.add_var(format!("f{u}_{v}"), 0.0, f64::INFINITY, 0.0),
                model.add_var(format!("f{v}_{u}"), 0.0, f64::INFINITY, 0.0),
            )
        })
        .collect();

    // Each client is served exactly once.
    for (jj, _) in clients.iter().enumerate() {
        let terms = (0..providers.len()).map(|pi| (x[pi][jj], 1.0)).collect();
        model.add_constraint(terms, Relation::Eq, 1.0);
    }
    // Serving requires an open facility (producer always open).
    for (pi, _) in candidates.iter().enumerate() {
        for (jj, _) in clients.iter().enumerate() {
            model.add_constraint(vec![(x[pi][jj], 1.0), (y[pi], -1.0)], Relation::Le, 0.0);
        }
    }
    // Flow conservation: every non-producer node absorbs y_i units
    // (0 for non-candidates).
    for node in net.graph().nodes() {
        if node == producer {
            continue;
        }
        let mut terms = Vec::new();
        for (ei, &(u, v)) in edges.iter().enumerate() {
            let (fuv, fvu) = flow[ei];
            if v == node {
                terms.push((fuv, 1.0)); // inflow u->v
                terms.push((fvu, -1.0));
            } else if u == node {
                terms.push((fvu, 1.0)); // inflow v->u
                terms.push((fuv, -1.0));
            }
        }
        let demand = candidates.iter().position(|&c| c == node).map(|ci| y[ci]);
        match demand {
            Some(yv) => {
                terms.push((yv, -1.0));
                model.add_constraint(terms, Relation::Eq, 0.0);
            }
            None => model.add_constraint(terms, Relation::Eq, 0.0),
        }
    }
    // Flow only on purchased edges.
    for (ei, _) in edges.iter().enumerate() {
        let (fuv, fvu) = flow[ei];
        model.add_constraint(
            vec![(fuv, 1.0), (fvu, 1.0), (z[ei], -big_m)],
            Relation::Le,
            0.0,
        );
    }

    let sol = solve_milp(&model, &MilpOptions::default())
        .map_err(|e| CoreError::Solver(e.to_string()))?;
    let set: Vec<NodeId> = candidates
        .iter()
        .enumerate()
        .filter(|&(ci, _)| sol.value(y[ci]) > 0.5)
        .map(|(_, &i)| i)
        .collect();
    Ok((set, sol.objective))
}

/// MILP-backed exact planner ("Ilp"): certified optimum per chunk.
///
/// Only viable on tiny graphs (a handful of binaries per node and
/// edge); used to validate [`BruteForcePlanner`].
#[derive(Debug, Clone, Default)]
pub struct MilpPlanner {
    /// Planner parameters (`max_candidates` is ignored).
    pub config: ExactConfig,
}

impl CachePlanner for MilpPlanner {
    fn name(&self) -> &str {
        "Ilp"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        plan_exact("Ilp", &self.config, net, chunk_count, |net, inst| {
            Ok(solve_chunk_milp(net, inst)?.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    fn small_net() -> Network {
        // 2x3 grid, producer in a corner.
        Network::new(builders::grid(2, 3), NodeId::new(0), 2).unwrap()
    }

    fn inst(net: &Network) -> ConflInstance {
        ConflInstance::build(net, CostWeights::default()).unwrap()
    }

    #[test]
    fn brute_force_beats_or_matches_any_fixed_set() {
        let net = small_net();
        let i = inst(&net);
        let best = best_facility_set(&net, &i, 20).unwrap();
        let (best_costs, _, _) = i.evaluate_set(&net, &best).unwrap();
        // Compare against a few arbitrary sets.
        for set in [
            vec![],
            vec![NodeId::new(5)],
            vec![NodeId::new(1), NodeId::new(4)],
            vec![NodeId::new(2), NodeId::new(3), NodeId::new(5)],
        ] {
            let (costs, _, _) = i.evaluate_set(&net, &set).unwrap();
            assert!(
                best_costs.total() <= costs.total() + 1e-9,
                "set {set:?} beat brute force"
            );
        }
    }

    #[test]
    fn brute_force_rejects_oversized_instances() {
        // 80 candidates: over a cap of 10, and over the 63 a `u64` mask
        // can enumerate even when the cap allows 100 (bit `k + 64` would
        // alias bit `k`).
        let net = Network::new(builders::grid(9, 9), NodeId::new(0), 2).unwrap();
        let i = inst(&net);
        assert_eq!(i.candidates().len(), 80);
        for cap in [10, 100] {
            assert!(matches!(
                best_facility_set(&net, &i, cap),
                Err(CoreError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn brute_force_planner_places_chunks() {
        let mut net = small_net();
        let placement = BruteForcePlanner::default().plan(&mut net, 2).unwrap();
        assert_eq!(placement.chunks().len(), 2);
        for cp in placement.chunks() {
            assert_eq!(cp.assignment.len(), 5);
        }
    }

    #[test]
    fn milp_matches_brute_force_when_tree_is_a_path() {
        // On a path graph every Steiner tree is a union of shortest
        // paths, so the KMB approximation is exact and the two exact
        // solvers must agree on the optimum objective.
        let net = Network::new(builders::path(4), NodeId::new(0), 2).unwrap();
        let i = inst(&net);
        let brtf = best_facility_set(&net, &i, 20).unwrap();
        let (brtf_costs, _, _) = i.evaluate_set(&net, &brtf).unwrap();
        let (milp_set, milp_obj) = solve_chunk_milp(&net, &i).unwrap();
        assert!(
            (brtf_costs.total() - milp_obj).abs() < 1e-6,
            "brtf {} vs milp {} (sets {:?} / {:?})",
            brtf_costs.total(),
            milp_obj,
            brtf,
            milp_set
        );
    }

    #[test]
    fn pruning_never_changes_the_enumeration_result() {
        // The fairness/access bound prunes are admissible: the winning
        // subset must match a prune-free exhaustive scan.
        let net = Network::new(builders::grid(2, 3), NodeId::new(2), 2).unwrap();
        let i = inst(&net);
        let best = best_facility_set(&net, &i, 20).unwrap();
        let candidates = i.candidates();
        let mut exhaustive: Option<(f64, Vec<NodeId>)> = None;
        for mask in 0u64..(1 << candidates.len()) {
            let subset: Vec<NodeId> = candidates
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &c)| c)
                .collect();
            let (costs, _, _) = i.evaluate_set(&net, &subset).unwrap();
            if exhaustive.as_ref().is_none_or(|(t, _)| costs.total() < *t) {
                exhaustive = Some((costs.total(), subset));
            }
        }
        let (best_total, _) = exhaustive.unwrap();
        let (pruned_costs, _, _) = i.evaluate_set(&net, &best).unwrap();
        assert!((pruned_costs.total() - best_total).abs() < 1e-9);
    }

    #[test]
    fn exact_solvers_work_on_star_topologies() {
        // A star stresses the Steiner phase: every tree goes through
        // the hub.
        let net = Network::new(builders::star(6), NodeId::new(0), 2).unwrap();
        let i = inst(&net);
        let best = best_facility_set(&net, &i, 20).unwrap();
        let (costs, assignment, _) = i.evaluate_set(&net, &best).unwrap();
        assert!(costs.total().is_finite());
        assert_eq!(assignment.len(), 5);
    }

    #[test]
    fn milp_never_exceeds_brute_force() {
        let net = small_net();
        let i = inst(&net);
        let brtf = best_facility_set(&net, &i, 20).unwrap();
        let (brtf_costs, _, _) = i.evaluate_set(&net, &brtf).unwrap();
        let (_, milp_obj) = solve_chunk_milp(&net, &i).unwrap();
        assert!(milp_obj <= brtf_costs.total() + 1e-6);
        // And the KMB bound caps the gap at 2x on the tree term only.
        assert!(brtf_costs.total() <= 2.0 * milp_obj + 1e-6);
    }
}
