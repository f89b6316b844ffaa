//! K-hop-scoped contention state and the hierarchical region planner —
//! the locality stack that breaks the `O(N²)` wall of the dense
//! [`ContentionMatrix`](crate::costs::ContentionMatrix).
//!
//! The dense planners keep every Path Contention Cost `c_ij` in memory:
//! `O(N²)` state and `O(N·(N+E) log N)` recompute per chunk. This
//! module replaces that with three cooperating pieces:
//!
//! 1. **Region partition** — the graph is covered once by connected
//!    regions of bounded size
//!    ([`RegionPartition::grow`](peercache_graph::regions::RegionPartition)),
//!    each extended by a `k`-hop halo.
//! 2. **[`ScopedContention`]** — per region, the exact pairwise costs
//!    from the region's nodes to everything in its `k`-hop demand ball
//!    (region ∪ halo), computed on the induced block subgraph and kept
//!    as lean `cost f64 + hops u32` rows (12 B/pair, no parent
//!    pointers). Because every hop-shortest path between nodes at hop
//!    distance `h ≤ k` stays inside the `k`-ball, these block values
//!    are **bit-identical** to the dense matrix for all pairs within
//!    `k` hops. Everything else — pairs outside both endpoints' balls,
//!    and pairs a link cut left unreachable inside a ball while the
//!    network stays connected around it — is answered by a seeded
//!    [`LandmarkOracle`] — `O(L·N)` state — whose triangle-inequality
//!    upper bound serves as the documented cross-ball estimate.
//! 3. **[`HierarchicalPlanner`]** — runs the *same* event-driven dual
//!    ascent ([`crate::approx::dual_ascent_scoped`]) independently per
//!    region over a [`RegionView`] of the scoped store, stitches the
//!    result across borders (clients may pick providers in their
//!    region's halo, i.e. within `k` hops of a boundary), and builds
//!    the dissemination tree as a union of producer-rooted
//!    shortest-path-tree trunks instead of a full metric-closure
//!    Steiner run.
//!
//! The incremental discipline mirrors the dense path: committing a
//! chunk dirties only the new caches and the producer, so
//! [`ScopedContention::update`] rebuilds only the blocks whose demand
//! ball contains a dirty node and refreshes the (fixed-selection)
//! landmark vectors.

use peercache_graph::oracle::LandmarkOracle;
use peercache_graph::paths::{dijkstra_edge_weighted, AllPairsPaths, Parallelism, PathSelection};
use peercache_graph::regions::RegionPartition;
use peercache_graph::NodeId;
use peercache_obs as obs;

use crate::approx::{dual_ascent_scoped, ApproxConfig};
use crate::costs::{cost_tie_eq, node_contention_terms, CostWeights};
use crate::instance::{ConflCosts, ConflInstance, SetCosts};
use crate::placement::{ChunkPlacement, Placement};
use crate::planner::{chunk_span, finish_chunk_span, CachePlanner};
use crate::{ChunkId, CoreError, Network};

/// Hop sentinel for pairs unreachable inside a block.
const FAR: u32 = u32::MAX;

/// Tuning parameters of the scoped contention store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopedConfig {
    /// Maximum nodes per region (the block row count).
    pub region_max: usize,
    /// Halo radius `k`: block columns cover the region plus everything
    /// within `k` hops, and pairs within `k` hops are answered exactly.
    pub halo_hops: u32,
    /// Landmark count `L` of the cross-ball distance oracle.
    pub landmarks: usize,
    /// Seed for region growth order and landmark selection.
    pub seed: u64,
}

impl Default for ScopedConfig {
    fn default() -> Self {
        ScopedConfig {
            region_max: 128,
            halo_hops: 2,
            landmarks: 8,
            seed: 0xCAC4E,
        }
    }
}

/// One region's exact-cost block: rows are the region's nodes, columns
/// its `k`-hop demand ball (region ∪ halo), values the pair costs of
/// the induced block subgraph.
#[derive(Debug, Clone)]
struct Block {
    /// Region members, sorted ascending (the block's rows).
    rows: Vec<NodeId>,
    /// Region ∪ halo, sorted ascending (the block's columns).
    cols: Vec<NodeId>,
    /// Closed pair costs, `rows.len() × cols.len()`, row-major.
    cost: Vec<f64>,
    /// Routed hop counts, same shape; [`FAR`] when unreachable inside
    /// the block.
    hops: Vec<u32>,
}

impl Block {
    fn lookup(&self, row: NodeId, col: NodeId) -> Option<(f64, u32)> {
        let ci = self.cols.binary_search(&col).ok()?;
        let ri = self
            .rows
            .binary_search(&row)
            .expect("block rows cover the region");
        let at = ri * self.cols.len() + ci;
        Some((self.cost[at], self.hops[at]))
    }

    fn state_bytes(&self) -> u64 {
        (self.cost.len() * 8 + self.hops.len() * 4 + (self.rows.len() + self.cols.len()) * 4) as u64
    }
}

/// Scoped replacement for the dense contention matrix: exact block
/// state within each region's `k`-hop demand ball, landmark-oracle
/// estimates across balls. See the module docs for the exactness
/// guarantee and the error model.
#[derive(Debug, Clone)]
pub struct ScopedContention {
    cfg: ScopedConfig,
    selection: PathSelection,
    partition: RegionPartition,
    /// Per-node contention terms `w_k (1 + S(k))`.
    terms: Vec<f64>,
    blocks: Vec<Block>,
    oracle: LandmarkOracle,
}

impl ScopedContention {
    /// Builds the scoped store for the network's current caching state:
    /// grows the region partition, computes every region block on its
    /// induced subgraph (fanned out over `parallelism`), and builds the
    /// landmark oracle.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn new(
        net: &Network,
        cfg: ScopedConfig,
        selection: PathSelection,
        parallelism: Parallelism,
    ) -> Result<Self, CoreError> {
        let g = net.graph();
        let terms = node_contention_terms(net);
        let partition = RegionPartition::grow(g, cfg.region_max, cfg.seed);
        let oracle = LandmarkOracle::build(g, &terms, cfg.landmarks, cfg.seed)?;
        let all: Vec<usize> = (0..partition.region_count()).collect();
        let built = build_blocks(
            net,
            &partition,
            &terms,
            cfg.halo_hops,
            selection,
            parallelism,
            &all,
        )?;
        let mut blocks = Vec::with_capacity(built.len());
        for (_, b) in built {
            blocks.push(b);
        }
        Ok(ScopedContention {
            cfg,
            selection,
            partition,
            terms,
            blocks,
            oracle,
        })
    }

    /// The region partition the store is built over.
    pub fn partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// The scoped store's configuration.
    pub fn config(&self) -> &ScopedConfig {
        &self.cfg
    }

    /// The per-node contention term `w_k (1 + S(k))`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    pub fn node_term(&self, k: NodeId) -> f64 {
        self.terms[k.index()]
    }

    /// Edge cost `c_e` for an adjacent pair — identical to
    /// [`ContentionMatrix::edge_cost`](crate::costs::ContentionMatrix::edge_cost).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn edge_cost(&self, u: NodeId, v: NodeId) -> f64 {
        self.terms[u.index()] + self.terms[v.index()]
    }

    /// The demand-ball columns (region ∪ halo, sorted) of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn region_cols(&self, r: usize) -> &[NodeId] {
        &self.blocks[r].cols
    }

    /// The Path Contention Cost `c_uv` under the scoped store: `0` on
    /// the diagonal, the exact block value when either endpoint's block
    /// covers the pair with a finite cost (bit-identical to the dense
    /// matrix whenever the pair is within `k` hops), and the landmark
    /// upper-bound estimate otherwise — across balls, and for a pair a
    /// link cut left unreachable inside its ball while the network
    /// stays connected around it.
    ///
    /// Symmetric by construction: the lookup tries the lower id's home
    /// block first, then the higher id's, so `(u, v)` and `(v, u)`
    /// resolve through the same path.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn cost(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.block_value(a, b)
            .map_or_else(|| self.oracle.estimate(a, b), |(c, _)| c)
    }

    /// Whether [`ScopedContention::cost`] answers this pair from exact
    /// block state (as opposed to the cross-ball oracle estimate) *and*
    /// the pair lies within the `k`-hop exactness radius.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    #[cfg(test)]
    fn is_exact(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.block_value(a, b)
            .is_some_and(|(_, h)| h <= self.cfg.halo_hops)
    }

    /// The first finite block value `(cost, hops)` of the pair `a < b`:
    /// `a`'s home block first, then `b`'s. `None` sends
    /// [`ScopedContention::cost`] to the oracle.
    fn block_value(&self, a: NodeId, b: NodeId) -> Option<(f64, u32)> {
        [(a, b), (b, a)].into_iter().find_map(|(row, col)| {
            self.blocks[self.partition.region_of(row)]
                .lookup(row, col)
                .filter(|(c, _)| c.is_finite())
        })
    }

    /// Refreshes the store after the caching state changed, rebuilding
    /// only the blocks whose demand ball contains a node whose
    /// contention term moved, and re-running the (fixed-selection)
    /// landmark vectors. `dirty` is the caller's account of the changed
    /// nodes, cross-checked in debug builds; the actual invalidation
    /// diffs the recomputed terms, so a stale set cannot produce a
    /// wrong store.
    ///
    /// Returns the number of blocks rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures.
    pub fn update(
        &mut self,
        net: &Network,
        dirty: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        let terms = node_contention_terms(net);
        let changed: Vec<NodeId> = (0..terms.len())
            .filter(|&k| terms[k].to_bits() != self.terms[k].to_bits())
            .map(NodeId::new)
            .collect();
        debug_assert!(
            changed.iter().all(|c| dirty.contains(c)),
            "a node outside the declared dirty set {dirty:?} changed its contention term"
        );
        let _ = dirty;
        if changed.is_empty() {
            return Ok(0);
        }
        let stale: Vec<usize> = (0..self.blocks.len())
            .filter(|&r| {
                changed
                    .iter()
                    .any(|c| self.blocks[r].cols.binary_search(c).is_ok())
            })
            .collect();
        let rebuilt = build_blocks(
            net,
            &self.partition,
            &terms,
            self.cfg.halo_hops,
            self.selection,
            parallelism,
            &stale,
        )?;
        for (r, b) in rebuilt {
            self.blocks[r] = b;
        }
        self.oracle.refresh(net.graph(), &terms)?;
        self.terms = terms;
        Ok(stale.len())
    }

    /// Refreshes the store after a *topology* change (links added or
    /// removed, a node deactivated): the structural sibling of
    /// [`ScopedContention::update`], and in fact a documented thin
    /// wrapper over it.
    ///
    /// Why the same invalidation is sound for topology edits: the
    /// per-node contention term is `w_k (1 + S(k))` with `w_k` the
    /// node's *degree*, so every endpoint of a changed link (and every
    /// former neighbor of a departed node, and the departed node
    /// itself) changes its term bitwise, and `update` already rebuilds
    /// every block whose demand ball contains a term-changed node. A
    /// block's values can only change if the edited edge lies inside
    /// its induced ball subgraph — both endpoints in its columns — and
    /// a ball can only *gain* a member through a new edge whose nearer
    /// endpoint was already within `k-1` hops (hence already a column).
    /// Either way the stale block holds an endpoint, so the term diff
    /// catches it and `build_block` recomputes the halo afresh.
    ///
    /// The one structural edit this cannot absorb is a *new node id*
    /// ([`Network::join_node`] grows the graph): the region partition
    /// has no region for it, so that case is rejected and the caller
    /// must rebuild with [`ScopedContention::new`].
    ///
    /// `touched` must cover every node whose degree or load changed
    /// (include the producer when distinct-chunk counts may have
    /// moved); it is cross-checked in debug builds exactly like
    /// `update`'s dirty set. Returns the number of blocks rebuilt.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the graph's node count no
    ///   longer matches the partition (a node joined).
    /// * [`CoreError::Graph`] on internal failures.
    pub fn update_topology(
        &mut self,
        net: &Network,
        touched: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        if net.node_count() != self.terms.len() {
            return Err(CoreError::InvalidParameter(format!(
                "scoped store built for {} nodes cannot absorb a grown graph of {} — rebuild",
                self.terms.len(),
                net.node_count()
            )));
        }
        self.update(net, touched, parallelism)
    }

    /// Strict-invariants oracle: rebuilds every block from scratch
    /// *over the retained partition* and asserts the incrementally
    /// maintained state matches bitwise. A fresh
    /// [`ScopedContention::new`] would re-grow the partition over the
    /// current graph and legitimately differ after topology churn; the
    /// invariant is that incremental maintenance of *this* partition
    /// equals a from-scratch build of it.
    ///
    /// # Panics
    ///
    /// Panics on any bitwise divergence (corrupted incremental state).
    #[cfg(feature = "strict-invariants")]
    pub fn strict_verify(&self, net: &Network) {
        let terms = node_contention_terms(net);
        assert_eq!(
            terms.len(),
            self.terms.len(),
            "strict: node count drifted under the scoped store"
        );
        for (k, (fresh, held)) in terms.iter().zip(&self.terms).enumerate() {
            assert!(
                fresh.to_bits() == held.to_bits(),
                "strict: stale contention term at node {k}"
            );
        }
        let all: Vec<usize> = (0..self.partition.region_count()).collect();
        let built = build_blocks(
            net,
            &self.partition,
            &terms,
            self.cfg.halo_hops,
            self.selection,
            Parallelism::Sequential,
            &all,
        )
        .expect("strict: from-scratch block rebuild failed");
        for (r, fresh) in built {
            let held = &self.blocks[r];
            assert_eq!(held.cols, fresh.cols, "strict: block {r} columns drifted");
            assert_eq!(held.hops, fresh.hops, "strict: block {r} hops drifted");
            assert!(
                held.cost
                    .iter()
                    .zip(&fresh.cost)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "strict: block {r} cost values drifted from a fresh rebuild"
            );
        }
    }

    /// Bytes of heap state the store holds: all block rows plus the
    /// landmark vectors and the term table. This is the
    /// `planner.contention_bytes` gauge.
    pub fn contention_bytes(&self) -> u64 {
        let blocks: u64 = self.blocks.iter().map(Block::state_bytes).sum();
        blocks + self.oracle.state_bytes() + (self.terms.len() * 8) as u64
    }

    /// Bytes an equivalent dense [`AllPairsPaths`] snapshot would hold:
    /// [`AllPairsPaths::BYTES_PER_PAIR`] per pair (interior `f64` + hops
    /// `u32` + parent `u32`, 16 B). The interior bitset is left out,
    /// which keeps the figure on the conservative side.
    pub fn dense_equivalent_bytes(n: usize) -> u64 {
        (n as u64) * (n as u64) * AllPairsPaths::BYTES_PER_PAIR as u64
    }
}

/// Builds the blocks for the listed regions, fanning out over
/// `parallelism`; results come back tagged with their region index so
/// the merge is deterministic regardless of thread scheduling.
#[allow(clippy::too_many_arguments)]
fn build_blocks(
    net: &Network,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    selection: PathSelection,
    parallelism: Parallelism,
    which: &[usize],
) -> Result<Vec<(usize, Block)>, CoreError> {
    let threads = parallelism.threads(which.len().max(1));
    let mut slots: Vec<Option<Result<Block, CoreError>>> = (0..which.len()).map(|_| None).collect();
    if threads <= 1 || which.len() <= 1 {
        for (slot, &r) in slots.iter_mut().zip(which) {
            *slot = Some(obs::with_quiet(|| {
                build_block(net, partition, terms, halo_hops, selection, r)
            }));
        }
    } else {
        let per = which.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (chunk, regions) in slots.chunks_mut(per).zip(which.chunks(per)) {
                s.spawn(move || {
                    for (slot, &r) in chunk.iter_mut().zip(regions) {
                        *slot = Some(obs::with_quiet(|| {
                            build_block(net, partition, terms, halo_hops, selection, r)
                        }));
                    }
                });
            }
        });
    }
    let mut out = Vec::with_capacity(which.len());
    for (slot, &r) in slots.into_iter().zip(which) {
        out.push((r, slot.expect("every block slot is filled")?));
    }
    Ok(out)
}

/// Computes one region's block: all-pairs paths on the induced
/// region-∪-halo subgraph, then only the region rows are kept as lean
/// `cost + hops` arrays.
fn build_block(
    net: &Network,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    selection: PathSelection,
    r: usize,
) -> Result<Block, CoreError> {
    let g = net.graph();
    let rows: Vec<NodeId> = partition.region(r).to_vec();
    let halo = partition.halo_of(g, r, halo_hops);
    let mut cols = Vec::with_capacity(rows.len() + halo.len());
    cols.extend_from_slice(&rows);
    cols.extend_from_slice(&halo);
    cols.sort_unstable();
    let (sub, originals) = g.induced_subgraph(&cols)?;
    let local_terms: Vec<f64> = originals.iter().map(|&x| terms[x.index()]).collect();
    let ap = AllPairsPaths::compute_with(&sub, &local_terms, selection, Parallelism::Sequential)?;
    let c = cols.len();
    let mut cost = Vec::with_capacity(rows.len() * c);
    let mut hops = Vec::with_capacity(rows.len() * c);
    for &u in &rows {
        let lu = cols
            .binary_search(&u)
            .expect("region rows are block columns");
        for lv in 0..c {
            cost.push(ap.cost(NodeId::new(lu), NodeId::new(lv)));
            hops.push(ap.hops(NodeId::new(lu), NodeId::new(lv)).unwrap_or(FAR));
        }
    }
    Ok(Block {
        rows,
        cols,
        cost,
        hops,
    })
}

/// One region's ConFL view over the scoped store: clients and
/// candidates restricted to the region, connection costs answered by
/// [`ScopedContention::cost`], the ambient producer as the pre-opened
/// root. Feed it to [`dual_ascent_scoped`].
#[derive(Debug)]
pub struct RegionView<'a> {
    scoped: &'a ScopedContention,
    facility_cost: &'a [f64],
    producer: NodeId,
    clients: Vec<NodeId>,
    candidates: Vec<NodeId>,
    weights: CostWeights,
}

impl<'a> RegionView<'a> {
    /// Builds the view for region `r`: `clients` is the chunk audience
    /// restricted to the region (sorted), candidates are the region's
    /// finite-cost nodes.
    pub fn new(
        scoped: &'a ScopedContention,
        facility_cost: &'a [f64],
        producer: NodeId,
        weights: CostWeights,
        r: usize,
        clients: Vec<NodeId>,
    ) -> Self {
        let candidates: Vec<NodeId> = scoped
            .partition()
            .region(r)
            .iter()
            .copied()
            .filter(|&i| facility_cost[i.index()].is_finite())
            .collect();
        RegionView {
            scoped,
            facility_cost,
            producer,
            clients,
            candidates,
            weights,
        }
    }
}

impl ConflCosts for RegionView<'_> {
    fn node_count(&self) -> usize {
        self.facility_cost.len()
    }

    fn producer(&self) -> NodeId {
        self.producer
    }

    fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    fn candidates(&self) -> Vec<NodeId> {
        self.candidates.clone()
    }

    fn facility_cost(&self, i: NodeId) -> f64 {
        self.facility_cost[i.index()]
    }

    fn connection_cost(&self, i: NodeId, j: NodeId) -> f64 {
        self.weights.contention * self.scoped.cost(i, j)
    }

    fn weights(&self) -> CostWeights {
        self.weights
    }
}

/// The hierarchical region planner ("Hier" in the figures): per-region
/// dual ascent over the scoped store, border-stitched assignment, and
/// an SPT-trunk dissemination tree. Plans 10k–100k-node networks in
/// seconds where the dense pipeline needs the full `O(N²)` matrix.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalPlanner {
    /// Dual-ascent parameters (shared with the dense planner).
    pub config: ApproxConfig,
    /// Scoped-store parameters.
    pub scoped: ScopedConfig,
}

impl HierarchicalPlanner {
    /// Creates a planner with explicit parameters.
    pub fn new(config: ApproxConfig, scoped: ScopedConfig) -> Self {
        HierarchicalPlanner { config, scoped }
    }
}

impl CachePlanner for HierarchicalPlanner {
    fn name(&self) -> &str {
        "Hier"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        self.config.validate()?;
        let n = net.node_count();
        let producer = net.producer();
        let weights = self.config.weights;
        let mut scoped = ScopedContention::new(
            net,
            self.scoped,
            self.config.selection,
            self.config.parallelism,
        )?;
        let regions = scoped.partition().region_count();
        obs::gauge("planner.region_count").set(regions as i64);
        obs::gauge("planner.contention_bytes").set(scoped.contention_bytes() as i64);
        let mut scale_span = obs::span!(
            "planner.scale",
            nodes = n,
            regions = regions,
            chunks = chunk_count,
        );

        let mut placement = Placement::default();
        for q in 0..chunk_count {
            let chunk = ChunkId::new(q);
            let mut span = chunk_span("Hier", chunk);
            let mut clock = obs::Stopwatch::start();
            let facility_cost = ConflInstance::facility_costs(net, weights);
            let audience = net.interested_clients(chunk);

            // Per-region dual ascent over the scoped store, fanned out
            // in parallel; the merge is by region order, so every
            // parallelism setting yields the same facilities.
            let mut by_region: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
            for &j in &audience {
                by_region[scoped.partition().region_of(j)].push(j);
            }
            let busy: Vec<usize> = (0..regions).filter(|&r| !by_region[r].is_empty()).collect();
            let opened = ascend_regions(
                &scoped,
                &facility_cost,
                producer,
                weights,
                &self.config,
                &by_region,
                &busy,
                self.config.parallelism,
            )?;
            let mut facilities: Vec<NodeId> = opened.into_iter().flatten().collect();
            facilities.sort_unstable();
            facilities.dedup();
            let ascent_us = clock.lap_us();

            // Border-stitched assignment + prune: every client chooses
            // among the facilities in its region's demand ball (its own
            // region plus the k-hop halo — the cross-border stitch) and
            // the producer; facilities serving nobody are dropped to a
            // fixpoint, exactly like the dense pipeline's prune.
            let (mut current, mut providers, mut costs) = assign_and_prune(
                &scoped,
                &facility_cost,
                producer,
                weights,
                &audience,
                facilities,
            );
            let prune_us = clock.lap_us();

            // Dissemination: one producer-rooted edge-weighted SPT per
            // chunk; the tree is the union of the facilities' trunk
            // paths. Removal improvement scores each facility by the
            // fairness it frees, the access it costs its clients, and
            // the trunk edges only it holds alive.
            let (_, spt_parent) =
                dijkstra_edge_weighted(net.graph(), producer, |u, v| scoped.edge_cost(u, v));
            improve_by_scoped_removal(
                &scoped,
                &facility_cost,
                producer,
                weights,
                &audience,
                &spt_parent,
                &mut current,
                &mut providers,
                &mut costs,
            );
            let improve_us = clock.lap_us();

            // R-copy durability floor (a no-op for the default
            // single-copy policy): top the pruned set up to the
            // replication degree under the replica-load cap, then
            // re-derive providers so a client may be served by a
            // replica that landed inside its region's demand ball. The
            // trunk tree below unions the SPT paths of *all* R copies —
            // the R-connected dissemination objective.
            let extra = crate::replication::top_up_targets(
                net,
                &current,
                &self.config.replication,
                |i| facility_cost[i.index()],
                |a, b| weights.contention * scoped.cost(a, b),
                producer,
            );
            if !extra.is_empty() {
                current.extend(extra);
                current.sort_unstable();
                let by_ball = facilities_by_region(&scoped, &current);
                for (idx, &j) in audience.iter().enumerate() {
                    let options = &by_ball[scoped.partition().region_of(j)];
                    let (p, c) = best_provider(&scoped, weights, producer, options, j, None);
                    providers[idx] = p;
                    costs[idx] = c;
                }
            }

            let (tree_edges, tree_cost) = trunk_tree(&scoped, producer, &spt_parent, &current);
            let fairness: f64 = current.iter().map(|&i| facility_cost[i.index()]).sum();
            let access: f64 = costs.iter().sum();
            let set_costs = SetCosts {
                fairness,
                access,
                dissemination: weights.dissemination * tree_cost,
            };
            let assignment: Vec<(NodeId, NodeId)> =
                audience.iter().copied().zip(providers).collect();
            for &i in &current {
                net.cache(i, chunk)?;
            }
            let cp = ChunkPlacement {
                chunk,
                caches: current,
                assignment,
                tree_edges,
                costs: set_costs,
            };
            #[cfg(feature = "strict-invariants")]
            crate::strict::check_tree_connectivity(net, &cp);
            let commit_us = clock.lap_us();
            if q + 1 < chunk_count {
                let mut dirty = cp.caches.clone();
                dirty.push(producer);
                let rebuilt = scoped.update(net, &dirty, self.config.parallelism)?;
                if span.is_recording() {
                    span.add_field("blocks_rebuilt", obs::Value::from(rebuilt));
                }
            }
            obs::gauge("planner.contention_bytes").set(scoped.contention_bytes() as i64);
            if span.is_recording() {
                span.add_field("regions_active", obs::Value::from(busy.len()));
                span.add_field("ascent_us", obs::Value::from(ascent_us));
                span.add_field("prune_us", obs::Value::from(prune_us));
                span.add_field("improve_us", obs::Value::from(improve_us));
                span.add_field("commit_us", obs::Value::from(commit_us));
            }
            finish_chunk_span(span, &cp);
            placement.push(cp);
        }
        if scale_span.is_recording() {
            scale_span.add_field(
                "contention_bytes",
                obs::Value::from(scoped.contention_bytes()),
            );
        }
        Ok(placement)
    }
}

/// Runs the dual ascent for every busy region, in parallel, returning
/// the opened facilities per busy-region slot (busy order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ascend_regions(
    scoped: &ScopedContention,
    facility_cost: &[f64],
    producer: NodeId,
    weights: CostWeights,
    cfg: &ApproxConfig,
    by_region: &[Vec<NodeId>],
    busy: &[usize],
    parallelism: Parallelism,
) -> Result<Vec<Vec<NodeId>>, CoreError> {
    let run = |r: usize| -> Result<Vec<NodeId>, CoreError> {
        let view = RegionView::new(
            scoped,
            facility_cost,
            producer,
            weights,
            r,
            by_region[r].clone(),
        );
        if view.candidates.is_empty() {
            return Ok(Vec::new());
        }
        let (facilities, _) = dual_ascent_scoped(&view, cfg)?;
        Ok(facilities)
    };
    let threads = parallelism.threads(busy.len().max(1));
    let mut slots: Vec<Option<Result<Vec<NodeId>, CoreError>>> =
        (0..busy.len()).map(|_| None).collect();
    if threads <= 1 || busy.len() <= 1 {
        for (slot, &r) in slots.iter_mut().zip(busy) {
            *slot = Some(obs::with_quiet(|| run(r)));
        }
    } else {
        let per = busy.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (chunk, rs) in slots.chunks_mut(per).zip(busy.chunks(per)) {
                let run = &run;
                s.spawn(move || {
                    for (slot, &r) in chunk.iter_mut().zip(rs) {
                        *slot = Some(obs::with_quiet(|| run(r)));
                    }
                });
            }
        });
    }
    let mut out = Vec::with_capacity(busy.len());
    for slot in slots {
        out.push(slot.expect("every region slot is filled")?);
    }
    Ok(out)
}

/// Facilities available to each region's clients: the open facilities
/// inside the region's demand ball (region ∪ halo), sorted.
pub(crate) fn facilities_by_region(
    scoped: &ScopedContention,
    facilities: &[NodeId],
) -> Vec<Vec<NodeId>> {
    (0..scoped.partition().region_count())
        .map(|r| {
            let cols = scoped.region_cols(r);
            facilities
                .iter()
                .copied()
                .filter(|i| cols.binary_search(i).is_ok())
                .collect()
        })
        .collect()
}

/// The cheapest provider for one client among its region's reachable
/// facilities (minus `skip`) and the producer; ties break toward the
/// lower node id, matching the dense assignment.
pub(crate) fn best_provider(
    scoped: &ScopedContention,
    weights: CostWeights,
    producer: NodeId,
    options: &[NodeId],
    j: NodeId,
    skip: Option<NodeId>,
) -> (NodeId, f64) {
    let mut best = (producer, weights.contention * scoped.cost(producer, j));
    for &i in options {
        if Some(i) == skip {
            continue;
        }
        let c = weights.contention * scoped.cost(i, j);
        if c < best.1 || (cost_tie_eq(c, best.1) && i < best.0) {
            best = (i, c);
        }
    }
    best
}

/// Assigns every client and drops unused facilities to a fixpoint.
/// Returns the surviving facilities (sorted), plus per-client providers
/// and access costs in audience order.
pub(crate) fn assign_and_prune(
    scoped: &ScopedContention,
    facility_cost: &[f64],
    producer: NodeId,
    weights: CostWeights,
    audience: &[NodeId],
    mut current: Vec<NodeId>,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<f64>) {
    let _ = facility_cost;
    loop {
        let by_region = facilities_by_region(scoped, &current);
        let mut providers = Vec::with_capacity(audience.len());
        let mut costs = Vec::with_capacity(audience.len());
        for &j in audience {
            let options = &by_region[scoped.partition().region_of(j)];
            let (p, c) = best_provider(scoped, weights, producer, options, j, None);
            providers.push(p);
            costs.push(c);
        }
        let mut used: Vec<NodeId> = providers
            .iter()
            .copied()
            .filter(|&p| p != producer)
            .collect();
        used.sort_unstable();
        used.dedup();
        if used.len() == current.len() {
            return (current, providers, costs);
        }
        current = used;
    }
}

/// The trunk dissemination tree: union of the producer-rooted SPT paths
/// of all facilities. Edges are identified by their child node (each
/// non-root node owns exactly one SPT edge), reported as
/// `(child, parent)` pairs in ascending child order, with the summed
/// edge cost.
pub(crate) fn trunk_tree(
    scoped: &ScopedContention,
    producer: NodeId,
    spt_parent: &[Option<NodeId>],
    facilities: &[NodeId],
) -> (Vec<(NodeId, NodeId)>, f64) {
    let mut on_tree = vec![false; spt_parent.len()];
    for &i in facilities {
        let mut v = i;
        while v != producer && !on_tree[v.index()] {
            on_tree[v.index()] = true;
            v = spt_parent[v.index()].expect("facilities are reachable from the producer");
        }
    }
    let mut edges = Vec::new();
    let mut total = 0.0f64;
    for v in 0..on_tree.len() {
        if on_tree[v] {
            let child = NodeId::new(v);
            let parent = spt_parent[v].expect("tree nodes have SPT parents");
            total += scoped.edge_cost(child, parent);
            edges.push((child, parent));
        }
    }
    (edges, total)
}

/// Reference counts of the trunk edges (keyed by child node) across all
/// facilities' SPT paths.
fn trunk_refcounts(
    producer: NodeId,
    spt_parent: &[Option<NodeId>],
    facilities: &[NodeId],
) -> Vec<u32> {
    let mut refc = vec![0u32; spt_parent.len()];
    for &i in facilities {
        let mut v = i;
        while v != producer {
            refc[v.index()] += 1;
            v = spt_parent[v.index()].expect("facilities are reachable from the producer");
        }
    }
    refc
}

/// Greedy improving-removal over the scoped objective: drop a facility
/// whenever the fairness it frees plus the trunk edges only it holds
/// alive outweigh the access its clients lose. Passes repeat until no
/// removal improves; within a pass candidates are visited in
/// ascending-id order, so the outcome is deterministic.
///
/// The per-region option lists are maintained *incrementally* — a
/// removal deletes the facility from the regions whose demand ball
/// held it, so later candidates in the same pass see the post-removal
/// options without the `O(regions × facilities)` rebuild a restart
/// would cost. Total work is `O(passes × facilities)` candidate
/// evaluations, which is what lets the 100k-node plan finish.
#[allow(clippy::too_many_arguments)]
pub(crate) fn improve_by_scoped_removal(
    scoped: &ScopedContention,
    facility_cost: &[f64],
    producer: NodeId,
    weights: CostWeights,
    audience: &[NodeId],
    spt_parent: &[Option<NodeId>],
    current: &mut Vec<NodeId>,
    providers: &mut [NodeId],
    costs: &mut [f64],
) {
    if current.is_empty() {
        return;
    }
    let m_weight = weights.dissemination;
    let mut refc = trunk_refcounts(producer, spt_parent, current);
    let mut by_region = facilities_by_region(scoped, current);
    // Regions whose demand ball holds each facility (facility order =
    // `current` order, maintained across removals).
    let mut regions_of: Vec<Vec<u32>> = vec![Vec::new(); current.len()];
    for (r, options) in by_region.iter().enumerate() {
        for &i in options {
            let fi = current.binary_search(&i).expect("option is a facility");
            regions_of[fi].push(r as u32);
        }
    }
    // Clients per facility, as audience indices.
    let mut clients_of: Vec<Vec<u32>> = vec![Vec::new(); current.len()];
    for (jx, &p) in providers.iter().enumerate() {
        if p != producer {
            if let Ok(fi) = current.binary_search(&p) {
                clients_of[fi].push(jx as u32);
            }
        }
    }
    loop {
        let mut removed_any = false;
        let mut fi = 0usize;
        while fi < current.len() {
            let i = current[fi];
            // Trunk edges only `i` keeps alive.
            let mut freed_tree = 0.0f64;
            let mut v = i;
            while v != producer {
                if refc[v.index()] == 1 {
                    let parent = spt_parent[v.index()].expect("reachable");
                    freed_tree += scoped.edge_cost(v, parent);
                }
                v = spt_parent[v.index()].expect("reachable");
            }
            // Access its clients would lose, with `i` withdrawn.
            let mut lost_access = 0.0f64;
            let mut moves: Vec<(u32, NodeId, f64)> = Vec::new();
            for &jx in &clients_of[fi] {
                let j = audience[jx as usize];
                let options = &by_region[scoped.partition().region_of(j)];
                let (p, c) = best_provider(scoped, weights, producer, options, j, Some(i));
                lost_access += c - costs[jx as usize];
                moves.push((jx, p, c));
            }
            let delta = lost_access - facility_cost[i.index()] - m_weight * freed_tree;
            if delta < -1e-9 {
                // Apply: retire the trunk path, delist the facility from
                // its regions' option lists, reroute the clients.
                let mut v = i;
                while v != producer {
                    refc[v.index()] -= 1;
                    v = spt_parent[v.index()].expect("reachable");
                }
                for &r in &regions_of[fi] {
                    let options = &mut by_region[r as usize];
                    if let Ok(pos) = options.binary_search(&i) {
                        options.remove(pos);
                    }
                }
                for (jx, p, c) in moves {
                    providers[jx as usize] = p;
                    costs[jx as usize] = c;
                    if p != producer {
                        if let Ok(pi) = current.binary_search(&p) {
                            clients_of[pi].push(jx);
                        }
                    }
                }
                current.remove(fi);
                clients_of.remove(fi);
                regions_of.remove(fi);
                removed_any = true;
                // The element after `i` shifted into slot `fi`; scan on.
            } else {
                fi += 1;
            }
        }
        if !removed_any {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxPlanner;
    use crate::costs::ContentionMatrix;
    use crate::planner::plan_on_copy;
    use peercache_graph::builders;

    fn grid_net(side: usize, cap: usize) -> Network {
        Network::new(builders::grid(side, side), NodeId::new(side + 1), cap).unwrap()
    }

    fn small_cfg() -> ScopedConfig {
        ScopedConfig {
            region_max: 12,
            halo_hops: 2,
            landmarks: 4,
            seed: 7,
        }
    }

    #[test]
    fn scoped_cost_is_exact_within_the_halo_radius() {
        let net = grid_net(8, 4);
        let dense = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let mut exact_pairs = 0usize;
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                if scoped.is_exact(u, v) {
                    exact_pairs += 1;
                    assert_eq!(
                        scoped.cost(u, v).to_bits(),
                        dense.cost(u, v).to_bits(),
                        "exact pair ({u},{v}) diverged from the dense matrix"
                    );
                }
            }
        }
        assert!(exact_pairs > net.node_count() * 5, "halo too thin");
        // Every pair within the halo radius must be exact.
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                if dense.hops(u, v).is_some_and(|h| h <= 2) {
                    assert!(scoped.is_exact(u, v), "({u},{v}) within k not exact");
                }
            }
        }
    }

    #[test]
    fn scoped_cost_is_symmetric_and_finite_on_connected_graphs() {
        let net = grid_net(7, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                let a = scoped.cost(u, v);
                let b = scoped.cost(v, u);
                assert_eq!(a.to_bits(), b.to_bits(), "asymmetric ({u},{v})");
                assert!(a.is_finite());
            }
        }
    }

    #[test]
    fn update_matches_fresh_rebuild() {
        let mut net = grid_net(6, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        net.cache(NodeId::new(20), ChunkId::new(0)).unwrap();
        let dirty = [NodeId::new(3), NodeId::new(20), net.producer()];
        let rebuilt = scoped
            .update(&net, &dirty, Parallelism::Sequential)
            .unwrap();
        assert!(rebuilt > 0);
        let fresh = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(
                    scoped.cost(u, v).to_bits(),
                    fresh.cost(u, v).to_bits(),
                    "updated store diverged at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn update_with_no_changes_rebuilds_nothing() {
        let net = grid_net(5, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let rebuilt = scoped.update(&net, &[], Parallelism::Sequential).unwrap();
        assert_eq!(rebuilt, 0);
    }

    #[test]
    fn update_topology_matches_scratch_rebuild_of_retained_partition() {
        let mut net = grid_net(6, 4);
        let cfg = small_cfg();
        let mut scoped = ScopedContention::new(
            &net,
            cfg,
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        // One link down, one shortcut up, one corner departure — every
        // touched node's degree (hence term) changes, which is what the
        // invalidation rides on.
        let mut touched = vec![NodeId::new(0), NodeId::new(1)];
        assert!(net.remove_link(NodeId::new(0), NodeId::new(1)).unwrap());
        assert!(net.add_link(NodeId::new(2), NodeId::new(14)).unwrap());
        touched.extend([NodeId::new(2), NodeId::new(14)]);
        let dep = net.deactivate_node(NodeId::new(35)).unwrap();
        touched.push(NodeId::new(35));
        touched.extend(dep.former_neighbors);
        touched.push(net.producer());
        touched.sort_unstable();
        touched.dedup();
        let rebuilt = scoped
            .update_topology(&net, &touched, Parallelism::Sequential)
            .unwrap();
        assert!(rebuilt > 0, "topology churn must invalidate blocks");
        // Every block must now equal a from-scratch build over the
        // *retained* partition, bitwise.
        let terms = node_contention_terms(&net);
        let all: Vec<usize> = (0..scoped.partition().region_count()).collect();
        let fresh = build_blocks(
            &net,
            scoped.partition(),
            &terms,
            cfg.halo_hops,
            PathSelection::FewestHops,
            Parallelism::Sequential,
            &all,
        )
        .unwrap();
        for (r, b) in fresh {
            assert_eq!(scoped.blocks[r].cols, b.cols, "block {r} cols drifted");
            assert_eq!(scoped.blocks[r].hops, b.hops, "block {r} hops drifted");
            assert!(
                scoped.blocks[r]
                    .cost
                    .iter()
                    .zip(&b.cost)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "block {r} costs drifted"
            );
        }
        // A grown graph cannot be absorbed: the partition has no region
        // for the newcomer, so the call must refuse and demand a rebuild.
        net.join_node(&[NodeId::new(2)], 3).unwrap();
        assert!(matches!(
            scoped.update_topology(&net, &[], Parallelism::Sequential),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let net = grid_net(8, 4);
        let seq = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let par = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Threads(4),
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(seq.cost(u, v).to_bits(), par.cost(u, v).to_bits());
            }
        }
    }

    #[test]
    fn state_stays_far_below_dense_equivalent() {
        let net = grid_net(20, 4); // 400 nodes
        let scoped = ScopedContention::new(
            &net,
            ScopedConfig {
                region_max: 32,
                ..ScopedConfig::default()
            },
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let dense = ScopedContention::dense_equivalent_bytes(net.node_count());
        assert!(
            scoped.contention_bytes() * 4 < dense,
            "scoped state {} not well below dense {}",
            scoped.contention_bytes(),
            dense
        );
    }

    #[test]
    fn region_view_restricts_candidates_to_the_region() {
        let net = grid_net(6, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let fc = ConflInstance::facility_costs(&net, CostWeights::default());
        let view = RegionView::new(
            &scoped,
            &fc,
            net.producer(),
            CostWeights::default(),
            0,
            scoped.partition().region(0).to_vec(),
        );
        for c in view.candidates() {
            assert_eq!(scoped.partition().region_of(c), 0);
            assert_ne!(c, net.producer());
        }
        assert_eq!(view.node_count(), net.node_count());
    }

    #[test]
    fn hierarchical_planner_places_all_chunks_respecting_capacity() {
        let mut net = grid_net(8, 3);
        let planner = HierarchicalPlanner::new(ApproxConfig::default(), small_cfg());
        let placement = planner.plan(&mut net, 3).unwrap();
        assert_eq!(placement.chunks().len(), 3);
        for n in net.graph().nodes() {
            assert!(net.used(n) <= net.capacity(n));
        }
        for cp in placement.chunks() {
            for &c in &cp.caches {
                assert!(net.is_cached(c, cp.chunk));
            }
            assert_eq!(cp.assignment.len(), net.node_count() - 1);
            assert!(cp.costs.total().is_finite());
        }
    }

    #[test]
    fn hierarchical_planner_is_deterministic_across_runs_and_threads() {
        let net = grid_net(8, 3);
        let mk = |par| {
            let planner = HierarchicalPlanner::new(
                ApproxConfig {
                    parallelism: par,
                    ..Default::default()
                },
                small_cfg(),
            );
            plan_on_copy(&planner, &net, 3).unwrap().0
        };
        let a = mk(Parallelism::Sequential);
        let b = mk(Parallelism::Threads(4));
        assert_eq!(a.chunks().len(), b.chunks().len());
        for (x, y) in a.chunks().iter().zip(b.chunks()) {
            assert_eq!(x.caches, y.caches);
            assert_eq!(x.assignment, y.assignment);
            assert_eq!(x.tree_edges, y.tree_edges);
            assert_eq!(x.costs.total().to_bits(), y.costs.total().to_bits());
        }
    }

    #[test]
    fn hierarchical_plan_stays_near_the_dense_appx_plan() {
        // The quality gate in miniature (the full seeded suite lives in
        // tests/scale_planner.rs): on a 10x10 grid with forced
        // multi-region decomposition the hierarchical total must stay
        // within 10% of the exact-matrix Appx total.
        let net = grid_net(10, 4);
        let (dense, _) = plan_on_copy(&ApproxPlanner::default(), &net, 4).unwrap();
        let planner = HierarchicalPlanner::new(
            ApproxConfig::default(),
            ScopedConfig {
                region_max: 32,
                ..ScopedConfig::default()
            },
        );
        let (hier, _) = plan_on_copy(&planner, &net, 4).unwrap();
        let dense_total: f64 = dense.chunks().iter().map(|c| c.costs.total()).sum();
        let hier_total: f64 = hier.chunks().iter().map(|c| c.costs.total()).sum();
        assert!(
            hier_total <= dense_total * 1.10,
            "hierarchical total {hier_total} exceeds 1.10x dense {dense_total}"
        );
    }

    #[test]
    fn trunk_tree_connects_every_facility_to_the_producer() {
        let net = grid_net(6, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let producer = net.producer();
        let (_, parent) =
            dijkstra_edge_weighted(net.graph(), producer, |u, v| scoped.edge_cost(u, v));
        let facilities = [NodeId::new(0), NodeId::new(35), NodeId::new(17)];
        let (edges, cost) = trunk_tree(&scoped, producer, &parent, &facilities);
        assert!(cost > 0.0);
        // Union-find over the reported edges: every facility must reach
        // the producer.
        let n = net.node_count();
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], x: usize) -> usize {
            let mut x = x;
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        for &(a, b) in &edges {
            let (ra, rb) = (find(&mut root, a.index()), find(&mut root, b.index()));
            root[ra] = rb;
        }
        let rp = find(&mut root, producer.index());
        for &f in &facilities {
            assert_eq!(find(&mut root, f.index()), rp, "{f} disconnected");
        }
    }
}
