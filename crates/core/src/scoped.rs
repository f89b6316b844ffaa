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
//!    (region ∪ halo), solved for the region's rows only over the
//!    subgraph the ball induces
//!    ([`induced_rows`](peercache_graph::paths::induced_rows)) and kept as lean
//!    `cost f64 + hops u32` rows (12 B/pair, no parent pointers).
//!    Because every hop-shortest path between nodes at hop
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
//! The incremental discipline mirrors the dense path: one
//! [`ScopedContention::update`] absorbs every change since the last
//! one, found by diffing the network against the store's own snapshot,
//! and stales only the blocks whose demand ball contains a node whose
//! term or neighbor list changed, plus the landmark oracle (its
//! landmark selection stays fixed). Committing a chunk changes only the
//! terms of the new caches and the producer. Staling is lazy. The
//! update captures what each solve will read: a block's ball, the
//! subgraph the ball induces and the members' terms. The store holds
//! one snapshot of the graph and terms, which the oracle sweeps and the
//! next update diffs against. A block's rows are solved on its first
//! lookup, and the oracle's sweeps on the first oracle read. A block
//! staled again before any read is never solved. A read between a cache
//! commit and the next update still sees the values of the update that
//! staled the block.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use peercache_graph::oracle::LandmarkOracle;
use peercache_graph::paths::{
    dijkstra_edge_weighted, AllPairsPaths, InducedRows, Parallelism, PathSelection,
};
use peercache_graph::regions::RegionPartition;
use peercache_graph::{Csr, Graph, NodeId};
use peercache_obs as obs;

use crate::approx::{dual_ascent_scoped, ApproxConfig};
use crate::costs::{cost_tie_eq, node_contention_terms, CostWeights};
use crate::instance::{ConflCosts, ConflInstance, SetCosts};
use crate::placement::{ChunkPlacement, Placement};
use crate::planner::{chunk_span, finish_chunk_span, CachePlanner, ChunkSpan};
use crate::{ChunkId, CoreError, Network};

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

/// Work counters of a [`ScopedContention`] over its lifetime. They
/// count deterministic events, so they are equal under every
/// [`Parallelism`] setting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreWork {
    /// Blocks [`ScopedContention::update`] re-captured over the
    /// retained partition for a re-solve.
    pub blocks_staled: u64,
    /// Block row solves run, each on a block's first lookup.
    pub blocks_solved: u64,
    /// Landmark-oracle sweeps run, each on the first oracle read after
    /// a build or an update.
    pub oracle_refreshes: u64,
}

/// One region's exact-cost block: rows are the region's nodes, columns
/// its `k`-hop demand ball (region ∪ halo), values the pair costs of
/// the induced block subgraph.
#[derive(Debug, Clone)]
struct Block {
    /// Region ∪ halo, sorted ascending (the block's columns).
    cols: Vec<NodeId>,
    /// Everything the region rows' solve over the subgraph the ball
    /// induces reads, captured when the block was staled.
    capture: InducedRows,
    /// That solve, run on the block's first read whichever thread asks
    /// first: closed pair costs and routed hop counts,
    /// `rows × cols.len()`, row-major; hops are `u32::MAX` when
    /// unreachable inside the block.
    rows: OnceLock<(Vec<f64>, Vec<u32>)>,
}

impl Block {
    fn solved(&self) -> &(Vec<f64>, Vec<u32>) {
        self.rows.get_or_init(|| self.capture.solve())
    }

    fn is_solved(&self) -> bool {
        self.rows.get().is_some()
    }

    /// The block value at row `slot` (the row node's position in its
    /// region) and column `col`; solves the block on its first hit.
    fn lookup(&self, slot: usize, col: NodeId) -> Option<(f64, u32)> {
        let ci = self.cols.binary_search(&col).ok()?;
        let (cost, hops) = self.solved();
        let at = slot * self.cols.len() + ci;
        Some((cost[at], hops[at]))
    }
}

/// Scoped replacement for the dense contention matrix: exact block
/// state within each region's `k`-hop demand ball, landmark-oracle
/// estimates across balls. See the module docs for the exactness
/// guarantee, the error model and when blocks are solved.
#[derive(Debug, Clone)]
pub struct ScopedContention {
    cfg: ScopedConfig,
    partition: RegionPartition,
    /// The graph of the last update: the oracle sweeps it, and the next
    /// update diffs the network's graph against it.
    graph: Graph,
    /// Per-node contention terms `w_k (1 + S(k))` of the last update.
    terms: Vec<f64>,
    blocks: Vec<Block>,
    /// The oracle's landmark selection, fixed at build time.
    landmarks: Vec<NodeId>,
    /// The oracle over `graph` and `terms`, swept on its first read.
    oracle: OnceLock<LandmarkOracle>,
    /// Work of the blocks and oracles an update replaced.
    retired: StoreWork,
}

impl ScopedContention {
    /// Builds the scoped store for the network's current caching state:
    /// grows the region partition, selects the oracle's landmarks, and
    /// captures every block's ball (one block per task, fanned out over
    /// `parallelism`). Block rows and the oracle sweeps are solved on
    /// first read. `_selection` is unread: [`PathSelection`] names the
    /// one route model.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn new(
        net: &Network,
        cfg: ScopedConfig,
        _selection: PathSelection,
        parallelism: Parallelism,
    ) -> Result<Self, CoreError> {
        let g = net.graph();
        let terms = node_contention_terms(net);
        let partition = RegionPartition::grow(g, cfg.region_max, cfg.seed);
        let all: Vec<usize> = (0..partition.region_count()).collect();
        let blocks = capture_blocks(g, &partition, &terms, cfg.halo_hops, parallelism, &all)?;
        Ok(ScopedContention {
            cfg,
            partition,
            landmarks: LandmarkOracle::select(g, cfg.landmarks, cfg.seed),
            oracle: OnceLock::new(),
            graph: g.clone(),
            terms,
            blocks,
            retired: StoreWork::default(),
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
    /// resolve through the same path. The block or oracle read is
    /// solved here if nothing has read it since the update that staled
    /// it, from that update's captured inputs.
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
            .map_or_else(|| self.oracle().estimate(a, b), |(c, _)| c)
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
                .lookup(self.partition.slot_of(row), col)
                .filter(|(c, _)| c.is_finite())
        })
    }

    /// The landmark oracle of the last update, swept over the held
    /// graph and terms on its first read.
    fn oracle(&self) -> &LandmarkOracle {
        self.oracle.get_or_init(|| {
            LandmarkOracle::with_landmarks(&self.graph, &self.terms, self.landmarks.clone())
                .expect("the held terms and landmarks cover the held graph")
        })
    }

    /// Refreshes the store, absorbing every change to the network since
    /// its last update: cache commits and evictions, link edits,
    /// departures and joins. The store finds them itself. It diffs the
    /// recomputed per-node terms bitwise against the held ones and the
    /// graph against the held one ([`Csr::edge_diff`]), and re-captures
    /// every block whose columns hold a node whose term *or neighbor
    /// list* changed, plus the landmark oracle (its selection stays
    /// fixed). Each capture records what its solve will read; the solve
    /// runs on the first read.
    /// `dirty` is the caller's account of the changed nodes, cross-checked
    /// in debug builds only, so a stale set cannot produce a wrong store.
    /// Include the producer when distinct-chunk counts may have moved.
    ///
    /// Why the rule is sound: a block's values are a function of its
    /// ball (region ∪ `k`-hop halo), the subgraph the ball induces and
    /// the members' terms. A changed term inside the ball is caught
    /// directly. An edge that entered or left the induced subgraph has
    /// both endpoints in the ball, and both changed their neighbor
    /// lists. The ball itself is a breadth-first search from the region
    /// that expands only nodes within `k - 1` hops, all of them columns;
    /// if none of them changed its neighbor list, the search runs as
    /// before and yields the same ball. So a block with no changed
    /// column equals a fresh capture over the retained partition. The
    /// term alone is not enough: a node's term `w_k (1 + S(k))` reads
    /// its *degree*, which one link edit always moves but a batch — one
    /// link down and another up at the same node — can leave unchanged.
    ///
    /// A graph that grew ([`Network::join_node`]) has nodes the retained
    /// partition has no region for, so the store re-grows itself: it
    /// becomes [`ScopedContention::new`] on the network, with its
    /// lifetime work counts carried over. A re-grow stales no block, as
    /// a build does not.
    ///
    /// Returns the number of blocks captured: the stale blocks, or every
    /// block of a re-grown store.
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
        if net.node_count() != self.terms.len() {
            let work = self.work();
            *self = ScopedContention::new(net, self.cfg, PathSelection::FewestHops, parallelism)?;
            self.retired = work;
            return Ok(self.blocks.len());
        }
        let g = net.graph();
        let terms = node_contention_terms(net);
        let mut changed = Csr::from_graph(&self.graph).edge_diff(g).endpoints();
        changed.extend(
            (0..terms.len())
                .filter(|&k| terms[k].to_bits() != self.terms[k].to_bits())
                .map(NodeId::new),
        );
        changed.sort_unstable();
        changed.dedup();
        debug_assert!(
            changed.iter().all(|c| dirty.contains(c)),
            "a node outside the declared dirty set {dirty:?} changed its term or neighbors"
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
        let captured = capture_blocks(
            g,
            &self.partition,
            &terms,
            self.cfg.halo_hops,
            parallelism,
            &stale,
        )?;
        for (&r, block) in stale.iter().zip(captured) {
            let old = std::mem::replace(&mut self.blocks[r], block);
            self.retired.blocks_solved += u64::from(old.is_solved());
        }
        self.retired.blocks_staled += stale.len() as u64;
        self.retired.oracle_refreshes += u64::from(self.oracle.get().is_some());
        self.oracle = OnceLock::new();
        self.graph = g.clone();
        self.terms = terms;
        Ok(stale.len())
    }

    /// The store's work so far: blocks staled by updates, block solves
    /// and oracle sweeps run. Reading the counters solves nothing.
    pub(crate) fn work(&self) -> StoreWork {
        let mut work = self.retired;
        work.blocks_solved += self.blocks.iter().filter(|b| b.is_solved()).count() as u64;
        work.oracle_refreshes += u64::from(self.oracle.get().is_some());
        work
    }

    /// Strict-invariants oracle: rebuilds every block from scratch
    /// *over the retained partition* and asserts the incrementally
    /// maintained state matches bitwise. A fresh
    /// [`ScopedContention::new`] would re-grow the partition over the
    /// current graph and legitimately differ after topology churn; the
    /// invariant is that incremental maintenance of *this* partition
    /// equals a from-scratch build of it. An unsolved block is solved
    /// into a temporary, so the check leaves the store's work counts
    /// unchanged.
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
        let fresh_blocks = capture_blocks(
            net.graph(),
            &self.partition,
            &terms,
            self.cfg.halo_hops,
            Parallelism::Sequential,
            &all,
        )
        .expect("strict: from-scratch block capture failed");
        for (r, fresh) in fresh_blocks.iter().enumerate() {
            let held = &self.blocks[r];
            assert_eq!(held.cols, fresh.cols, "strict: block {r} columns drifted");
            let unsolved;
            let (cost, hops) = match held.rows.get() {
                Some(rows) => rows,
                None => {
                    unsolved = held.capture.solve();
                    &unsolved
                }
            };
            let (fresh_cost, fresh_hops) = fresh.capture.solve();
            assert_eq!(*hops, fresh_hops, "strict: block {r} hops drifted");
            assert!(
                cost.iter()
                    .zip(&fresh_cost)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "strict: block {r} cost values drifted from a fresh rebuild"
            );
        }
    }

    /// Bytes of heap state the store holds once solved: all block rows
    /// plus the landmark vectors and the term table. This is the
    /// `planner.contention_bytes` gauge. It is computed from the
    /// blocks' shapes, so it solves nothing.
    pub fn contention_bytes(&self) -> u64 {
        let blocks: u64 = self
            .blocks
            .iter()
            .enumerate()
            .map(|(r, b)| {
                let (rows, cols) = (self.partition.region(r).len(), b.cols.len());
                (rows * cols * (8 + 4) + (rows + cols) * 4) as u64
            })
            .sum();
        let n = self.terms.len();
        blocks + LandmarkOracle::state_bytes_for(n, self.landmarks.len()) + (n * 8) as u64
    }

    /// Bytes an equivalent dense [`AllPairsPaths`] snapshot would hold:
    /// [`AllPairsPaths::BYTES_PER_PAIR`] per pair (interior `f64` + hops
    /// `u32` + parent `u32`, 16 B). The interior bitset is left out,
    /// which keeps the figure on the conservative side.
    pub fn dense_equivalent_bytes(n: usize) -> u64 {
        (n as u64) * (n as u64) * AllPairsPaths::BYTES_PER_PAIR as u64
    }
}

/// Captures the blocks of the listed regions, fanning out over
/// `parallelism`; results come back in `which` order, so the merge is
/// deterministic regardless of thread scheduling.
fn capture_blocks(
    g: &Graph,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    parallelism: Parallelism,
    which: &[usize],
) -> Result<Vec<Block>, CoreError> {
    fan_out(which, parallelism, |&r| {
        capture_block(g, partition, terms, halo_hops, r)
    })
    .into_iter()
    .collect()
}

/// Runs `task` over `items` with slot-array fan-out: threads claim items
/// one at a time from a shared cursor, so a slow item holds up only the
/// thread that claimed it, and each result lands in its item's slot, so
/// the merge order is the item order no matter how threads are
/// scheduled. `task` must be a pure function of frozen state. Both arms
/// run each task under [`obs::with_quiet`], so the emitted trace is the
/// same for every [`Parallelism`] setting.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    parallelism: Parallelism,
    task: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = parallelism.threads(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .map(|item| obs::with_quiet(|| task(item)))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else {
                            return done;
                        };
                        done.push((idx, obs::with_quiet(|| task(item))));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, result) in done {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every fan-out slot is filled"))
        .collect()
}

/// Captures one region's block: its ball (region ∪ `halo_hops`-hop
/// halo) and everything the region rows' solve over the subgraph the
/// ball induces reads ([`InducedRows`]). Solving it gives the rows
/// [`peercache_graph::paths::induced_rows`] gives now.
fn capture_block(
    g: &Graph,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    r: usize,
) -> Result<Block, CoreError> {
    let cols = partition.ball_of(g, r, halo_hops);
    let capture = InducedRows::capture(g, &cols, partition.region(r), terms)?;
    Ok(Block {
        cols,
        capture,
        rows: OnceLock::new(),
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
            let (cp, _, _) = plan_scoped_chunk(net, &scoped, &self.config, chunk, &mut span)?;
            for &i in &cp.caches {
                net.cache(i, chunk)?;
            }
            #[cfg(feature = "strict-invariants")]
            crate::strict::check_tree_connectivity(net, &cp);
            span.lap("commit_us");
            if q + 1 < chunk_count {
                let mut dirty = cp.caches.clone();
                dirty.push(net.producer());
                let staled = scoped.update(net, &dirty, self.config.parallelism)?;
                span.field("blocks_staled", staled);
            }
            obs::gauge("planner.contention_bytes").set(scoped.contention_bytes() as i64);
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

/// The scoped per-chunk step shared by [`HierarchicalPlanner`] and the
/// sharded world's arrivals: per-region dual ascent → border-stitched
/// assignment and prune → removal improvement over the producer-rooted
/// SPT → R-copy top-up → trunk tree. Records `regions_active` and the
/// ascent, prune and improve laps on `span`; commits nothing.
///
/// Returns the placement record (caches sorted, `(client, provider)`
/// rows in audience order, the trunk tree and the cost breakdown), the
/// per-client access costs parallel to its assignment, and the
/// unweighted trunk-tree cost.
///
/// # Errors
///
/// Propagates dual-ascent failures.
pub(crate) fn plan_scoped_chunk(
    net: &Network,
    scoped: &ScopedContention,
    cfg: &ApproxConfig,
    chunk: ChunkId,
    span: &mut ChunkSpan,
) -> Result<(ChunkPlacement, Vec<f64>, f64), CoreError> {
    let producer = net.producer();
    let weights = cfg.weights;
    let facility_cost = ConflInstance::facility_costs(net, weights);
    let audience = net.interested_clients(chunk);

    // Per-region dual ascent over the scoped store, fanned out in
    // parallel; the merge is by region order, so every parallelism
    // setting yields the same facilities.
    let (facilities, busy) = ascend_regions(scoped, &facility_cost, producer, cfg, &audience)?;
    span.field("regions_active", busy);
    span.lap("ascent_us");

    // Border-stitched assignment + prune: every client chooses among the
    // facilities in its region's demand ball (its own region plus the
    // k-hop halo — the cross-border stitch) and the producer; facilities
    // serving nobody are dropped to a fixpoint, exactly like the dense
    // pipeline's prune.
    let (mut current, mut providers, mut access) =
        assign_and_prune(scoped, producer, weights, &audience, facilities);
    span.lap("prune_us");

    // Dissemination: one producer-rooted edge-weighted SPT per chunk;
    // the tree is the union of the facilities' trunk paths. Removal
    // improvement scores each facility by the fairness it frees, the
    // access it costs its clients, and the trunk edges only it holds
    // alive.
    let (_, spt_parent) =
        dijkstra_edge_weighted(net.graph(), producer, |u, v| scoped.edge_cost(u, v));
    improve_by_scoped_removal(
        scoped,
        &facility_cost,
        producer,
        weights,
        &audience,
        &spt_parent,
        &mut current,
        &mut providers,
        &mut access,
    );
    span.lap("improve_us");

    // R-copy durability floor (a no-op for the default single-copy
    // policy): top the pruned set up to the replication degree under
    // the replica-load cap, then re-derive providers so a client may be
    // served by a replica that landed inside its region's demand ball.
    // The trunk tree below unions the SPT paths of *all* R copies — the
    // R-connected dissemination objective.
    let extra = crate::replication::top_up_targets(
        net,
        &current,
        &cfg.replication,
        |i| facility_cost[i.index()],
        |a, b| weights.contention * scoped.cost(a, b),
        producer,
    );
    if !extra.is_empty() {
        current.extend(extra);
        current.sort_unstable();
        (providers, access) = assign(scoped, weights, producer, &audience, &current);
    }

    let (tree_edges, tree_cost) = trunk_tree(scoped, producer, &spt_parent, &current);
    let costs = SetCosts {
        fairness: current.iter().map(|&i| facility_cost[i.index()]).sum(),
        access: access.iter().sum(),
        dissemination: weights.dissemination * tree_cost,
    };
    let placement = ChunkPlacement {
        chunk,
        caches: current,
        assignment: audience.into_iter().zip(providers).collect(),
        tree_edges,
        costs,
    };
    Ok((placement, access, tree_cost))
}

/// Runs the dual ascent of every region `audience` touches, fanned out
/// over `cfg.parallelism`. Returns the opened facilities (sorted) and
/// the number of busy regions.
fn ascend_regions(
    scoped: &ScopedContention,
    facility_cost: &[f64],
    producer: NodeId,
    cfg: &ApproxConfig,
    audience: &[NodeId],
) -> Result<(Vec<NodeId>, usize), CoreError> {
    let mut by_region: Vec<Vec<NodeId>> = vec![Vec::new(); scoped.partition().region_count()];
    for &j in audience {
        by_region[scoped.partition().region_of(j)].push(j);
    }
    let busy: Vec<usize> = (0..by_region.len())
        .filter(|&r| !by_region[r].is_empty())
        .collect();
    let opened = fan_out(
        &busy,
        cfg.parallelism,
        |&r| -> Result<Vec<NodeId>, CoreError> {
            let view = RegionView::new(
                scoped,
                facility_cost,
                producer,
                cfg.weights,
                r,
                by_region[r].clone(),
            );
            if view.candidates.is_empty() {
                return Ok(Vec::new());
            }
            Ok(dual_ascent_scoped(&view, cfg)?.0)
        },
    );
    let mut facilities = Vec::new();
    for region in opened {
        facilities.extend(region?);
    }
    facilities.sort_unstable();
    facilities.dedup();
    Ok((facilities, busy.len()))
}

/// Facilities available to each region's clients: the open facilities
/// inside the region's demand ball (region ∪ halo), sorted.
fn facilities_by_region(scoped: &ScopedContention, facilities: &[NodeId]) -> Vec<Vec<NodeId>> {
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

/// Assigns every client to its cheapest provider among the facilities
/// in its region's demand ball and the producer. Returns providers and
/// access costs in audience order.
fn assign(
    scoped: &ScopedContention,
    weights: CostWeights,
    producer: NodeId,
    audience: &[NodeId],
    facilities: &[NodeId],
) -> (Vec<NodeId>, Vec<f64>) {
    let by_region = facilities_by_region(scoped, facilities);
    audience
        .iter()
        .map(|&j| {
            let options = &by_region[scoped.partition().region_of(j)];
            best_provider(scoped, weights, producer, options, j, None)
        })
        .unzip()
}

/// Assigns every client and drops unused facilities to a fixpoint.
/// Returns the surviving facilities (sorted), plus per-client providers
/// and access costs in audience order.
fn assign_and_prune(
    scoped: &ScopedContention,
    producer: NodeId,
    weights: CostWeights,
    audience: &[NodeId],
    mut current: Vec<NodeId>,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<f64>) {
    loop {
        let (providers, costs) = assign(scoped, weights, producer, audience, &current);
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
fn improve_by_scoped_removal(
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
    fn fan_out_returns_results_in_item_order_under_uneven_load() {
        // Early items are the slow ones, so threads that claim from the
        // cursor finish out of item order.
        let items: Vec<u64> = (0..23).collect();
        let task = |&i: &u64| (0..(23 - i) * 2_000).fold(i, |acc, k| acc ^ k.wrapping_mul(i));
        let expected: Vec<u64> = items.iter().map(task).collect();
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            assert_eq!(
                fan_out(&items, parallelism, task),
                expected,
                "{parallelism:?}"
            );
        }
        assert!(fan_out(&[] as &[u64], Parallelism::Threads(3), task).is_empty());
    }

    #[test]
    fn scoped_cost_is_exact_within_the_halo_radius() {
        let net = grid_net(8, 4);
        let dense = ContentionMatrix::compute(&net).unwrap();
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
        let staled = scoped
            .update(&net, &dirty, Parallelism::Sequential)
            .unwrap();
        assert!(staled > 0);
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

    /// Reference construction: `AllPairsPaths` over the whole induced
    /// region-∪-halo subgraph, the region rows read off by position.
    /// Returns the columns, costs and hops.
    fn reference_block(
        net: &Network,
        partition: &RegionPartition,
        terms: &[f64],
        r: usize,
    ) -> (Vec<NodeId>, Vec<f64>, Vec<u32>) {
        let g = net.graph();
        let cols = partition.ball_of(g, r, small_cfg().halo_hops);
        let (sub, originals) = g.induced_subgraph(&cols).unwrap();
        let local_terms: Vec<f64> = originals.iter().map(|&x| terms[x.index()]).collect();
        let ap = AllPairsPaths::compute(&sub, &local_terms).unwrap();
        let (mut cost, mut hops) = (Vec::new(), Vec::new());
        for u in partition.region(r) {
            let lu = NodeId::new(cols.binary_search(u).unwrap());
            for lv in (0..cols.len()).map(NodeId::new) {
                cost.push(ap.cost(lu, lv));
                hops.push(ap.hops(lu, lv).unwrap_or(u32::MAX));
            }
        }
        (cols, cost, hops)
    }

    fn bits(c: &[f64]) -> Vec<u64> {
        c.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn blocks_equal_the_induced_all_pairs_reference() {
        let mut net = grid_net(8, 4);
        let cfg = small_cfg();
        let partition = RegionPartition::grow(net.graph(), cfg.region_max, cfg.seed);
        for (v, c) in [(3, 0), (20, 0), (20, 1), (42, 2), (57, 0)] {
            net.cache(NodeId::new(v), ChunkId::new(c)).unwrap();
        }
        // Cut links inside balls over the retained partition: node 27
        // keeps two links and the departed node 44 none, so some pairs
        // are unreachable inside their block.
        for (u, v) in [(26, 27), (27, 28)] {
            assert!(net.remove_link(NodeId::new(u), NodeId::new(v)).unwrap());
        }
        net.deactivate_node(NodeId::new(44)).unwrap();
        let terms = node_contention_terms(&net);
        let mut unreachable = 0;
        for r in 0..partition.region_count() {
            let block = capture_block(net.graph(), &partition, &terms, cfg.halo_hops, r).unwrap();
            let (cols, cost, hops) = reference_block(&net, &partition, &terms, r);
            assert_eq!(block.cols, cols);
            let (block_cost, block_hops) = block.solved();
            assert_eq!(*block_hops, hops, "block {r}");
            assert_eq!(bits(block_cost), bits(&cost), "block {r}");
            unreachable += block_cost.iter().filter(|c| c.is_infinite()).count();
        }
        assert!(unreachable > 0, "no cut left a pair unreachable in a block");
    }

    #[test]
    fn update_with_no_changes_stales_nothing() {
        let net = grid_net(5, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let staled = scoped.update(&net, &[], Parallelism::Sequential).unwrap();
        assert_eq!(staled, 0);
        assert_eq!(scoped.work(), StoreWork::default());
    }

    /// Asserts every block of `scoped` equals a from-scratch capture and
    /// solve over its *retained* partition, bitwise.
    fn assert_blocks_equal_a_retained_partition_rebuild(scoped: &ScopedContention, net: &Network) {
        let terms = node_contention_terms(net);
        let all: Vec<usize> = (0..scoped.partition().region_count()).collect();
        let fresh = capture_blocks(
            net.graph(),
            scoped.partition(),
            &terms,
            scoped.cfg.halo_hops,
            Parallelism::Sequential,
            &all,
        )
        .unwrap();
        for (r, b) in fresh.iter().enumerate() {
            let (held, fresh) = (&scoped.blocks[r], b.solved());
            assert_eq!(held.cols, b.cols, "block {r} cols drifted");
            assert_eq!(held.solved().1, fresh.1, "block {r} hops drifted");
            assert_eq!(
                bits(&held.solved().0),
                bits(&fresh.0),
                "block {r} costs drifted"
            );
        }
    }

    #[test]
    fn topology_update_matches_scratch_rebuild_of_retained_partition() {
        let mut net = grid_net(6, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
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
        let staled = scoped
            .update(&net, &touched, Parallelism::Sequential)
            .unwrap();
        assert!(staled > 0, "topology churn must invalidate blocks");
        assert_blocks_equal_a_retained_partition_rebuild(&scoped, &net);
    }

    #[test]
    fn a_degree_preserving_link_batch_stales_the_blocks_it_reshapes() {
        let mut net = grid_net(6, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let before = node_contention_terms(&net);
        for (u, v) in [(0, 1), (14, 15)] {
            assert!(net.remove_link(NodeId::new(u), NodeId::new(v)).unwrap());
        }
        for (u, v) in [(0, 14), (1, 15)] {
            assert!(net.add_link(NodeId::new(u), NodeId::new(v)).unwrap());
        }
        // Every degree, hence every term, is unchanged: only the
        // neighbor lists show the edit.
        assert_eq!(node_contention_terms(&net), before);
        let touched = [0, 1, 14, 15].map(NodeId::new);
        let staled = scoped
            .update(&net, &touched, Parallelism::Sequential)
            .unwrap();
        assert!(staled > 0, "the batch must stale the blocks around it");
        assert_blocks_equal_a_retained_partition_rebuild(&scoped, &net);
    }

    #[test]
    fn update_on_a_grown_graph_equals_a_fresh_build_and_keeps_the_work() {
        let mut net = grid_net(6, 4);
        let build = |net: &Network| {
            ScopedContention::new(
                net,
                small_cfg(),
                PathSelection::FewestHops,
                Parallelism::Sequential,
            )
            .unwrap()
        };
        let mut scoped = build(&net);
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        let dirty = [NodeId::new(3), net.producer()];
        scoped
            .update(&net, &dirty, Parallelism::Sequential)
            .unwrap();
        all_costs(&scoped, &net);
        let before = scoped.work();
        assert!(before.blocks_staled > 0 && before.blocks_solved > 0);
        assert!(before.oracle_refreshes > 0);
        // The retained partition has no region for the newcomer, so the
        // store re-grows: a build's blocks, nothing staled or solved.
        let node = net.join_node(&[NodeId::new(2)], 3).unwrap();
        let captured = scoped
            .update(&net, &[NodeId::new(2), node], Parallelism::Sequential)
            .unwrap();
        let fresh = build(&net);
        assert_eq!(captured, fresh.partition().region_count());
        assert_eq!(scoped.partition(), fresh.partition());
        assert_eq!(scoped.work(), before);
        assert_eq!(all_costs(&scoped, &net), all_costs(&fresh, &net));
        let read = fresh.work();
        let total = StoreWork {
            blocks_staled: before.blocks_staled,
            blocks_solved: before.blocks_solved + read.blocks_solved,
            oracle_refreshes: before.oracle_refreshes + read.oracle_refreshes,
        };
        assert_eq!(scoped.work(), total);
    }

    /// Every pair's [`ScopedContention::cost`] bit pattern, row-major.
    fn all_costs(scoped: &ScopedContention, net: &Network) -> Vec<u64> {
        let nodes: Vec<NodeId> = net.graph().nodes().collect();
        let mut out = Vec::with_capacity(nodes.len() * nodes.len());
        for &u in &nodes {
            for &v in &nodes {
                out.push(scoped.cost(u, v).to_bits());
            }
        }
        out
    }

    #[test]
    fn two_updates_without_a_read_solve_each_block_once() {
        let mut net = grid_net(8, 4);
        let new = |net: &Network| {
            ScopedContention::new(
                net,
                small_cfg(),
                PathSelection::FewestHops,
                Parallelism::Sequential,
            )
            .unwrap()
        };
        let mut scoped = new(&net);
        let regions = scoped.partition().region_count() as u64;
        let producer = net.producer();
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        net.cache(NodeId::new(60), ChunkId::new(0)).unwrap();
        let first = scoped
            .update(
                &net,
                &[NodeId::new(3), NodeId::new(60), producer],
                Parallelism::Sequential,
            )
            .unwrap();
        net.cache(NodeId::new(5), ChunkId::new(1)).unwrap();
        let second = scoped
            .update(&net, &[NodeId::new(5), producer], Parallelism::Sequential)
            .unwrap();
        assert!(first > 0 && second > 0);
        let unread = scoped.work();
        assert_eq!(unread.blocks_staled, (first + second) as u64);
        assert_eq!(unread.blocks_solved, 0, "nothing was read");
        assert_eq!(unread.oracle_refreshes, 0, "nothing was read");
        let costs = all_costs(&scoped, &net);
        let read = scoped.work();
        assert_eq!(read.blocks_solved, regions, "each block solved once");
        assert_eq!(read.oracle_refreshes, 1, "the oracle swept once");
        assert_eq!(all_costs(&scoped, &net), costs);
        assert_eq!(scoped.work(), read, "a second read solves nothing");
        assert_blocks_equal_a_retained_partition_rebuild(&scoped, &net);
        assert_eq!(costs, all_costs(&new(&net), &net));
    }

    #[test]
    fn a_read_after_cache_without_update_returns_the_pre_cache_value() {
        let mut net = grid_net(8, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let producer = net.producer();
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        scoped
            .update(&net, &[NodeId::new(3), producer], Parallelism::Sequential)
            .unwrap();
        let before = net.clone();
        // The store has not been read since the update, so every block
        // it staled and the oracle solve after these changes.
        net.cache(NodeId::new(20), ChunkId::new(1)).unwrap();
        net.cache(NodeId::new(45), ChunkId::new(1)).unwrap();
        assert!(net.remove_link(NodeId::new(26), NodeId::new(27)).unwrap());
        let read = all_costs(&scoped, &net);
        let eager = |net: &Network| {
            let fresh = ScopedContention::new(
                net,
                small_cfg(),
                PathSelection::FewestHops,
                Parallelism::Sequential,
            )
            .unwrap();
            all_costs(&fresh, net)
        };
        assert_eq!(read, eager(&before), "a read saw the post-update state");
        assert_ne!(read, eager(&net), "the changes moved no cost");
    }

    #[test]
    fn a_clone_with_unsolved_blocks_answers_identically() {
        let mut net = grid_net(8, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let producer = net.producer();
        // Solve part of the store, then stale some of it again.
        let _ = scoped.cost(NodeId::new(0), NodeId::new(1));
        net.cache(NodeId::new(30), ChunkId::new(0)).unwrap();
        scoped
            .update(&net, &[NodeId::new(30), producer], Parallelism::Sequential)
            .unwrap();
        let clone = scoped.clone();
        assert_eq!(clone.work(), scoped.work());
        net.cache(NodeId::new(50), ChunkId::new(0)).unwrap();
        let from_clone = all_costs(&clone, &net);
        assert!(
            scoped.work().blocks_solved < clone.work().blocks_solved,
            "reading the clone solved the original's blocks"
        );
        assert_eq!(all_costs(&scoped, &net), from_clone);
        assert_eq!(scoped.work(), clone.work());
    }

    /// Plans `chunks` chunks the way [`HierarchicalPlanner`] does and
    /// returns the placements and the store's work.
    fn plan_with(parallelism: Parallelism, chunks: usize) -> (Vec<ChunkPlacement>, StoreWork) {
        let mut net = grid_net(10, 3);
        let cfg = ApproxConfig {
            parallelism,
            ..ApproxConfig::default()
        };
        let mut scoped =
            ScopedContention::new(&net, small_cfg(), cfg.selection, parallelism).unwrap();
        let mut placed = Vec::new();
        for q in 0..chunks {
            let chunk = ChunkId::new(q);
            let mut span = chunk_span("Hier", chunk);
            let (cp, _, _) = plan_scoped_chunk(&net, &scoped, &cfg, chunk, &mut span).unwrap();
            for &i in &cp.caches {
                net.cache(i, chunk).unwrap();
            }
            let mut dirty = cp.caches.clone();
            dirty.push(net.producer());
            scoped.update(&net, &dirty, parallelism).unwrap();
            placed.push(cp);
        }
        (placed, scoped.work())
    }

    #[test]
    fn solve_counts_are_equal_under_every_parallelism() {
        let (seq, seq_work) = plan_with(Parallelism::Sequential, 4);
        let (par, par_work) = plan_with(Parallelism::Threads(2), 4);
        assert_eq!(seq, par);
        assert_eq!(seq_work, par_work);
        assert!(seq_work.blocks_solved > 0 && seq_work.oracle_refreshes > 0);
    }

    #[cfg(feature = "strict-invariants")]
    #[test]
    fn strict_verify_leaves_the_work_counts_unchanged() {
        let mut net = grid_net(8, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let _ = scoped.cost(NodeId::new(0), NodeId::new(1));
        net.cache(NodeId::new(30), ChunkId::new(0)).unwrap();
        scoped
            .update(
                &net,
                &[NodeId::new(30), net.producer()],
                Parallelism::Sequential,
            )
            .unwrap();
        let work = scoped.work();
        scoped.strict_verify(&net);
        assert_eq!(scoped.work(), work);
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
            planner.plan(&mut net.clone(), 3).unwrap()
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
        let dense = ApproxPlanner::default().plan(&mut net.clone(), 4).unwrap();
        let planner = HierarchicalPlanner::new(
            ApproxConfig::default(),
            ScopedConfig {
                region_max: 32,
                ..ScopedConfig::default()
            },
        );
        let hier = planner.plan(&mut net.clone(), 4).unwrap();
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
