//! Shortest-path machinery.
//!
//! The paper's Path Contention Cost (Eq. 2) sums **node** costs
//! `w_k (1 + S(k))` along the route a packet takes between two nodes, so
//! unlike textbook shortest paths the metric here is node-weighted. The
//! route is the hop-shortest path, ties broken by the lower node-cost
//! sum. Its cost is never below the cheapest node-weighted path's (the
//! min-cost metric that [`crate::oracle`] bounds) and may exceed it when
//! the fewest hops pass through heavier nodes. This module provides:
//!
//! * [`bfs_hops`] — plain hop distances (the Hop-Count baseline metric),
//! * [`k_hop_neighborhood`] — the scope of the distributed algorithm's
//!   local messages,
//! * [`AllPairsPaths`] — all-pairs routed path costs with path
//!   reconstruction, computable sequentially or with a scoped-thread
//!   fan-out ([`Parallelism`]) and incrementally updatable after node
//!   costs or the topology change ([`AllPairsPaths::update`]),
//! * [`induced_rows`] — the same per-source kernel for a few sources
//!   over the subgraph a node list induces, without building it (the
//!   distributed views and the scoped store's blocks), split into an
//!   [`InducedRows`] capture and a later solve,
//! * [`dijkstra_edge_weighted`] — single-source shortest paths under an
//!   edge-weight closure (dissemination trees and the landmark sweeps).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use peercache_obs as obs;

use crate::{Csr, EdgeDiff, Graph, GraphError, NodeId};

/// Which route a packet takes between two nodes.
///
/// The paper routes packets along the *hop-shortest* path and then sums
/// contention costs along it. That is the one route this crate models,
/// so the type has one variant; the configuration fields and signatures
/// that still carry it do not read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathSelection {
    /// Prefer fewer hops; break ties by lower total node cost.
    #[default]
    FewestHops,
}

/// How many OS threads a per-source shortest-path fan-out may use.
///
/// Every per-source solve is independent and deterministic, so the
/// result is **byte-identical** for every variant — parallelism is purely
/// a wall-clock knob and can be flipped freely without perturbing
/// placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread per available core, capped at the number of sources.
    #[default]
    Auto,
    /// Single-threaded; never spawns (the right choice for small
    /// graphs, where spawn overhead dwarfs the work).
    Sequential,
    /// Exactly this many threads (clamped to at least 1 and at most the
    /// number of sources).
    Threads(usize),
}

impl Parallelism {
    /// Resolves the thread count for `work` independent items.
    pub fn threads(self, work: usize) -> usize {
        let raw = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, usize::from),
            Parallelism::Threads(t) => t.max(1),
        };
        raw.min(work).max(1)
    }
}

/// Hop distances from `src` to every node (`None` when unreachable).
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::path(4);
/// let hops = paths::bfs_hops(&g, NodeId::new(0));
/// assert_eq!(hops[3], Some(3));
/// ```
pub fn bfs_hops(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[src.index()] = Some(0);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes within `k` hops of `src`, excluding `src` itself, sorted by id.
///
/// This is the reach of the distributed algorithm's local control
/// messages (the paper limits CC/TIGHT/SPAN/FREEZE exchanges to a k-hop
/// range, with k = 2 by default). The BFS is depth-bounded: expansion
/// stops at depth `k`, so the cost is proportional to the ball actually
/// returned, not to the whole graph — the distributed engine calls this
/// once per node per round.
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::grid(3, 3);
/// // Center of the 3x3 grid reaches everything within 2 hops.
/// let reach = paths::k_hop_neighborhood(&g, NodeId::new(4), 2);
/// assert_eq!(reach.len(), 8);
/// ```
pub fn k_hop_neighborhood(g: &Graph, src: NodeId, k: u32) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    if k == 0 {
        assert!(
            src.index() < g.node_count(),
            "source {src} out of bounds for {} nodes",
            g.node_count()
        );
        return out;
    }
    let mut seen = vec![false; g.node_count()];
    seen[src.index()] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((src, 0u32));
    while let Some((u, depth)) = queue.pop_front() {
        if depth == k {
            // Nodes at the boundary are in the ball but not expanded.
            continue;
        }
        for v in g.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                out.push(v);
                queue.push_back((v, depth + 1));
            }
        }
    }
    out.sort_unstable();
    out
}

/// All-pairs routed path costs with path reconstruction: each pair's
/// route is its hop-shortest path of least node-cost sum.
///
/// The cost of a (non-trivial) path is the sum of `node_cost` over
/// **every node on the path, endpoints included** — matching the paper's
/// reading of Eq. 2 where both the sender and the receiver contend for
/// the medium. The trivial path from a node to itself has cost 0 (a node
/// reading its own cache transmits nothing).
///
/// Paths are deterministic: among equal candidates the lexicographically
/// smallest parent is chosen.
///
/// Internally the structure stores, per pair, the **interior** cost —
/// the path sum excluding both endpoints — and adds the endpoint terms
/// at query time. Because all candidate paths between a fixed pair share
/// their endpoints, routing depends only on interior costs; this split
/// is what makes [`AllPairsPaths::update`] sound: an endpoint-only cost
/// change never invalidates a stored row.
#[derive(Debug, Clone)]
pub struct AllPairsPaths {
    n: usize,
    node_cost: Vec<f64>,
    /// Per-pair interior path cost (`f64::INFINITY` when unreachable).
    interior: Vec<f64>,
    hops: Vec<u32>,
    /// Per-pair parent id in the source's shortest-path tree
    /// ([`NO_PARENT`] for the source itself and unreachable nodes);
    /// [`Csr`] already limits ids to `u32`.
    parent: Vec<u32>,
    /// Per-source bitset of nodes appearing as an *interior* node on
    /// some selected path (i.e. non-source parents in the SP tree);
    /// `words_per_row` words per source.
    interior_mask: Vec<u64>,
    /// The adjacency the rows were last solved on, which
    /// [`AllPairsPaths::update`] diffs the graph against.
    csr: Csr,
}

const UNREACHABLE_HOPS: u32 = u32::MAX;
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// Per-source scratch buffers reused across the rows one thread solves.
struct Scratch {
    /// The row's nodes in BFS layer order, source first.
    queue: Vec<u32>,
    /// Refresh only, sized on first use: layer offsets of the counting
    /// sort by stored hops.
    layer_start: Vec<usize>,
    /// Refresh only, sized on first use: whether a node's stored tree
    /// path runs through a changed node.
    stale: Vec<bool>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            queue: Vec::with_capacity(n),
            layer_start: Vec::new(),
            stale: Vec::new(),
        }
    }
}

/// What [`AllPairsPaths::run_rows`] does to each listed row.
#[derive(Clone, Copy)]
enum RowJob<'a> {
    /// Re-run [`single_source`] from scratch.
    Recompute,
    /// Re-solve in place only the nodes below a changed node
    /// ([`refresh_row`]); `changed` is the bitset of nodes whose cost
    /// rose.
    Refresh { changed: &'a [u64] },
}

/// Disjoint mutable views of one source's row.
struct RowMut<'a> {
    interior: &'a mut [f64],
    hops: &'a mut [u32],
    parent: &'a mut [u32],
    mask: &'a mut [u64],
}

impl AllPairsPaths {
    /// Heap bytes the dense rows hold per `(source, target)` pair:
    /// interior cost `f64`, hop count `u32` and parent id `u32`. The
    /// per-source interior bitset (`n / 8` bytes a row) is not counted.
    pub const BYTES_PER_PAIR: usize = size_of::<f64>() + size_of::<u32>() + size_of::<u32>();

    /// Computes the routed path of every pair, single-threaded.
    ///
    /// Runs one breadth-first sweep per source; `O(N (N + E))` total.
    /// Equivalent to [`AllPairsPaths::compute_with`] under
    /// [`Parallelism::Sequential`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than the node count.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::{builders, paths::AllPairsPaths, NodeId};
    ///
    /// let g = builders::path(3);
    /// let costs = vec![1.0, 5.0, 1.0];
    /// let ap = AllPairsPaths::compute(&g, &costs)?;
    /// // 0 -> 2 passes through the expensive middle node: 1 + 5 + 1.
    /// assert_eq!(ap.cost(NodeId::new(0), NodeId::new(2)), 7.0);
    /// assert_eq!(ap.cost(NodeId::new(1), NodeId::new(1)), 0.0);
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn compute(g: &Graph, node_cost: &[f64]) -> Result<Self, GraphError> {
        AllPairsPaths::compute_with(g, node_cost, Parallelism::Sequential)
    }

    /// Computes every pair's routed path with a configurable per-source
    /// fan-out over scoped threads.
    ///
    /// Sources are split into contiguous row blocks, one per thread;
    /// every per-source solve is independent, so the result is
    /// byte-identical to the sequential computation for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than the node count.
    pub fn compute_with(
        g: &Graph,
        node_cost: &[f64],
        parallelism: Parallelism,
    ) -> Result<Self, GraphError> {
        let n = g.node_count();
        if node_cost.len() < n {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count: n,
            });
        }
        let words = words_per_row(n);
        let mut ap = AllPairsPaths {
            n,
            node_cost: node_cost[..n].to_vec(),
            interior: vec![f64::INFINITY; n * n],
            hops: vec![UNREACHABLE_HOPS; n * n],
            parent: vec![NO_PARENT; n * n],
            interior_mask: vec![0u64; n * words],
            csr: Csr::from_graph(g),
        };
        if n == 0 {
            return Ok(ap);
        }
        let threads = parallelism.threads(n);
        let mut span = obs::span!("apsp.compute", sources = n, threads = threads);
        ap.run_rows(node_cost, 0..n, RowJob::Recompute, parallelism);
        if span.is_recording() {
            span.add_field("recomputed_sources", obs::Value::from(n));
        }
        Ok(ap)
    }

    /// Brings the structure up to date with `g` and `node_cost`,
    /// absorbing every change since its last solve: node costs that
    /// moved, edges removed or added, a grown node set. The structure
    /// finds the changes itself, by diffing `g` against the adjacency it
    /// last solved on ([`Csr::edge_diff`]) and `node_cost` against the
    /// costs it holds, and re-solves only the rows they can affect. The
    /// per-row rules, judged against the stored (pre-edit) trees and hop
    /// labels:
    ///
    /// * **Removed edge `(u, v)`** — removal only prunes candidate
    ///   paths, so a row stays valid (and optimal) unless its stored
    ///   shortest-path tree actually uses the edge (`parent[v] == u` or
    ///   `parent[u] == v`).
    /// * **Added edge `(u, v)`** — a row is unaffected when both
    ///   endpoints sit at *equal* hop depth from the source (including
    ///   both unreachable): an intra-layer edge is never part of a
    ///   hop-shortest path and is never considered by the layer DP. More
    ///   than one added edge rebuilds the whole structure (per-edge tests
    ///   against stale hop labels are unsound when additions compound),
    ///   and so does a node-count change.
    /// * **A cost rise** at `k` dirties only the rows `k` is *interior*
    ///   to. Endpoint terms are added at query time, so a row whose
    ///   selected paths hold every changed node only as an endpoint
    ///   keeps its interior costs, hops and parents.
    /// * **A cost decrease** at a connected node `k` dirties only the
    ///   rows for which `k` lies on some hop-shortest path — `k`
    ///   reachable with a neighbor one BFS layer further out — which
    ///   keeps departures (where surviving neighbors' degree terms drop)
    ///   incremental. A decrease at an *isolated* node is ignored: it
    ///   cannot be, or become, interior to any path.
    ///
    /// A dirty row is re-run from scratch, with one exception. When the
    /// graph is unchanged and every changed cost *rose*, the stored hop
    /// labels still hold, so the row is refreshed in place: only the
    /// nodes whose stored tree path has a changed node between the
    /// source and themselves re-solve their best predecessor, in stored
    /// hop order. Every other node keeps its stored parent: that
    /// candidate's cost is unchanged, while every competing candidate
    /// can only have grown. The caching planners only ever raise `S(k)`,
    /// so a chunk commit always takes this path.
    ///
    /// Returns the number of rows refreshed or re-run. The result is
    /// byte-identical to a fresh [`AllPairsPaths::compute_with`] on `g`
    /// and `node_cost`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than `g`'s node count.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::paths::{AllPairsPaths, Parallelism};
    /// use peercache_graph::{builders, NodeId};
    ///
    /// let mut g = builders::grid(3, 3);
    /// let mut costs = vec![1.0; 9];
    /// let mut ap = AllPairsPaths::compute(&g, &costs)?;
    /// costs[8] = 5.0; // a corner: interior to no hop-shortest path
    /// assert_eq!(ap.update(&g, &costs, Parallelism::Sequential)?, 0);
    /// assert_eq!(ap.cost(NodeId::new(7), NodeId::new(8)), 6.0); // queries see it
    /// let (u, v) = (NodeId::new(4), NodeId::new(5));
    /// g.remove_edge(u, v)?;
    /// assert!(ap.update(&g, &costs, Parallelism::Sequential)? < 9); // rows whose tree used (4, 5)
    /// assert_eq!(ap.hops(u, v), Some(3)); // rerouted around the gap
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn update(
        &mut self,
        g: &Graph,
        node_cost: &[f64],
        parallelism: Parallelism,
    ) -> Result<usize, GraphError> {
        if node_cost.len() < g.node_count() {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count: g.node_count(),
            });
        }
        let diff = self.csr.edge_diff(g);
        if g.node_count() != self.n || diff.added.len() > 1 {
            *self = AllPairsPaths::compute_with(g, node_cost, parallelism)?;
            return Ok(self.n);
        }
        let n = self.n;
        let mut changed = vec![0u64; words_per_row(n)];
        let mut dirty_nodes = 0usize;
        let mut rose_only = true;
        let mut decreased: Vec<usize> = Vec::new();
        for k in 0..n {
            if node_cost[k] != self.node_cost[k] {
                changed[k / 64] |= 1u64 << (k % 64);
                dirty_nodes += 1;
                rose_only &= node_cost[k] > self.node_cost[k];
                if node_cost[k] < self.node_cost[k] && g.degree(NodeId::new(k)) > 0 {
                    decreased.push(k);
                }
            }
        }
        if dirty_nodes == 0 && diff.is_empty() {
            return Ok(0);
        }
        let csr = Csr::from_graph(g);
        let rows: Vec<usize> = (0..n)
            .filter(|&src| self.row_is_stale(src, &diff, &csr, &changed, &decreased))
            .collect();
        self.node_cost.copy_from_slice(&node_cost[..n]);
        self.csr = csr;
        let threads = parallelism.threads(rows.len());
        let mut span = obs::span!(
            "apsp.update",
            sources = n,
            dirty_nodes = dirty_nodes,
            removed = diff.removed.len(),
            added = diff.added.len(),
            threads = threads,
        );
        let job = if diff.is_empty() && rose_only {
            RowJob::Refresh { changed: &changed }
        } else {
            RowJob::Recompute
        };
        let refreshed = self.run_rows(node_cost, rows.iter().copied(), job, parallelism);
        if span.is_recording() {
            span.add_field("recomputed_sources", obs::Value::from(rows.len()));
            span.add_field("refreshed_nodes", obs::Value::from(refreshed));
        }
        Ok(rows.len())
    }

    /// Whether [`AllPairsPaths::update`]'s rules dirty row `src`, read
    /// off the stored row before it changes: `csr` is the new adjacency,
    /// `changed` the bitset of nodes whose cost moved and `decreased`
    /// the connected nodes whose cost fell.
    fn row_is_stale(
        &self,
        src: usize,
        diff: &EdgeDiff,
        csr: &Csr,
        changed: &[u64],
        decreased: &[usize],
    ) -> bool {
        let (n, words) = (self.n, changed.len());
        let row_parent = &self.parent[src * n..(src + 1) * n];
        let row_hops = &self.hops[src * n..(src + 1) * n];
        let tree_edge = |child: NodeId, p: NodeId| row_parent[child.index()] as usize == p.index();
        let structural = diff
            .removed
            .iter()
            .any(|&(u, v)| tree_edge(v, u) || tree_edge(u, v))
            || diff
                .added
                .first()
                .is_some_and(|&(u, v)| row_hops[u.index()] != row_hops[v.index()]);
        structural
            || self.interior_mask[src * words..(src + 1) * words]
                .iter()
                .zip(changed)
                .any(|(m, d)| m & d != 0)
            || decreased.iter().any(|&k| {
                // The source's own cost never enters its row (it steps
                // at cost 0), so skip k == src.
                let hk = row_hops[k];
                k != src
                    && hk != UNREACHABLE_HOPS
                    && csr
                        .neighbors(k)
                        .iter()
                        .any(|&x| row_hops[x as usize] == hk + 1)
            })
    }

    /// Runs `job` on the given rows (ascending) in place against the
    /// held adjacency, sequentially or over scoped threads that each
    /// take a contiguous share of them. Rows are independent, so the
    /// result is byte-identical for any thread count.
    ///
    /// Returns the number of nodes whose predecessor was re-solved.
    fn run_rows(
        &mut self,
        node_cost: &[f64],
        rows: impl ExactSizeIterator<Item = usize>,
        job: RowJob<'_>,
        parallelism: Parallelism,
    ) -> usize {
        if rows.len() == 0 {
            return 0;
        }
        let (n, csr) = (self.n, &self.csr);
        let solve = |src: usize, row: &mut RowMut<'_>, scratch: &mut Scratch| match job {
            RowJob::Recompute => single_source(csr, node_cost, src, row, scratch),
            RowJob::Refresh { changed } => refresh_row(csr, node_cost, src, changed, row, scratch),
        };
        let threads = parallelism.threads(rows.len());
        let words = words_per_row(n);
        let mut wanted = rows.peekable();
        let mut views: Vec<(usize, RowMut<'_>)> = Vec::with_capacity(wanted.len());
        let all = self
            .interior
            .chunks_mut(n)
            .zip(self.hops.chunks_mut(n))
            .zip(self.parent.chunks_mut(n))
            .zip(self.interior_mask.chunks_mut(words));
        for (src, (((interior, hops), parent), mask)) in all.enumerate() {
            if wanted.next_if_eq(&src).is_some() {
                let row = RowMut {
                    interior,
                    hops,
                    parent,
                    mask,
                };
                views.push((src, row));
            }
        }
        if threads <= 1 {
            let mut scratch = Scratch::new(n);
            return views
                .iter_mut()
                .map(|(src, row)| solve(*src, row, &mut scratch))
                .sum();
        }
        let per = views.len().div_ceil(threads);
        let solve = &solve;
        std::thread::scope(|s| {
            let handles: Vec<_> = views
                .chunks_mut(per)
                .map(|share| {
                    s.spawn(move || {
                        let mut scratch = Scratch::new(n);
                        share
                            .iter_mut()
                            .map(|(src, row)| solve(*src, row, &mut scratch))
                            .sum::<usize>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    /// Number of nodes the structure was computed for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Cost of the selected path from `u` to `v` (`f64::INFINITY` when
    /// unreachable, `0.0` on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn cost(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let idx = u.index() * self.n + v.index();
        if self.hops[idx] == UNREACHABLE_HOPS {
            return f64::INFINITY;
        }
        self.interior[idx] + self.node_cost[u.index()] + self.node_cost[v.index()]
    }

    /// Hop length of the selected path (`None` when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn hops(&self, u: NodeId, v: NodeId) -> Option<u32> {
        match self.hops[u.index() * self.n + v.index()] {
            UNREACHABLE_HOPS => None,
            h => Some(h),
        }
    }

    /// Reconstructs the selected path from `u` to `v`, endpoints
    /// included (`None` when unreachable). `path(u, u)` is `[u]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.hops(u, v)?;
        let mut rev = vec![v];
        let mut cur = v;
        while cur != u {
            cur = match self.parent[u.index() * self.n + cur.index()] {
                NO_PARENT => unreachable!("reachable nodes have parents"),
                p => NodeId::new(p as usize),
            };
            rev.push(cur);
        }
        rev.reverse();
        Some(rev)
    }
}

/// Shortest-path rows from each of `sources` over the subgraph of `g`
/// induced by `nodes`, without building that subgraph: the
/// [`InducedRows::capture`] of those inputs, solved at once.
///
/// `nodes` must be strictly ascending and every source one of them;
/// paths may pass through listed nodes only. `node_cost` is indexed by
/// id in `g`. Row `i` of the result gives, for every `nodes[j]`, the
/// endpoint-inclusive cost from `sources[i]` as [`AllPairsPaths::cost`]
/// defines it (`0.0` on the diagonal, `f64::INFINITY` when unreachable
/// inside the subgraph) and the hop count (`u32::MAX` when
/// unreachable). Both vectors are row-major, `sources.len()` rows of
/// `nodes.len()` entries.
///
/// Every value is bit-identical to `AllPairsPaths::compute` on
/// `g.induced_subgraph(nodes)`, at the price of the listed rows alone
/// (see [`InducedRows`]).
///
/// # Errors
///
/// As [`InducedRows::capture`].
///
/// # Example
///
/// ```
/// use peercache_graph::paths::induced_rows;
/// use peercache_graph::{builders, NodeId};
///
/// let g = builders::path(4); // 0 - 1 - 2 - 3
/// let costs = [1.0, 5.0, 1.0, 1.0];
/// let nodes = [NodeId::new(0), NodeId::new(1), NodeId::new(3)];
/// let from_zero = [NodeId::new(0)];
/// let (cost, hops) = induced_rows(&g, &nodes, &from_zero, &costs)?;
/// // Without node 2, node 3 is cut off from node 0.
/// assert_eq!(cost, [0.0, 6.0, f64::INFINITY]);
/// assert_eq!(hops, [0, 1, u32::MAX]);
/// # Ok::<(), peercache_graph::GraphError>(())
/// ```
pub fn induced_rows(
    g: &Graph,
    nodes: &[NodeId],
    sources: &[NodeId],
    node_cost: &[f64],
) -> Result<(Vec<f64>, Vec<u32>), GraphError> {
    Ok(InducedRows::capture(g, nodes, sources, node_cost)?.solve())
}

/// Everything an [`induced_rows`] solve reads, captured: the CSR of
/// the subgraph a strictly ascending node list induces, the members'
/// node costs and the sources' local ids.
///
/// [`InducedRows::solve`] reads nothing else, so a capture solved later
/// returns what [`induced_rows`] returned at capture time, whatever the
/// graph or the costs did since. Ids inside the subgraph are positions
/// in the node list, and the local adjacency is read from the members'
/// own neighbor lists, so no pass over the rest of `g` is made.
/// Positions in a sorted list are monotone in id, so the local
/// neighbor lists come out in the order [`Graph::induced_subgraph`]
/// gives them and the `(interior cost, parent id)` tie rule picks the
/// same parents as [`AllPairsPaths::compute`] on that subgraph.
#[derive(Debug, Clone)]
pub struct InducedRows {
    csr: Csr,
    term: Vec<f64>,
    sources: Vec<usize>,
}

impl InducedRows {
    /// Captures the inputs of an [`induced_rows`] solve.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnsortedNodes`] if `nodes` is not strictly
    ///   ascending;
    /// * [`GraphError::NodeOutOfBounds`] if a listed node is not in `g`,
    ///   or `node_cost` is shorter than `g`'s node count;
    /// * [`GraphError::NotInNodeList`] if a source is not in `nodes`.
    pub fn capture(
        g: &Graph,
        nodes: &[NodeId],
        sources: &[NodeId],
        node_cost: &[f64],
    ) -> Result<Self, GraphError> {
        if let Some(w) = nodes.windows(2).find(|w| w[0] >= w[1]) {
            return Err(GraphError::UnsortedNodes { node: w[1] });
        }
        let node_count = g.node_count();
        // The list is ascending, so its last entry is its largest.
        if let Some(&node) = nodes.last().filter(|v| v.index() >= node_count) {
            return Err(GraphError::NodeOutOfBounds { node, node_count });
        }
        if node_cost.len() < node_count {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count,
            });
        }
        let sources = sources
            .iter()
            .map(|&s| {
                nodes
                    .binary_search(&s)
                    .map_err(|_| GraphError::NotInNodeList { node: s })
            })
            .collect::<Result<Vec<usize>, _>>()?;
        Ok(InducedRows {
            csr: Csr::induced(g, nodes),
            term: nodes.iter().map(|v| node_cost[v.index()]).collect(),
            sources,
        })
    }

    /// Solves the captured rows: each is one run of the per-source
    /// kernel behind [`AllPairsPaths::compute`]. Returns the costs and
    /// hops laid out as [`induced_rows`] documents.
    #[must_use]
    pub fn solve(&self) -> (Vec<f64>, Vec<u32>) {
        let (csr, term) = (&self.csr, &self.term);
        let b = term.len();
        let (mut interior, mut hops, mut parent) = (vec![0.0; b], vec![0; b], vec![0; b]);
        let mut mask = vec![0u64; words_per_row(b)];
        let mut scratch = Scratch::new(b);
        let mut cost_out = Vec::with_capacity(self.sources.len() * b);
        let mut hops_out = Vec::with_capacity(self.sources.len() * b);
        for &s in &self.sources {
            let mut row = RowMut {
                interior: &mut interior,
                hops: &mut hops,
                parent: &mut parent,
                mask: &mut mask,
            };
            single_source(csr, term, s, &mut row, &mut scratch);
            // The endpoint terms are added in `AllPairsPaths::cost`'s order.
            cost_out.extend((0..b).map(|j| match hops[j] {
                _ if j == s => 0.0,
                UNREACHABLE_HOPS => f64::INFINITY,
                _ => interior[j] + term[s] + term[j],
            }));
            hops_out.extend_from_slice(&hops);
        }
        (cost_out, hops_out)
    }
}

fn words_per_row(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// One row's routed paths, written into the caller's row slices in one
/// breadth-first sweep that relaxes each edge as it pops a node.
///
/// A node's predecessors sit one BFS layer closer to `src` and are all
/// popped before it, so a popped node's interior cost is final. Its
/// candidate `interior(u) + node_cost[u]` (0 when `u` is the source)
/// then goes to every neighbor: an undiscovered one joins the next
/// layer with it, and one already in that layer takes it when it is
/// smaller under the `(interior cost, parent id)` rule of
/// [`best_predecessor`]. A minimum over a strict total order does not
/// depend on the order the candidates arrive in, so each entry is the
/// one [`best_predecessor`] would pick.
///
/// The step orders candidate paths exactly as the full
/// endpoint-inclusive cost does — every candidate between a fixed pair
/// shares its endpoints — while keeping stored rows independent of
/// endpoint terms.
///
/// Returns the number of non-source nodes solved (the reachable ones).
fn single_source(
    csr: &Csr,
    node_cost: &[f64],
    src: usize,
    row: &mut RowMut<'_>,
    scratch: &mut Scratch,
) -> usize {
    let RowMut {
        interior,
        hops,
        parent,
        mask,
    } = row;
    interior.fill(f64::INFINITY);
    hops.fill(UNREACHABLE_HOPS);
    parent.fill(NO_PARENT);

    interior[src] = 0.0;
    hops[src] = 0;
    let queue = &mut scratch.queue;
    queue.clear();
    queue.push(src as u32);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        let layer = hops[u] + 1;
        let cand = interior[u] + if u == src { 0.0 } else { node_cost[u] };
        for &v in csr.neighbors(u) {
            let vi = v as usize;
            if hops[vi] == UNREACHABLE_HOPS {
                hops[vi] = layer;
                interior[vi] = cand;
                parent[vi] = u as u32;
                queue.push(v);
            } else if hops[vi] == layer {
                let better = match cand.total_cmp(&interior[vi]) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => (u as u32) < parent[vi],
                    std::cmp::Ordering::Greater => false,
                };
                if better {
                    interior[vi] = cand;
                    parent[vi] = u as u32;
                }
            }
        }
    }
    fill_interior_mask(src, parent, mask);
    queue.len() - 1
}

/// The best predecessor of the reachable non-source node `v` among its
/// neighbors one BFS layer closer to `src`: the lexicographic minimum
/// over `(interior cost, parent id)`. Returns `v`'s interior cost and
/// parent; every predecessor's entry must already be final. The subtree
/// refresh ([`refresh_row`]) re-solves its stale nodes with it.
fn best_predecessor(
    csr: &Csr,
    node_cost: &[f64],
    src: usize,
    hops: &[u32],
    interior: &[f64],
    v: usize,
) -> (f64, u32) {
    let hv = hops[v];
    let mut best = f64::INFINITY;
    let mut best_parent = NO_PARENT;
    for &u in csr.neighbors(v) {
        let ui = u as usize;
        if hops[ui] + 1 != hv {
            continue;
        }
        let step = if ui == src { 0.0 } else { node_cost[ui] };
        let cand = interior[ui] + step;
        let better = best_parent == NO_PARENT
            || match cand.total_cmp(&best) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => u < best_parent,
                std::cmp::Ordering::Greater => false,
            };
        if better {
            best = cand;
            best_parent = u;
        }
    }
    (best, best_parent)
}

/// Refreshes one row in place after the costs of the nodes in the
/// `changed` bitset rose, on an unchanged graph.
///
/// The stored hop labels still hold, so a counting sort by them
/// recovers the BFS layer order. Walking it, a node is *stale* when its
/// stored tree path has a changed node strictly between the source and
/// itself; only stale nodes re-run [`best_predecessor`]. A node that is
/// not stale keeps its stored candidate at the same cost, while every
/// other candidate can only have grown, so its stored entry is still the
/// minimum. Staleness follows the stored tree: each node reads its
/// stored parent, one layer earlier, before its own entry is rewritten.
///
/// Returns the number of nodes re-solved.
fn refresh_row(
    csr: &Csr,
    node_cost: &[f64],
    src: usize,
    changed: &[u64],
    row: &mut RowMut<'_>,
    scratch: &mut Scratch,
) -> usize {
    let RowMut {
        interior,
        hops,
        parent,
        mask,
    } = row;
    let n = hops.len();
    let start = &mut scratch.layer_start;
    start.clear();
    start.resize(n + 1, 0);
    for &h in hops.iter() {
        if h != UNREACHABLE_HOPS {
            start[h as usize + 1] += 1;
        }
    }
    for h in 1..start.len() {
        start[h] += start[h - 1];
    }
    let order = &mut scratch.queue;
    order.clear();
    order.resize(start[start.len() - 1], 0);
    for (v, &h) in hops.iter().enumerate() {
        if h != UNREACHABLE_HOPS {
            order[start[h as usize]] = v as u32;
            start[h as usize] += 1;
        }
    }
    // Every visited node's flag is written before its children read it.
    let stale = &mut scratch.stale;
    stale.resize(n, false);
    stale[src] = false;
    let mut resolved = 0;
    // `order[0]` is the source, the only node at hop 0.
    for &qv in &order[1..] {
        let v = qv as usize;
        let p = parent[v] as usize;
        let through_change = stale[p] || (p != src && changed[p / 64] & (1u64 << (p % 64)) != 0);
        stale[v] = through_change;
        if through_change {
            (interior[v], parent[v]) = best_predecessor(csr, node_cost, src, hops, interior, v);
            resolved += 1;
        }
    }
    fill_interior_mask(src, parent, mask);
    resolved
}

/// Rebuilds a row's interior-node bitset: every non-source parent
/// routes traffic through itself, so its term is baked into some stored
/// row entry.
fn fill_interior_mask(src: usize, parent: &[u32], mask: &mut [u64]) {
    mask.fill(0);
    for &p in parent {
        if p != NO_PARENT && p as usize != src {
            mask[p as usize / 64] |= 1u64 << (p % 64);
        }
    }
}

/// Single-source shortest paths under a per-edge weight closure.
///
/// Returns `(cost, parent)` vectors indexed by node; unreachable nodes
/// have `f64::INFINITY` cost and no parent. Ties are broken by smaller
/// parent id, so the tree is deterministic.
///
/// Negative weights are not supported (weights model transmission costs,
/// which are nonnegative); a negative weight yields unspecified — but
/// memory-safe — results, as with any Dijkstra.
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::ring(4);
/// let (cost, parent) = paths::dijkstra_edge_weighted(&g, NodeId::new(0), |_, _| 1.0);
/// assert_eq!(cost[2], 2.0);
/// assert!(parent[0].is_none());
/// ```
pub fn dijkstra_edge_weighted<W>(
    g: &Graph,
    src: NodeId,
    weight: W,
) -> (Vec<f64>, Vec<Option<NodeId>>)
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let (cost, parent) = edge_weighted_spt(g, src, 0.0, weight);
    let parent = parent
        .into_iter()
        .map(|p| (p != NO_PARENT).then(|| NodeId::new(p as usize)))
        .collect();
    (cost, parent)
}

/// [`dijkstra_edge_weighted`] from a non-negative `start` cost at the
/// source, with `u32` parents ([`NO_PARENT`] for the source and
/// unreachable nodes): the form the Steiner memo stores (from 0.0) and
/// the landmark sweeps read (from the landmark's own node term).
///
/// The heap is keyed on the cost's bit pattern, which orders
/// non-negative costs exactly as `f64::total_cmp` does, so nodes settle
/// in the order a `(cost, id)` heap would settle them and every tie
/// resolves as documented on [`dijkstra_edge_weighted`].
pub(crate) fn edge_weighted_spt<W>(
    g: &Graph,
    src: NodeId,
    start: f64,
    weight: W,
) -> (Vec<f64>, Vec<u32>)
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.node_count();
    let mut cost = vec![f64::INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    cost[src.index()] = start;
    heap.push(Reverse((start.to_bits(), src.index() as u32)));
    while let Some(Reverse((bits, u))) = heap.pop() {
        let u = u as usize;
        if settled[u] || bits != cost[u].to_bits() {
            continue;
        }
        settled[u] = true;
        for v in g.neighbors(NodeId::new(u)) {
            let vi = v.index();
            if settled[vi] {
                continue;
            }
            let cand = cost[u] + weight(NodeId::new(u), v);
            let better = cand < cost[vi]
                || (cand == cost[vi] && parent[vi] != NO_PARENT && (u as u32) < parent[vi]);
            if better {
                cost[vi] = cand;
                parent[vi] = u as u32;
                heap.push(Reverse((cand.to_bits(), vi as u32)));
            }
        }
    }
    (cost, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use proptest::prelude::*;

    fn unit_costs(g: &Graph) -> Vec<f64> {
        vec![1.0; g.node_count()]
    }

    #[test]
    fn bfs_hops_on_grid() {
        let g = builders::grid(3, 3);
        let hops = bfs_hops(&g, NodeId::new(0));
        assert_eq!(hops[0], Some(0));
        assert_eq!(hops[8], Some(4)); // opposite corner
    }

    #[test]
    fn bfs_hops_unreachable_is_none() {
        let g = Graph::new(2);
        let hops = bfs_hops(&g, NodeId::new(0));
        assert_eq!(hops[1], None);
    }

    #[test]
    fn k_hop_neighborhood_grows_with_k() {
        let g = builders::grid(5, 5);
        let center = NodeId::new(12);
        let one = k_hop_neighborhood(&g, center, 1);
        let two = k_hop_neighborhood(&g, center, 2);
        assert_eq!(one.len(), 4);
        assert_eq!(two.len(), 12);
        assert!(one.iter().all(|n| two.contains(n)));
    }

    #[test]
    fn k_zero_neighborhood_is_empty() {
        let g = builders::grid(3, 3);
        assert!(k_hop_neighborhood(&g, NodeId::new(4), 0).is_empty());
    }

    #[test]
    fn k_hop_matches_bfs_filter_reference() {
        // The depth-bounded BFS must agree with the naive
        // full-BFS-then-filter definition on every (src, k).
        let g = builders::grid(4, 5);
        for src in g.nodes() {
            let hops = bfs_hops(&g, src);
            for k in 0..=6u32 {
                let reference: Vec<NodeId> = g
                    .nodes()
                    .filter(|&v| v != src && hops[v.index()].is_some_and(|h| h <= k))
                    .collect();
                assert_eq!(k_hop_neighborhood(&g, src, k), reference, "src={src} k={k}");
            }
        }
    }

    #[test]
    fn k_hop_is_depth_bounded_on_disconnected_parts() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(
            k_hop_neighborhood(&g, NodeId::new(0), 3),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn all_pairs_diagonal_is_zero() {
        let g = builders::grid(3, 3);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g)).unwrap();
        for u in g.nodes() {
            assert_eq!(ap.cost(u, u), 0.0);
            assert_eq!(ap.hops(u, u), Some(0));
            assert_eq!(ap.path(u, u), Some(vec![u]));
        }
    }

    #[test]
    fn unit_cost_path_includes_both_endpoints() {
        let g = builders::path(4);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g)).unwrap();
        // 0-1: both endpoints -> cost 2.
        assert_eq!(ap.cost(NodeId::new(0), NodeId::new(1)), 2.0);
        assert_eq!(ap.cost(NodeId::new(0), NodeId::new(3)), 4.0);
    }

    #[test]
    fn path_reconstruction_matches_hops() {
        let g = builders::grid(4, 4);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g)).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let p = ap.path(u, v).expect("grid is connected");
                assert_eq!(p.len() as u32 - 1, ap.hops(u, v).unwrap());
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                // Consecutive nodes are adjacent.
                for w in p.windows(2) {
                    assert!(g.contains_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn unreachable_pairs_report_infinity() {
        let g = Graph::new(3); // no edges
        let ap = AllPairsPaths::compute(&g, &[1.0; 3]).unwrap();
        assert!(ap.cost(NodeId::new(0), NodeId::new(2)).is_infinite());
        assert_eq!(ap.hops(NodeId::new(0), NodeId::new(2)), None);
        assert_eq!(ap.path(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn cost_matrix_is_symmetric_for_symmetric_metrics() {
        let g = builders::grid(4, 4);
        let costs: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64).collect();
        let ap = AllPairsPaths::compute(&g, &costs).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert!((ap.cost(u, v) - ap.cost(v, u)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn short_cost_slice_is_an_error() {
        let g = builders::grid(2, 2);
        let err = AllPairsPaths::compute(&g, &[1.0]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    fn assert_identical(a: &AllPairsPaths, b: &AllPairsPaths, g: &Graph) {
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.cost(u, v).to_bits(), b.cost(u, v).to_bits(), "{u}->{v}");
                assert_eq!(a.hops(u, v), b.hops(u, v));
                assert_eq!(a.path(u, v), b.path(u, v));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let g = builders::grid(5, 5);
        let costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 7) as f64).collect();
        let seq = AllPairsPaths::compute(&g, &costs).unwrap();
        for threads in [2usize, 3, 8, 64] {
            let par =
                AllPairsPaths::compute_with(&g, &costs, Parallelism::Threads(threads)).unwrap();
            assert_identical(&seq, &par, &g);
        }
    }

    #[test]
    fn update_matches_fresh_compute() {
        let g = builders::grid(5, 5);
        let mut costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        // Raise a few node terms, as committing a chunk does.
        for bump in [12usize, 3, 24] {
            costs[bump] += 2.0;
            let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
            assert!(redone <= g.node_count());
            let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
            assert_identical(&ap, &fresh, &g);
        }
        // A decrease at the centre re-runs every row it can lie on a
        // hop-shortest path of: all but its own.
        costs[12] -= 3.0;
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        assert_eq!(redone, g.node_count() - 1);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn refresh_resolves_only_the_subtrees_below_changed_nodes() {
        // On the path 0-1-2-3-4, raising node 2 invalidates {3, 4} from
        // sources 0 and 1 and {1, 0} from sources 3 and 4; from source 2
        // the node is an endpoint only.
        let g = builders::path(5);
        let mut costs = vec![1.0; 5];
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        costs[2] = 3.0;
        ap.node_cost.copy_from_slice(&costs);
        let changed = [1u64 << 2];
        let resolved = ap.run_rows(
            &costs,
            0..5,
            RowJob::Refresh { changed: &changed },
            Parallelism::Sequential,
        );
        assert_eq!(resolved, 8);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn bytes_per_pair_matches_the_row_layout() {
        let g = builders::grid(2, 2);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g)).unwrap();
        let per_pair =
            size_of_val(&ap.interior[0]) + size_of_val(&ap.hops[0]) + size_of_val(&ap.parent[0]);
        assert_eq!(AllPairsPaths::BYTES_PER_PAIR, per_pair);
        assert_eq!(AllPairsPaths::BYTES_PER_PAIR, 16);
    }

    #[test]
    fn update_with_unchanged_costs_is_a_noop() {
        let g = builders::grid(3, 3);
        let costs = unit_costs(&g);
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_eq!(ap.update(&g, &costs, Parallelism::Auto).unwrap(), 0);
    }

    #[test]
    fn update_threaded_matches_sequential() {
        // Unit costs tie every equal-hop route on a grid, so raising a
        // few nodes moves ties and exercises the parent-id rule.
        let g = builders::grid(6, 6);
        let varied: Vec<f64> = (0..36).map(|i| 1.0 + (i % 3) as f64).collect();
        for mut costs in [varied, unit_costs(&g)] {
            let mut seq = AllPairsPaths::compute(&g, &costs).unwrap();
            let mut par = seq.clone();
            for bumps in [&[7usize, 20][..], &[14, 15], &[7, 21, 22, 28]] {
                for &k in bumps {
                    costs[k] += 1.0;
                }
                let a = seq.update(&g, &costs, Parallelism::Sequential).unwrap();
                let b = par.update(&g, &costs, Parallelism::Threads(4)).unwrap();
                assert_eq!(a, b);
                let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
                for ap in [&seq, &par] {
                    assert_identical(ap, &fresh, &g);
                    assert_eq!(ap.interior_mask, fresh.interior_mask);
                }
            }
        }
    }

    #[test]
    fn topology_update_after_edge_removal_matches_fresh() {
        let mut g = builders::grid(5, 5);
        let costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 4) as f64).collect();
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        let (u, v) = (NodeId::new(6), NodeId::new(7));
        g.remove_edge(u, v).unwrap();
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
        assert!(redone < 25, "removal must stay incremental, redid {redone}");
    }

    #[test]
    fn topology_update_after_edge_addition_matches_fresh() {
        let mut g = builders::grid(2, 2); // square 0-1, 0-2, 1-3, 2-3
        let costs = vec![1.0, 2.0, 3.0, 4.0];
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        let (u, v) = (NodeId::new(0), NodeId::new(3));
        g.add_edge(u, v).unwrap();
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
        // From sources 1 and 2 the new diagonal joins two nodes at equal
        // depth, so only rows 0 and 3 re-ran.
        assert_eq!(redone, 2);
    }

    #[test]
    fn topology_update_node_departure_with_cost_decreases() {
        // A departure removes all incident edges AND lowers the degree
        // terms of the surviving neighbors — the combination the world
        // layer issues. The decrease must not force a full recompute.
        let mut g = builders::grid(5, 5);
        let costs: Vec<f64> = (0..25)
            .map(|k| 1.0 + (g.degree(NodeId::new(k))) as f64)
            .collect();
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        let dead = NodeId::new(12); // center
        g.remove_node(dead).unwrap();
        let new_costs: Vec<f64> = (0..25)
            .map(|k| 1.0 + (g.degree(NodeId::new(k))) as f64)
            .collect();
        let redone = ap.update(&g, &new_costs, Parallelism::Sequential).unwrap();
        let fresh = AllPairsPaths::compute(&g, &new_costs).unwrap();
        assert_identical(&ap, &fresh, &g);
        assert!(redone <= 25);
        assert!(ap.cost(NodeId::new(0), dead).is_infinite());
    }

    #[test]
    fn topology_update_pure_decrease_stays_incremental_hop_first() {
        // Lowering the cost of a node that no hop-shortest path can use
        // must not recompute anything.
        let g = builders::path(4);
        let mut costs = vec![1.0, 1.0, 1.0, 5.0];
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        costs[3] = 2.0; // a leaf: never interior
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        assert_eq!(redone, 0);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
        // An interior decrease re-runs the rows that can route through
        // it: node 1 lies between 0 and {2, 3}, and between 2 and 0.
        costs[1] = 0.5;
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        assert_eq!(redone, 3);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn topology_update_node_count_change_rebuilds() {
        let mut g = builders::path(3);
        let mut costs = vec![1.0; 3];
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        let new = g.add_node();
        g.add_edge(new, NodeId::new(2)).unwrap();
        costs.push(1.0);
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        assert_eq!(redone, 4);
        assert_eq!(ap.node_count(), 4);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn topology_update_multi_addition_falls_back_to_full() {
        let mut g = builders::path(4);
        let costs = vec![1.0; 4];
        let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
        let added = [
            (NodeId::new(0), NodeId::new(2)),
            (NodeId::new(1), NodeId::new(3)),
        ];
        for &(u, v) in &added {
            g.add_edge(u, v).unwrap();
        }
        let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
        assert_eq!(redone, 4);
        let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    /// Tiny deterministic xorshift so the randomized churn test needs no
    /// external RNG crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    #[test]
    fn topology_update_randomized_churn_matches_fresh() {
        let mut g = builders::grid(4, 4);
        let mut costs: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut ap = AllPairsPaths::compute_with(&g, &costs, Parallelism::Threads(3)).unwrap();
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for step in 0..80 {
            // A removal, an addition, a cost change, or a batch of one
            // removal and one addition.
            let op = rng.below(4);
            if op == 0 || op == 3 {
                let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
                if !edges.is_empty() {
                    let (u, v) = edges[rng.below(edges.len())];
                    g.remove_edge(u, v).unwrap();
                }
            }
            if op == 1 || op == 3 {
                let (u, v) = (NodeId::new(rng.below(16)), NodeId::new(rng.below(16)));
                if u != v {
                    g.add_edge(u, v).unwrap();
                }
            }
            if op == 2 {
                let k = rng.below(16);
                costs[k] = 1.0 + rng.below(7) as f64;
            }
            let par = if step % 2 == 0 {
                Parallelism::Sequential
            } else {
                Parallelism::Threads(4)
            };
            ap.update(&g, &costs, par).unwrap();
            let fresh = AllPairsPaths::compute(&g, &costs).unwrap();
            assert_identical(&ap, &fresh, &g);
        }
    }

    #[test]
    fn induced_rows_rejects_bad_lists() {
        let g = builders::path(4);
        let costs = unit_costs(&g);
        let ids = |v: &[usize]| v.iter().copied().map(NodeId::new).collect::<Vec<_>>();
        let rows = |nodes: &[usize], sources: &[usize], costs: &[f64]| {
            induced_rows(&g, &ids(nodes), &ids(sources), costs)
        };
        let unsorted = Err(GraphError::UnsortedNodes {
            node: NodeId::new(1),
        });
        assert_eq!(rows(&[0, 2, 1], &[0], &costs), unsorted);
        assert_eq!(rows(&[0, 1, 1], &[0], &costs), unsorted);
        assert_eq!(
            rows(&[0, 4], &[0], &costs),
            Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(4),
                node_count: 4
            })
        );
        assert!(matches!(
            rows(&[0, 1], &[0], &costs[..3]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert_eq!(
            rows(&[0, 1], &[2], &costs),
            Err(GraphError::NotInNodeList {
                node: NodeId::new(2)
            })
        );
        assert_eq!(rows(&[], &[], &costs), Ok((vec![], vec![])));
    }

    #[test]
    fn update_rejects_a_short_cost_slice() {
        let g = builders::grid(3, 3);
        let mut ap = AllPairsPaths::compute(&g, &unit_costs(&g)).unwrap();
        let err = ap
            .update(&g, &[1.0; 8], Parallelism::Sequential)
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    /// The per-source kernel as it stood before the one-sweep rewrite,
    /// kept verbatim as the reference the one-sweep kernel must match
    /// bit for bit.
    mod two_pass {
        use super::super::*;

        /// One row's routed paths, written into the caller's row slices: a BFS
        /// for the hop labels, then a layer-order pass picking each node's best
        /// predecessor ([`best_predecessor`]).
        ///
        /// The step `interior(v) = interior(u) + node_cost[u]` (0 when `u` is
        /// the source) orders candidate paths exactly as the full
        /// endpoint-inclusive cost does — every candidate between a fixed pair
        /// shares its endpoints — while keeping stored rows independent of
        /// endpoint terms.
        ///
        /// Returns the number of non-source nodes solved (the reachable ones).
        pub(crate) fn single_source(
            csr: &Csr,
            node_cost: &[f64],
            src: usize,
            row: &mut RowMut<'_>,
            scratch: &mut Scratch,
        ) -> usize {
            let RowMut {
                interior,
                hops,
                parent,
                mask,
            } = row;
            interior.fill(f64::INFINITY);
            hops.fill(UNREACHABLE_HOPS);
            parent.fill(NO_PARENT);

            interior[src] = 0.0;
            hops[src] = 0;
            let queue = &mut scratch.queue;
            queue.clear();
            queue.push(src as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &v in csr.neighbors(u) {
                    let vi = v as usize;
                    if hops[vi] == UNREACHABLE_HOPS {
                        hops[vi] = hops[u] + 1;
                        queue.push(v);
                    }
                }
            }
            // BFS order visits layers in order, so each node's predecessors
            // (hop exactly one less) are already final.
            for &qv in &queue[1..] {
                let v = qv as usize;
                (interior[v], parent[v]) = best_predecessor(csr, node_cost, src, hops, interior, v);
            }
            fill_interior_mask(src, parent, mask);
            queue.len() - 1
        }
    }

    /// Every row of `g` under `costs` solved by the two-pass reference
    /// kernel, with the sum of its returned counts.
    fn two_pass_rows(g: &Graph, costs: &[f64]) -> (AllPairsPaths, usize) {
        let n = g.node_count();
        let words = words_per_row(n);
        let mut ap = AllPairsPaths {
            n,
            node_cost: costs[..n].to_vec(),
            interior: vec![-1.0; n * n],
            hops: vec![7; n * n],
            parent: vec![7; n * n],
            interior_mask: vec![u64::MAX; n * words],
            csr: Csr::from_graph(g),
        };
        let mut scratch = Scratch::new(n);
        let mut solved = 0;
        let rows = ap
            .interior
            .chunks_mut(n)
            .zip(ap.hops.chunks_mut(n))
            .zip(ap.parent.chunks_mut(n))
            .zip(ap.interior_mask.chunks_mut(words));
        for (src, (((interior, hops), parent), mask)) in rows.enumerate() {
            let mut row = RowMut {
                interior,
                hops,
                parent,
                mask,
            };
            solved += two_pass::single_source(&ap.csr, costs, src, &mut row, &mut scratch);
        }
        (ap, solved)
    }

    /// Interior bits, hops, parents and interior bitsets, row for row.
    fn same_rows(a: &AllPairsPaths, b: &AllPairsPaths) -> Result<(), TestCaseError> {
        let bits = |ap: &AllPairsPaths| ap.interior.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(a), bits(b));
        prop_assert_eq!(&a.hops, &b.hops);
        prop_assert_eq!(&a.parent, &b.parent);
        prop_assert_eq!(&a.interior_mask, &b.interior_mask);
        Ok(())
    }

    /// Grids (dense equal-hop ties), random geometric graphs, and
    /// disconnected graphs: two disjoint grids beside an isolated node.
    fn kernel_graph() -> impl Strategy<Value = Graph> {
        use rand::SeedableRng;
        prop_oneof![
            (2usize..8, 2usize..8).prop_map(|(rows, cols)| builders::grid(rows, cols)),
            (
                8usize..48,
                0u64..1000,
                prop_oneof![Just(0.2f64), Just(0.35)]
            )
                .prop_map(|(n, seed, range)| {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
                    builders::random_geometric(n, range, &mut rng)
                }),
            (2usize..5, 2usize..5).prop_map(|(rows, cols)| {
                let half = builders::grid(rows, cols);
                let n = half.node_count();
                let mut g = Graph::new(2 * n + 1);
                for (u, v) in half.edges() {
                    g.add_edge(u, v).unwrap();
                    g.add_edge(NodeId::new(u.index() + n), NodeId::new(v.index() + n))
                        .unwrap();
                }
                g
            }),
        ]
    }

    /// Node terms of one of four kinds: unit, small integers, zeros
    /// among ones, or dyadic fractions (exact sums, so exact ties).
    fn kernel_terms(kind: u8, picks: &[u8], n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let p = f64::from(picks[k % picks.len()]);
                match kind {
                    0 => 1.0,
                    1 => 1.0 + p % 4.0,
                    2 => p % 2.0,
                    _ => (p % 16.0) / 8.0,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_sweep_kernel_matches_the_two_pass_reference(
            g in kernel_graph(),
            kind in 0u8..4,
            picks in prop::collection::vec(0u8..64, 1..48),
            edit in 0usize..1000,
            keep in any::<u64>(),
        ) {
            let n = g.node_count();
            let costs = kernel_terms(kind, &picks, n);
            let (reference, reference_solved) = two_pass_rows(&g, &costs);

            // Row by row, the returned count included.
            let csr = Csr::from_graph(&g);
            let mut scratch = Scratch::new(n);
            let (mut interior, mut hops) = (vec![0.0; n], vec![0; n]);
            let (mut parent, mut mask) = (vec![0; n], vec![0; words_per_row(n)]);
            let mut solved = 0;
            for src in 0..n {
                let mut row = RowMut {
                    interior: &mut interior,
                    hops: &mut hops,
                    parent: &mut parent,
                    mask: &mut mask,
                };
                solved += single_source(&csr, &costs, src, &mut row, &mut scratch);
                let (lo, hi) = (src * n, (src + 1) * n);
                let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&interior), bits(&reference.interior[lo..hi]));
                prop_assert_eq!(&hops[..], &reference.hops[lo..hi]);
                prop_assert_eq!(&parent[..], &reference.parent[lo..hi]);
                let words = words_per_row(n);
                prop_assert_eq!(&mask[..], &reference.interior_mask[src * words..(src + 1) * words]);
            }
            prop_assert_eq!(solved, reference_solved);

            // Through the row fan-out, sequential and threaded.
            for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
                let ap = AllPairsPaths::compute_with(&g, &costs, par).unwrap();
                same_rows(&ap, &reference)?;
                let mut again = ap.clone();
                let rerun = again.run_rows(&costs, 0..n, RowJob::Recompute, par);
                prop_assert_eq!(rerun, reference_solved);
            }

            // Through `update`: a link edit, then a cost rise.
            let mut ap = AllPairsPaths::compute(&g, &costs).unwrap();
            let mut edited = g.clone();
            let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
            let (u, v) = (NodeId::new(edit % n), NodeId::new(edit / 7 % n));
            if edit % 2 == 0 && !edges.is_empty() {
                let (a, b) = edges[edit % edges.len()];
                edited.remove_edge(a, b).unwrap();
            } else if u != v {
                edited.add_edge(u, v).unwrap();
            }
            ap.update(&edited, &costs, Parallelism::Sequential).unwrap();
            same_rows(&ap, &two_pass_rows(&edited, &costs).0)?;
            let mut raised = costs.clone();
            for k in [edit % n, edit / 3 % n, keep as usize % n] {
                raised[k] += 0.5 + (k % 3) as f64;
            }
            ap.update(&edited, &raised, Parallelism::Threads(2)).unwrap();
            same_rows(&ap, &two_pass_rows(&edited, &raised).0)?;

            // Through `induced_rows`, on a subset of the nodes.
            let nodes: Vec<NodeId> = g
                .nodes()
                .filter(|v| keep.rotate_left(v.index() as u32) & 3 != 0)
                .collect();
            let sources: Vec<NodeId> = nodes.iter().copied().step_by(2).collect();
            let (sub, _) = g.induced_subgraph(&nodes).unwrap();
            let sub_costs: Vec<f64> = nodes.iter().map(|v| costs[v.index()]).collect();
            let (sub_reference, _) = two_pass_rows(&sub, &sub_costs);
            let (cost, hops) = induced_rows(&g, &nodes, &sources, &costs).unwrap();
            let b = nodes.len();
            for (i, s) in sources.iter().enumerate() {
                let row = NodeId::new(nodes.binary_search(s).unwrap());
                for j in 0..b {
                    let col = NodeId::new(j);
                    prop_assert_eq!(cost[i * b + j].to_bits(), sub_reference.cost(row, col).to_bits());
                    prop_assert_eq!(hops[i * b + j], sub_reference.hops(row, col).unwrap_or(u32::MAX));
                }
            }
        }
    }

    #[test]
    fn parallelism_thread_resolution() {
        assert_eq!(Parallelism::Sequential.threads(100), 1);
        assert_eq!(Parallelism::Threads(4).threads(100), 4);
        assert_eq!(Parallelism::Threads(0).threads(100), 1);
        assert_eq!(Parallelism::Threads(16).threads(3), 3);
        assert!(Parallelism::Auto.threads(100) >= 1);
        assert_eq!(Parallelism::Auto.threads(0), 1);
    }
}
