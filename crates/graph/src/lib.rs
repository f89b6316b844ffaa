//! Network-graph substrate for the `peercache` workspace.
//!
//! This crate models the multi-hop wireless network topology of the paper
//! *"Fair Caching Algorithms for Peer Data Sharing in Pervasive Edge
//! Computing Environments"* (ICDCS 2017) as a connected undirected graph
//! `G = (V, E)` and provides every graph algorithm the caching planners
//! need:
//!
//! * [`Graph`] — compact adjacency-list representation of an undirected
//!   simple graph over dense node indices ([`NodeId`]).
//! * [`builders`] — the topology families used in the paper's evaluation:
//!   grid networks, connected random geometric networks, plus paths,
//!   rings, stars and complete graphs for testing.
//! * [`paths`] — BFS hop distances, node-weighted Dijkstra,
//!   all-pairs shortest paths with path reconstruction, k-hop
//!   neighborhoods (for the distributed algorithm's scoped messages).
//! * [`components`] — connectivity queries and largest-component
//!   extraction (used by the paper's multi-item baseline extension).
//! * [`mst`] — minimum spanning trees (Kruskal and Prim).
//! * [`oracle`] — seeded landmark distance oracle with
//!   triangle-inequality bounds and a k-hop-ball exact fallback (the
//!   O(L·N) substitute for all-pairs state at scale).
//! * [`regions`] — deterministic bounded-size region partitioning with
//!   k-hop halos (the hierarchical planner's decomposition).
//! * [`steiner`] — a metric-closure 2-approximation of the Steiner tree
//!   (the dissemination-tree phase of the approximation algorithm).
//!
//! # Example
//!
//! ```
//! use peercache_graph::{builders, paths, NodeId};
//!
//! // The paper's default evaluation topology: a 6x6 grid.
//! let g = builders::grid(6, 6);
//! assert_eq!(g.node_count(), 36);
//!
//! // Hop distances from the producer (node 9 in the paper).
//! let hops = paths::bfs_hops(&g, NodeId::new(9));
//! assert_eq!(hops[9], Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;

pub mod analysis;
pub mod builders;
pub mod components;
pub mod mst;
pub mod oracle;
pub mod paths;
pub mod regions;
pub mod steiner;

pub use error::GraphError;
pub use graph::{Csr, EdgeIter, Graph, NeighborIter, NodeId};
