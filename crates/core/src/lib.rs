//! Fair caching for peer data sharing in pervasive edge computing.
//!
//! This crate is a from-scratch Rust implementation of the algorithms in
//! *"Fair Caching Algorithms for Peer Data Sharing in Pervasive Edge
//! Computing Environments"* (Huang, Song, Ye, Yang, Li — ICDCS 2017):
//!
//! * the system model — a connected wireless topology where `Q` equal
//!   size data chunks produced by one node must be cached across peers
//!   ([`Network`], [`ChunkId`]);
//! * the **Fairness Degree Cost** `f_i = S(i) / (S_tot(i) - S(i))`
//!   (Eq. 1) and the **Contention Cost** `c_ij = Σ_k w_k (1 + S(k))`
//!   along shortest paths (Eq. 2) ([`costs`]);
//! * the per-chunk **Connected Facility Location** instance the ILP
//!   decomposes into ([`instance`]);
//! * the paper's **approximation algorithm** (Algorithm 1) — a
//!   primal-dual dual ascent plus a Steiner dissemination tree
//!   ([`approx`]);
//! * the **exact baseline** ("Brtf") — subset enumeration and a MILP
//!   cross-check built on `peercache-lp` ([`exact`]);
//! * the **prior-work baselines** — Hop-Count-based caching
//!   (Nuggehalli et al.) and Contention-based caching (Sung et al.),
//!   with the paper's multi-item subgraph extension ([`baselines`]);
//! * the **evaluation metrics** — total/per-chunk contention cost,
//!   p-percentile fairness and the Gini coefficient ([`metrics`]);
//! * the **locality stack** — k-hop-scoped contention blocks, landmark
//!   distance estimates, and the hierarchical region planner that plans
//!   10k–100k-node networks without the `O(N²)` matrix ([`scoped`]);
//! * **workload generation** for the evaluation scenarios
//!   ([`workload`]);
//! * the **churn-aware world layer** — a typed event stream over a
//!   mutating topology with incremental placement repair ([`world`]).
//!
//! # Quickstart
//!
//! ```
//! use peercache_core::{approx::ApproxPlanner, planner::CachePlanner, Network};
//! use peercache_graph::{builders, NodeId};
//!
//! // 6x6 grid, producer at node 9, everyone can cache 5 chunks.
//! let graph = builders::grid(6, 6);
//! let mut network = Network::new(graph, NodeId::new(9), 5)?;
//!
//! // Place 5 chunks fairly.
//! let planner = ApproxPlanner::default();
//! let placement = planner.plan(&mut network, 5)?;
//!
//! assert_eq!(placement.chunks().len(), 5);
//! # Ok::<(), peercache_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod model;

pub mod approx;
pub mod baselines;
pub mod costs;
pub mod exact;
pub mod instance;
pub mod metrics;
pub mod placement;
pub mod planner;
pub mod replication;
pub mod report;
pub mod scoped;
pub mod sharded;
#[cfg(feature = "strict-invariants")]
pub mod strict;
pub mod workload;
pub mod world;

pub use error::CoreError;
pub use model::{ChunkId, Departure, Network, PartitionPolicy};
pub use replication::ReplicationPolicy;
pub use sharded::{ShardConfig, ShardedWorld, TickReport};
pub use world::{CacheWorld, PartitionEvent, WorldEvent};
