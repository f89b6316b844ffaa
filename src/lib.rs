//! # peercache
//!
//! A Rust reproduction of *"Fair Caching Algorithms for Peer Data
//! Sharing in Pervasive Edge Computing Environments"* (Huang, Song, Ye,
//! Yang, Li — ICDCS 2017): fairness-aware chunk caching for peer edge
//! devices, formulated as a sum of Connected Facility Location problems
//! and solved with a 6.55-style primal-dual approximation, a distributed
//! bidding protocol, exact baselines, and the prior-work comparators.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `peercache-graph` | topologies, shortest paths, Steiner trees |
//! | [`lp`] | `peercache-lp` | simplex + branch-and-bound MILP |
//! | [`approx`], [`exact`], [`baselines`], ... | `peercache-core` | the caching algorithms and metrics |
//! | [`dist`] | `peercache-dist` | the distributed protocol on a message simulator |
//! | [`obs`] | `peercache-obs` | zero-dependency tracing, metrics, JSONL telemetry |
//!
//! # Quickstart
//!
//! ```
//! use peercache::approx::ApproxPlanner;
//! use peercache::planner::CachePlanner;
//! use peercache::workload::paper_grid;
//! use peercache::metrics;
//!
//! // The paper's default scenario: 6x6 grid, producer node 9,
//! // capacity 5, five chunks everyone wants.
//! let mut network = paper_grid(6)?;
//! let placement = ApproxPlanner::default().plan(&mut network, 5)?;
//!
//! // Fairness: caching load is spread, not stacked on a hot spot.
//! let loads: Vec<usize> = network.clients().map(|n| network.used(n)).collect();
//! assert!(metrics::gini(&loads) < 0.4);
//! println!("total contention cost: {}", placement.total_contention_cost());
//! # Ok::<(), peercache::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use peercache_core::{
    approx, baselines, costs, exact, instance, metrics, placement, planner, replication, report,
    scoped, sharded, workload, world, ChunkId, CoreError, Network, PartitionPolicy,
};
pub use peercache_dist as dist;
pub use peercache_graph as graph;
pub use peercache_lp as lp;
pub use peercache_obs as obs;

/// Convenient glob import for examples and tests.
///
/// ```
/// use peercache::prelude::*;
///
/// let net = paper_grid(4)?;
/// assert_eq!(net.node_count(), 16);
/// # Ok::<(), CoreError>(())
/// ```
pub mod prelude {
    pub use crate::approx::{ApproxConfig, ApproxPlanner};
    pub use crate::baselines::{BaselineConfig, GreedyBaselinePlanner};
    pub use crate::costs::CostWeights;
    pub use crate::exact::{BruteForcePlanner, ExactConfig, MilpPlanner};
    pub use crate::metrics;
    pub use crate::placement::Placement;
    pub use crate::planner::CachePlanner;
    pub use crate::replication::ReplicationPolicy;
    pub use crate::scoped::ScopedConfig;
    pub use crate::sharded::{ShardConfig, ShardedWorld, TickReport};
    pub use crate::workload::{paper_grid, paper_random, ScenarioBuilder, Topology};
    pub use crate::world::{CacheWorld, EventOutcome, PartitionEvent, WorldEvent};
    pub use crate::{ChunkId, CoreError, Network, PartitionPolicy};
    pub use peercache_dist::{
        DistributedConfig, DistributedPlanner, FaultPlan, FaultStats, LivenessConfig,
    };
    pub use peercache_graph::{builders, NodeId};
}
