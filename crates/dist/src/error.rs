//! Typed errors for the distributed protocol paths.
//!
//! Lint rule P1 forbids `unwrap`/`expect`/`panic!` in `crates/dist/src/**`:
//! the bidding protocol must stay panic-free under adversarial schedules
//! (message loss, node death mid-round). Conditions that were previously
//! `expect`ed surface here as variants instead.

use std::fmt;

use peercache_graph::GraphError;

/// An error raised by the distributed protocol layers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A graph operation on a local view failed (invalid node, short term
    /// vector).
    Graph(GraphError),
    /// The event queue referenced a payload slot that holds no delivery —
    /// the engine's queue/payload bookkeeping diverged.
    MissingPayload {
        /// The payload slot the queue entry pointed at.
        slot: usize,
    },
}

impl ProtocolError {
    /// Short stable name of the error variant, for counters and run
    /// reports (see [`crate::RunReport::first_error`]).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolError::Graph(_) => "Graph",
            ProtocolError::MissingPayload { .. } => "MissingPayload",
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Graph(e) => write!(f, "local view graph operation failed: {e}"),
            ProtocolError::MissingPayload { slot } => {
                write!(f, "event queue referenced empty payload slot {slot}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ProtocolError {
    fn from(e: GraphError) -> Self {
        ProtocolError::Graph(e)
    }
}

impl From<ProtocolError> for peercache_core::CoreError {
    fn from(e: ProtocolError) -> Self {
        peercache_core::CoreError::Protocol(e.to_string())
    }
}
