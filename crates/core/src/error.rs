use std::error::Error;
use std::fmt;

use peercache_graph::{GraphError, NodeId};

use crate::ChunkId;

/// Errors produced by the caching planners and the system model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A graph-level failure (bad node, disconnected topology, ...).
    Graph(GraphError),
    /// The planning topology must be connected (paper §III-A).
    DisconnectedNetwork,
    /// The producer node cannot cache chunks (paper §V-A: "the producer
    /// node will not store data on its caching storage").
    ProducerCannotCache {
        /// The producer node.
        producer: NodeId,
    },
    /// A node's caching storage is exhausted.
    StorageFull {
        /// The node whose storage is full.
        node: NodeId,
        /// Its total capacity in chunks.
        capacity: usize,
    },
    /// The chunk is already cached on the node; each node stores at most
    /// one copy of a chunk.
    AlreadyCached {
        /// The caching node.
        node: NodeId,
        /// The duplicate chunk.
        chunk: ChunkId,
    },
    /// No feasible placement exists (e.g. total storage cannot hold the
    /// requested chunks).
    InsufficientStorage {
        /// Chunks requested.
        requested: usize,
        /// Chunk slots available across all non-producer nodes.
        available: usize,
    },
    /// The underlying LP solver failed while computing an exact optimum.
    Solver(String),
    /// The distributed protocol layer failed; carries the rendered
    /// `ProtocolError` (core does not depend on `dist`).
    Protocol(String),
    /// An algorithm parameter was invalid (e.g. a zero bid increment).
    InvalidParameter(String),
    /// A dual ascent's round bound rests on a cost that is not finite
    /// (a client its anchor cannot reach), so the ascent has no cap.
    NonFiniteCost {
        /// Which cost bounds the ascent (e.g. `"producer connection cost"`).
        what: &'static str,
        /// Its non-finite value.
        value: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::DisconnectedNetwork => {
                write!(f, "network topology must be connected")
            }
            CoreError::ProducerCannotCache { producer } => {
                write!(f, "producer node {producer} cannot cache chunks")
            }
            CoreError::StorageFull { node, capacity } => {
                write!(f, "storage of node {node} is full (capacity {capacity})")
            }
            CoreError::AlreadyCached { node, chunk } => {
                write!(f, "chunk {chunk} is already cached on node {node}")
            }
            CoreError::InsufficientStorage {
                requested,
                available,
            } => write!(
                f,
                "cannot place {requested} chunks: only {available} chunk slots available"
            ),
            CoreError::Solver(why) => write!(f, "solver failure: {why}"),
            CoreError::Protocol(why) => write!(f, "distributed protocol failure: {why}"),
            CoreError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
            CoreError::NonFiniteCost { what, value } => {
                write!(f, "dual ascent has no round cap: {what} is {value}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::StorageFull {
            node: NodeId::new(3),
            capacity: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
        assert!(CoreError::DisconnectedNetwork
            .to_string()
            .contains("connected"));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let e: CoreError = GraphError::Disconnected.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
