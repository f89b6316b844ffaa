use std::error::Error;
use std::fmt;

use crate::NodeId;

/// Errors produced by graph construction and graph algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node index referenced a node outside the graph.
    NodeOutOfBounds {
        /// The offending node.
        node: NodeId,
        /// Number of nodes actually in the graph.
        node_count: usize,
    },
    /// A self-loop was added; the wireless model is a simple graph.
    SelfLoop {
        /// The node that would have been connected to itself.
        node: NodeId,
    },
    /// The algorithm required a connected graph but the input was not.
    Disconnected,
    /// A terminal set was empty where at least one terminal is required.
    NoTerminals,
    /// A node list that must be strictly ascending (sorted, no
    /// duplicates) was not.
    UnsortedNodes {
        /// The first entry not greater than the one before it.
        node: NodeId,
    },
    /// A node that must be one of a list's members was not.
    NotInNodeList {
        /// The node missing from the list.
        node: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, node_count } => write!(
                f,
                "node {node} is out of bounds for a graph with {node_count} nodes"
            ),
            GraphError::SelfLoop { node } => {
                write!(
                    f,
                    "self-loop on node {node} is not allowed in a simple graph"
                )
            }
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::NoTerminals => write!(f, "terminal set is empty"),
            GraphError::UnsortedNodes { node } => {
                write!(f, "node list is not strictly ascending at node {node}")
            }
            GraphError::NotInNodeList { node } => {
                write!(f, "node {node} is not a member of the node list")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::NodeOutOfBounds {
            node: NodeId::new(7),
            node_count: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains('4'));

        assert_eq!(
            GraphError::Disconnected.to_string(),
            "graph is not connected"
        );
        assert!(GraphError::SelfLoop {
            node: NodeId::new(1)
        }
        .to_string()
        .contains("self-loop"));
        assert!(GraphError::NoTerminals.to_string().contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
