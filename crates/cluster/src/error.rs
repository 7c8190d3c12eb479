//! Failure taxonomy for the cluster driver.
//!
//! The driver talks to autonomous node threads over channels; any of them
//! can die (crash injection, a panicked worker) or stall (a saturated
//! single-worker DBMS). Those are *environmental* failures and must not
//! panic the experiment — they surface as [`ClusterError`] values that the
//! driver either retries around (allocation paths) or records in the
//! per-query outcome. Panics remain reserved for programmer errors
//! (malformed generated SQL, impossible specs), which are documented at
//! their `expect` sites.

use qa_net::NetError;
use std::fmt;

/// An environmental failure in the cluster protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A node's mailbox or reply channel disconnected: the node thread is
    /// gone (crashed or shut down).
    ChannelClosed {
        /// Protocol phase ("estimate", "offer", "execute", …).
        phase: &'static str,
        /// The node that went away.
        node: usize,
    },
    /// A reply did not arrive within the deadline. The node may be alive
    /// but saturated, or the message may have been lost.
    Timeout {
        /// Protocol phase.
        phase: &'static str,
        /// The node polled (or `usize::MAX` when waiting on many).
        node: usize,
    },
    /// No live capable node remains for a query class.
    NoCandidates,
    /// The query exhausted its retry budget without being placed.
    RetriesExhausted {
        /// Attempts made.
        retries: u32,
    },
    /// Deployment-time failure (spec or data loading).
    Setup(String),
    /// A run config the driver cannot run, naming the bad setting.
    InvalidConfig(&'static str),
    /// A transport-level failure talking to a peer over the network. The
    /// wire-layer cause is preserved (and exposed via
    /// [`std::error::Error::source`]) together with which peer, at which
    /// address, during which protocol phase.
    Net {
        /// Protocol phase ("estimate", "offer", "execute", "connect", …).
        phase: &'static str,
        /// The peer node.
        node: usize,
        /// The peer's socket address.
        addr: String,
        /// The underlying wire-layer error.
        source: NetError,
    },
}

impl ClusterError {
    /// Wraps a wire-layer error with peer and phase context.
    pub fn net(
        phase: &'static str,
        node: usize,
        addr: impl Into<String>,
        source: NetError,
    ) -> Self {
        ClusterError::Net {
            phase,
            node,
            addr: addr.into(),
            source,
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::ChannelClosed { phase, node } => {
                write!(f, "node {node} disconnected during {phase}")
            }
            ClusterError::Timeout { phase, node } => {
                if *node == usize::MAX {
                    write!(f, "{phase} deadline expired")
                } else {
                    write!(f, "node {node} timed out during {phase}")
                }
            }
            ClusterError::NoCandidates => write!(f, "no live capable node"),
            ClusterError::RetriesExhausted { retries } => {
                write!(f, "no placement after {retries} retries")
            }
            ClusterError::Setup(msg) => write!(f, "setup failed: {msg}"),
            ClusterError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ClusterError::Net {
                phase,
                node,
                addr,
                source,
            } => {
                write!(
                    f,
                    "network failure during {phase} with node {node} at {addr}: {source}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Net { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert_eq!(
            ClusterError::ChannelClosed {
                phase: "offer",
                node: 3
            }
            .to_string(),
            "node 3 disconnected during offer"
        );
        assert_eq!(
            ClusterError::Timeout {
                phase: "offer collection",
                node: usize::MAX
            }
            .to_string(),
            "offer collection deadline expired"
        );
        assert_eq!(
            ClusterError::NoCandidates.to_string(),
            "no live capable node"
        );
        assert_eq!(
            ClusterError::RetriesExhausted { retries: 7 }.to_string(),
            "no placement after 7 retries"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ClusterError::NoCandidates);
    }

    #[test]
    fn net_errors_carry_peer_context_and_chain_to_the_wire_cause() {
        let err = ClusterError::net("offer", 3, "127.0.0.1:4017", NetError::PeerClosed);
        assert_eq!(
            err.to_string(),
            "network failure during offer with node 3 at 127.0.0.1:4017: peer connection closed"
        );
        let source = std::error::Error::source(&err).expect("wire cause");
        assert_eq!(source.to_string(), NetError::PeerClosed.to_string());
    }
}
