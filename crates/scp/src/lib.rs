//! The Stellar Consensus Protocol (SCP).
//!
//! SCP is a quorum-based Byzantine agreement protocol with *open
//! membership* (paper §3). Instead of a global, fixed membership list, each
//! node unilaterally declares **quorum slices** — sets of nodes whose
//! unanimous word it trusts — and quorums *emerge* from the union of those
//! local declarations. Under the paper's "Internet hypothesis" (that
//! real-world agreement requirements transitively connect everyone who
//! matters), this yields global consensus without gatekeepers.
//!
//! This crate is a faithful, from-scratch implementation of §3 of the
//! paper, structured as a **sans-I/O state machine**: the protocol consumes
//! [`Envelope`]s and timer-expiry notifications, and produces outgoing
//! envelopes, timer requests, and externalized values through the
//! [`Driver`] trait. Nothing in here touches the network or the clock,
//! which is what makes the protocol directly testable and lets the
//! simulation crate drive thousands of nodes deterministically.
//!
//! Module tour:
//!
//! * [`quorum_set`] — nested quorum sets (threshold-of-N over validators
//!   and inner sets), slice/v-blocking predicates, and node weights.
//! * [`quorum`] — the one quorum kernel: node↔bit interning, quorum sets
//!   compiled onto bits, the maximal-quorum fixpoint and the
//!   federated-voting accept/confirm checks on bitsets. Balloting,
//!   nomination and `stellar-quorum`'s intersection checker all use it.
//! * [`statement`] — ballots and the four statement kinds (`Nominate`,
//!   `Prepare`, `Confirm`, `Externalize`) with their vote/accept semantics.
//! * [`envelope`] — signed statement envelopes.
//! * [`leader`] — federated leader selection for nomination (§3.2.5).
//! * [`nomination`] — the nomination protocol (§3.2.2).
//! * [`ballot`] — the ballot protocol: prepare/commit via federated voting,
//!   ballot synchronization, and timeout-driven ballot bumping (§3.2.1,
//!   §3.2.4).
//! * [`slot`] — one consensus instance (ledger) combining nomination and
//!   balloting.
//! * [`node`] — a multi-slot SCP node: the public entry point.
//! * [`driver`] — the [`Driver`] trait connecting SCP to the application.
//!
//! # Quick example
//!
//! Run four in-process nodes to agreement on a value (see
//! `tests/` for richer scenarios):
//!
//! ```
//! use stellar_scp::test_harness::InMemoryNetwork;
//! use stellar_scp::{NodeId, QuorumSet, Value};
//!
//! // Four nodes, each requiring 3-of-4 agreement (classic BFT f=1).
//! let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
//! let qset = QuorumSet::majority(nodes.clone());
//! let mut net = InMemoryNetwork::new(&nodes, &qset, 42);
//! for n in &nodes {
//!     net.propose(*n, 1, Value::new(b"ledger-1".to_vec()));
//! }
//! let decided = net.run_to_quiescence(1);
//! assert_eq!(decided.len(), 4, "all four nodes must externalize");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ballot;
#[cfg(test)]
mod differential;
pub mod driver;
pub mod envelope;
#[cfg(feature = "forge")]
pub mod forge;
pub mod leader;
pub mod node;
pub mod nomination;
pub mod quorum;
pub mod quorum_set;
pub mod slot;
pub mod statement;
pub mod test_harness;

pub use ballot::BallotPhase;
pub use driver::{Driver, Rejection, ScpEvent, TimerKind, Validity};
pub use envelope::Envelope;
pub use node::ScpNode;
pub use quorum_set::QuorumSet;
pub use statement::{Ballot, Statement, StatementKind};

use stellar_crypto::codec::{Decode, DecodeError, Encode};

/// Identifies a validator node.
///
/// In production Stellar a node is named by its ed25519 public key; this
/// workspace keeps a compact numeric id on the wire and maps ids to
/// [`stellar_crypto::sign::PublicKey`]s through the [`Driver`], which keeps
/// simulated envelopes small and logs readable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl Encode for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for NodeId {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(NodeId(u32::decode(input)?))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a consensus instance; one slot per ledger in Stellar.
pub type SlotIndex = u64;

/// An opaque consensus value.
///
/// SCP agrees on byte strings; their interpretation (in Stellar, a
/// transaction-set hash + close time + upgrades) belongs to the
/// application, which supplies validity checks and candidate combination
/// through the [`Driver`]. Values are ordered lexicographically so that
/// protocol-level tie-breaks are deterministic.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(std::sync::Arc<Vec<u8>>);

impl Value {
    /// Wraps raw bytes as a consensus value.
    pub fn new(bytes: Vec<u8>) -> Value {
        Value(std::sync::Arc::new(bytes))
    }

    /// Returns the underlying bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the underlying bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the value carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Values are frequently hashes; show a short hex prefix.
        let h = stellar_crypto::hex::encode(&self.0[..self.0.len().min(6)]);
        write!(f, "Value({h}…,{}B)", self.0.len())
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.as_slice().encode(out);
    }
}

impl Decode for Value {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(Value::new(Vec::<u8>::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip_and_ordering() {
        let a = Value::new(vec![1, 2]);
        let b = Value::new(vec![1, 3]);
        assert!(a < b);
        assert_eq!(Value::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }
}
