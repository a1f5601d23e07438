//! Flooded message kinds.

use crate::stats::MsgKind;
use std::sync::Arc;
use stellar_crypto::codec::Encode;
use stellar_crypto::{heap, Hash256};
use stellar_ledger::tx::TransactionEnvelope;
use stellar_ledger::txset::TransactionSet;
use stellar_scp::Envelope;

/// Anything a node floods to its peers (§5.4: "validators also broadcast
/// any transactions they learn about").
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FloodMessage {
    /// An SCP protocol envelope.
    Scp(Envelope),
    /// A proposed transaction set (peers need it to validate values).
    TxSet(TransactionSet),
    /// A client transaction on its way to every queue.
    Tx(TransactionEnvelope),
    /// Pull-mode announcement: content hashes of payloads the sender
    /// holds. Peers demand the ones they lack instead of receiving every
    /// payload on every link.
    Advert(Vec<Hash256>),
    /// Pull-mode request: send me the payloads behind these hashes.
    Demand(Vec<Hash256>),
}

impl FloodMessage {
    /// Content address for flood de-duplication. Advert/demand control
    /// messages are point-to-point and never deduplicated, but still get
    /// a stable id for tracing.
    pub fn id(&self) -> Hash256 {
        match self {
            FloodMessage::Scp(e) => e.hash(),
            FloodMessage::TxSet(s) => s.hash(),
            FloodMessage::Tx(t) => t.hash(),
            FloodMessage::Advert(ids) => hash_id_list(0xAD, ids),
            FloodMessage::Demand(ids) => hash_id_list(0xDE, ids),
        }
    }

    /// Encoded size in bytes (traffic accounting). Control messages are
    /// a count prefix plus 32 bytes per hash — the pull-mode overhead the
    /// E15 bench charges against the payload bytes it saves.
    pub fn wire_size(&self) -> usize {
        match self {
            FloodMessage::Scp(e) => e.to_bytes().len(),
            FloodMessage::TxSet(s) => s.wire_size(),
            FloodMessage::Tx(t) => t.to_bytes().len(),
            FloodMessage::Advert(ids) | FloodMessage::Demand(ids) => 4 + 32 * ids.len(),
        }
    }

    /// Traffic-accounting tag of this message.
    pub fn kind(&self) -> MsgKind {
        match self {
            FloodMessage::Scp(_) => MsgKind::Scp,
            FloodMessage::TxSet(_) => MsgKind::TxSet,
            FloodMessage::Tx(_) => MsgKind::Tx,
            FloodMessage::Advert(_) => MsgKind::Advert,
            FloodMessage::Demand(_) => MsgKind::Demand,
        }
    }

    /// True for SCP consensus traffic (the §7.2 message-count metric
    /// counts these, not transaction gossip).
    pub fn is_scp(&self) -> bool {
        matches!(self, FloodMessage::Scp(_))
    }

    /// True for pull-mode control messages (adverts and demands), which
    /// bypass the flood seen-cache and are never relayed.
    pub fn is_pull_control(&self) -> bool {
        matches!(self, FloodMessage::Advert(_) | FloodMessage::Demand(_))
    }

    /// The transaction trace ids this payload propagates — the context
    /// half of distributed tracing. Trace ids are content-derived (the
    /// u64 prefix of a transaction's hash), so no wire format changes:
    /// a `Tx` carries its own id, a `TxSet` carries every member's, and
    /// pull-mode control messages carry the ids of the payload hashes
    /// they announce (a tx payload's flood id *is* its tx hash). SCP
    /// envelopes reference tx sets only by hash and propagate no
    /// per-transaction context.
    pub fn trace_ids(&self) -> Vec<u64> {
        match self {
            FloodMessage::Scp(_) => Vec::new(),
            FloodMessage::TxSet(s) => s.txs.iter().map(|t| t.hash().prefix_u64()).collect(),
            FloodMessage::Tx(t) => vec![t.hash().prefix_u64()],
            FloodMessage::Advert(ids) | FloodMessage::Demand(ids) => {
                ids.iter().map(Hash256::prefix_u64).collect()
            }
        }
    }
}

/// A flood payload with its content id and wire size precomputed.
#[derive(Debug)]
pub struct FloodedData {
    /// Content address (flood de-duplication key).
    pub id: Hash256,
    /// Encoded size in bytes (traffic accounting).
    pub size: usize,
    /// The payload itself.
    pub msg: FloodMessage,
}

/// One shared handle over a [`FloodedData`]: the many sends a broadcast
/// fans out into each hold a pointer, not a copy of the id.
#[derive(Clone, Debug)]
pub struct Flooded(Arc<FloodedData>);

impl Flooded {
    /// This handle's share of the heap bytes the payload holds: every
    /// handle to one payload together count it once.
    pub fn resident_bytes(&self) -> u64 {
        let msg = match &self.msg {
            FloodMessage::Scp(e) => e.resident_bytes(),
            FloodMessage::TxSet(s) => s.resident_bytes(),
            FloodMessage::Tx(t) => t.resident_bytes(),
            FloodMessage::Advert(ids) | FloodMessage::Demand(ids) => {
                heap::array::<Hash256>(ids.capacity())
            }
        };
        let own = heap::RC_HEADER + std::mem::size_of::<FloodedData>() as u64 + msg;
        heap::shared(own, Arc::strong_count(&self.0))
    }

    /// Wraps a message, hashing and sizing it once.
    pub fn new(msg: FloodMessage) -> Flooded {
        Flooded(Arc::new(FloodedData {
            id: msg.id(),
            size: msg.wire_size(),
            msg,
        }))
    }
}

impl std::ops::Deref for Flooded {
    type Target = FloodedData;

    fn deref(&self) -> &FloodedData {
        &self.0
    }
}

fn hash_id_list(tag: u8, ids: &[Hash256]) -> Hash256 {
    let mut buf = Vec::with_capacity(1 + 32 * ids.len());
    buf.push(tag);
    for id in ids {
        buf.extend_from_slice(&id.0);
    }
    stellar_crypto::sha256::sha256(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use stellar_crypto::sign::KeyPair;
    use stellar_scp::statement::{Statement, StatementKind};
    use stellar_scp::{NodeId, QuorumSet, Value};

    fn sample_envelope() -> Envelope {
        let keys = KeyPair::from_seed(1);
        Envelope::sign(
            Statement {
                node: NodeId(1),
                slot: 1,
                quorum_set: QuorumSet::threshold_of(1, vec![NodeId(1)]),
                kind: StatementKind::Nominate {
                    voted: [Value::new(b"x".to_vec())].into(),
                    accepted: BTreeSet::new(),
                },
            },
            &keys,
        )
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let a = FloodMessage::Scp(sample_envelope());
        let b = FloodMessage::TxSet(TransactionSet::empty(Hash256::ZERO));
        assert_eq!(a.id(), a.id());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn wire_size_positive() {
        assert!(FloodMessage::Scp(sample_envelope()).wire_size() > 0);
        assert!(FloodMessage::TxSet(TransactionSet::empty(Hash256::ZERO)).wire_size() > 0);
    }

    #[test]
    fn scp_detection() {
        assert!(FloodMessage::Scp(sample_envelope()).is_scp());
        assert!(!FloodMessage::TxSet(TransactionSet::empty(Hash256::ZERO)).is_scp());
    }

    #[test]
    fn trace_ids_are_content_derived_and_consistent() {
        // A Tx's trace id is its flood id's prefix — the propagation
        // invariant the tracing layer leans on.
        let scp = FloodMessage::Scp(sample_envelope());
        assert!(scp.trace_ids().is_empty());
        let h = Hash256([9u8; 32]);
        let advert = FloodMessage::Advert(vec![h]);
        let demand = FloodMessage::Demand(vec![h]);
        assert_eq!(advert.trace_ids(), vec![h.prefix_u64()]);
        assert_eq!(advert.trace_ids(), demand.trace_ids());
        let empty_set = FloodMessage::TxSet(TransactionSet::empty(Hash256::ZERO));
        assert!(empty_set.trace_ids().is_empty());
    }

    #[test]
    fn advert_and_demand_are_control_messages() {
        let ids = vec![Hash256([1u8; 32]), Hash256([2u8; 32])];
        let advert = FloodMessage::Advert(ids.clone());
        let demand = FloodMessage::Demand(ids.clone());
        assert!(advert.is_pull_control() && demand.is_pull_control());
        assert!(!FloodMessage::TxSet(TransactionSet::empty(Hash256::ZERO)).is_pull_control());
        // Same hash list, different direction: distinct ids.
        assert_ne!(advert.id(), demand.id());
        assert_eq!(advert.id(), FloodMessage::Advert(ids).id());
        // Wire size scales with the batch: count prefix + 32 B per hash.
        assert_eq!(advert.wire_size(), 4 + 64);
        assert_eq!(FloodMessage::Demand(Vec::new()).wire_size(), 4);
    }
}
