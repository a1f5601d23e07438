//! Signed statement envelopes.
//!
//! Every statement travels wrapped in an [`Envelope`] signed by its
//! originating node, so Byzantine peers cannot forge votes on behalf of
//! honest ones. Verification keys are resolved through the
//! [`Driver`](crate::Driver), keeping SCP independent of key distribution.

use crate::statement::Statement;
use stellar_crypto::codec::Encode;
use stellar_crypto::sign::{self, KeyPair, PublicKey, Signature};
use stellar_crypto::Hash256;

/// A signed protocol statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// The statement being asserted.
    pub statement: Statement,
    /// Signature by `statement.node` over the statement's encoding.
    pub signature: Signature,
}

impl Envelope {
    /// Signs `statement` with `keys`, producing a verifiable envelope.
    pub fn sign(statement: Statement, keys: &KeyPair) -> Envelope {
        let signature = sign::sign_xdr(keys, &statement);
        Envelope {
            statement,
            signature,
        }
    }

    /// Verifies the signature against the claimed sender's public key.
    pub fn verify(&self, public: PublicKey) -> bool {
        sign::verify_xdr(public, &self.statement, &self.signature)
    }

    /// Content hash of the envelope (statement + signature).
    pub fn hash(&self) -> Hash256 {
        stellar_crypto::hash_xdr(self)
    }

    /// Encoded size in bytes, used by the overlay for traffic accounting.
    pub fn wire_size(&self) -> usize {
        self.to_bytes().len()
    }
}

stellar_crypto::impl_codec_struct!(Envelope {
    statement,
    signature
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statement::StatementKind;
    use crate::{NodeId, QuorumSet, Value};
    use std::collections::BTreeSet;
    use stellar_crypto::codec::Decode;

    fn sample_statement(node: NodeId) -> Statement {
        Statement {
            node,
            slot: 3,
            quorum_set: QuorumSet::threshold_of(1, vec![node]),
            kind: StatementKind::Nominate {
                voted: [Value::new(b"v".to_vec())].into(),
                accepted: BTreeSet::new(),
            },
        }
    }

    #[test]
    fn sign_and_verify() {
        let keys = KeyPair::from_seed(5);
        let env = Envelope::sign(sample_statement(NodeId(5)), &keys);
        assert!(env.verify(keys.public()));
        let other = KeyPair::from_seed(6);
        assert!(!env.verify(other.public()));
    }

    #[test]
    fn tampering_breaks_verification() {
        let keys = KeyPair::from_seed(5);
        let mut env = Envelope::sign(sample_statement(NodeId(5)), &keys);
        env.statement.slot = 4;
        assert!(!env.verify(keys.public()));
    }

    #[test]
    fn codec_roundtrip() {
        let keys = KeyPair::from_seed(5);
        let env = Envelope::sign(sample_statement(NodeId(5)), &keys);
        let back = Envelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(back, env);
        assert!(back.verify(keys.public()));
    }

    #[test]
    fn wire_size_is_positive_and_stable() {
        let keys = KeyPair::from_seed(5);
        let env = Envelope::sign(sample_statement(NodeId(5)), &keys);
        assert!(env.wire_size() > 0);
        assert_eq!(env.wire_size(), env.to_bytes().len());
    }
}
