//! Ledger headers (Fig. 3).
//!
//! Each header chains to the previous header's hash, records the SCP
//! output (transaction-set hash and close time), a hash of the transaction
//! results, and the snapshot hash of all ledger entries (the bucket-list
//! hash from `stellar-buckets`). "Because the snapshot hash includes all
//! ledger contents, validators need not retain history to validate
//! transactions."

use stellar_crypto::Hash256;

/// Global chain parameters carried in every header and adjustable by
/// consensus upgrades (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LedgerParams {
    /// Protocol version; upgrades take the highest nominated.
    pub protocol_version: u32,
    /// Base fee per operation, stroops.
    pub base_fee: i64,
    /// Base reserve per ledger entry, stroops.
    pub base_reserve: i64,
    /// Maximum operations per transaction set (surge-pricing threshold).
    pub max_tx_set_ops: u32,
}

impl Default for LedgerParams {
    fn default() -> Self {
        LedgerParams {
            protocol_version: 1,
            base_fee: crate::amount::BASE_FEE,
            base_reserve: crate::amount::BASE_RESERVE,
            max_tx_set_ops: 1000,
        }
    }
}

stellar_crypto::impl_codec_struct!(LedgerParams {
    protocol_version,
    base_fee,
    base_reserve,
    max_tx_set_ops,
});

/// A ledger header (Fig. 3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LedgerHeader {
    /// Ledger sequence number.
    pub ledger_seq: u64,
    /// Hash of the previous ledger header.
    pub prev_header_hash: Hash256,
    /// Hash of the transaction set this ledger applied (SCP output).
    pub tx_set_hash: Hash256,
    /// Close time agreed through SCP (seconds).
    pub close_time: u64,
    /// Hash of the transaction results (success/failure of each).
    pub results_hash: Hash256,
    /// Snapshot hash of all ledger entries (bucket-list hash).
    pub snapshot_hash: Hash256,
    /// Chain parameters in force for this ledger.
    pub params: LedgerParams,
    /// Total fees collected this ledger (recycled per §5.2; tracked here).
    pub fee_pool: i64,
}

stellar_crypto::impl_codec_struct!(LedgerHeader {
    ledger_seq,
    prev_header_hash,
    tx_set_hash,
    close_time,
    results_hash,
    snapshot_hash,
    params,
    fee_pool,
});

impl LedgerHeader {
    /// The genesis header.
    pub fn genesis(snapshot_hash: Hash256) -> LedgerHeader {
        LedgerHeader {
            ledger_seq: 1,
            prev_header_hash: Hash256::ZERO,
            tx_set_hash: Hash256::ZERO,
            close_time: 0,
            results_hash: Hash256::ZERO,
            snapshot_hash,
            params: LedgerParams::default(),
            fee_pool: 0,
        }
    }

    /// This header's content hash (the next ledger's `prev_header_hash`).
    pub fn hash(&self) -> Hash256 {
        stellar_crypto::hash_xdr(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_links_to_zero() {
        let g = LedgerHeader::genesis(Hash256::ZERO);
        assert_eq!(g.ledger_seq, 1);
        assert_eq!(g.prev_header_hash, Hash256::ZERO);
    }

    #[test]
    fn hash_covers_all_fields() {
        let g = LedgerHeader::genesis(Hash256::ZERO);
        let mut h2 = g.clone();
        h2.close_time = 5;
        assert_ne!(g.hash(), h2.hash());
        let mut h3 = g.clone();
        h3.params.base_fee += 1;
        assert_ne!(g.hash(), h3.hash());
    }

    #[test]
    fn codec_roundtrip() {
        use stellar_crypto::codec::{Decode, Encode};
        let g = LedgerHeader::genesis(stellar_crypto::sha256::sha256(b"snap"));
        assert_eq!(LedgerHeader::from_bytes(&g.to_bytes()).unwrap(), g);
    }
}
