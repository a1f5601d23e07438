//! Transaction sets: what SCP actually agrees on (§5.3).
//!
//! Validators nominate a *transaction set* for each ledger; SCP agrees on
//! its hash. Assembly applies **surge pricing** when demand exceeds the
//! per-ledger operation budget: candidates are ranked by fee per
//! operation (a Dutch auction, §5.2) and the clearing rate — the lowest
//! included bid — sets everyone's effective fee.

use crate::amount::BASE_FEE;
use crate::tx::TransactionEnvelope;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use stellar_crypto::codec::{Decode, DecodeError, Encode};
use stellar_crypto::{heap, Hash256};

/// An ordered set of transactions for one ledger: an immutable, shared
/// handle like [`TransactionEnvelope`]. `clone()` bumps a reference count,
/// and the content hash and encoded size are computed at most once per
/// set however many holders (proposal map, flood payload) ask. The
/// canonical encoding the archive keeps is built at most once too, and
/// only for a set someone archives, so every archive that publishes the
/// same handle shares one allocation.
#[derive(Clone, Debug)]
pub struct TransactionSet(Arc<TxSetData>);

/// The contents of a [`TransactionSet`], read through `Deref`.
pub struct TxSetData {
    /// Hash of the previous ledger header (binds the set to a position in
    /// the chain, Fig. 3).
    pub prev_ledger_hash: Hash256,
    /// The transactions.
    pub txs: Vec<TransactionEnvelope>,
    /// The Dutch-auction clearing fee rate (stroops per operation).
    pub base_fee_rate: i64,
    /// Memoized content hash and encoded size (one encoding yields both).
    memo: OnceLock<(Hash256, usize)>,
    /// The canonical encoding, filled by the first
    /// [`encoding`](TransactionSet::encoding) call.
    encoding: OnceLock<Arc<[u8]>>,
}

/// Prints the value only: whether a memo is filled yet is not part of it.
impl std::fmt::Debug for TxSetData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxSetData")
            .field("prev_ledger_hash", &self.prev_ledger_hash)
            .field("txs", &self.txs)
            .field("base_fee_rate", &self.base_fee_rate)
            .finish()
    }
}

impl Deref for TransactionSet {
    type Target = TxSetData;

    fn deref(&self) -> &TxSetData {
        &self.0
    }
}

impl PartialEq for TransactionSet {
    fn eq(&self, other: &TransactionSet) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.prev_ledger_hash == other.prev_ledger_hash
                && self.txs == other.txs
                && self.base_fee_rate == other.base_fee_rate)
    }
}

impl Eq for TransactionSet {}

impl Encode for TransactionSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prev_ledger_hash.encode(out);
        self.txs.encode(out);
        self.base_fee_rate.encode(out);
    }
}

impl Decode for TransactionSet {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(TransactionSet::new(
            Decode::decode(input)?,
            Decode::decode(input)?,
            Decode::decode(input)?,
        ))
    }
}

impl TransactionSet {
    /// A set holding exactly `txs`, in the given order.
    pub fn new(
        prev_ledger_hash: Hash256,
        txs: Vec<TransactionEnvelope>,
        base_fee_rate: i64,
    ) -> TransactionSet {
        TransactionSet(Arc::new(TxSetData {
            prev_ledger_hash,
            txs,
            base_fee_rate,
            memo: OnceLock::new(),
            encoding: OnceLock::new(),
        }))
    }

    /// An empty set for `prev_ledger_hash`.
    pub fn empty(prev_ledger_hash: Hash256) -> TransactionSet {
        TransactionSet::new(prev_ledger_hash, Vec::new(), BASE_FEE)
    }

    /// Assembles a set from candidates under an operation budget.
    ///
    /// Candidates bidding below `BASE_FEE` per op are dropped. Under
    /// congestion, the highest bidders win (ties broken by hash for
    /// determinism) and the clearing rate is the lowest included bid.
    pub fn assemble(
        prev_ledger_hash: Hash256,
        mut candidates: Vec<TransactionEnvelope>,
        max_ops: u32,
    ) -> TransactionSet {
        candidates.retain(|tx| tx.tx.fee_rate() >= BASE_FEE && !tx.tx.operations.is_empty());
        // Highest fee rate first; ties by hash.
        candidates.sort_by(|a, b| {
            b.tx.fee_rate()
                .cmp(&a.tx.fee_rate())
                .then_with(|| a.hash().cmp(&b.hash()))
        });
        let mut txs = Vec::new();
        let mut ops: u32 = 0;
        let congested = {
            let total: u32 = candidates.iter().map(|t| t.tx.op_count() as u32).sum();
            total > max_ops
        };
        for tx in candidates {
            let c = tx.tx.op_count() as u32;
            if ops + c > max_ops {
                continue;
            }
            ops += c;
            txs.push(tx);
        }
        let base_fee_rate = if congested {
            txs.iter()
                .map(|t| t.tx.fee_rate())
                .min()
                .unwrap_or(BASE_FEE)
        } else {
            BASE_FEE
        };
        // Canonical apply order: deterministic and seq-respecting — by
        // (source, seq), then hash.
        txs.sort_by(|a, b| {
            (a.tx.source, a.tx.seq_num, a.hash()).cmp(&(b.tx.source, b.tx.seq_num, b.hash()))
        });
        TransactionSet::new(prev_ledger_hash, txs, base_fee_rate)
    }

    fn hash_and_size(&self) -> (Hash256, usize) {
        *self.memo.get_or_init(|| {
            let bytes = self.to_bytes();
            (stellar_crypto::sha256::sha256(&bytes), bytes.len())
        })
    }

    /// Content hash (the SCP-agreed identifier of this set), computed at
    /// most once per set.
    pub fn hash(&self) -> Hash256 {
        self.hash_and_size().0
    }

    /// The canonical encoding (the bytes [`hash`](Self::hash) is taken
    /// over), built on the first call and shared by every later one.
    pub fn encoding(&self) -> Arc<[u8]> {
        self.encoding.get_or_init(|| self.to_bytes().into()).clone()
    }

    /// This handle's share of the heap bytes the set holds, its members'
    /// shares and its encoding's share included: every handle to one set
    /// together count it once.
    pub fn resident_bytes(&self) -> u64 {
        let txs: u64 = self
            .txs
            .iter()
            .map(TransactionEnvelope::resident_bytes)
            .sum();
        let encoding = self.encoding.get().map_or(0, |bytes| {
            let own = heap::RC_HEADER + bytes.len() as u64;
            heap::shared(own, Arc::strong_count(bytes))
        });
        let own = heap::RC_HEADER
            + std::mem::size_of::<TxSetData>() as u64
            + heap::array::<TransactionEnvelope>(self.txs.capacity())
            + txs
            + encoding;
        heap::shared(own, Arc::strong_count(&self.0))
    }

    /// Total operations across all transactions (the §5.3 nomination
    /// tie-breaker prefers the set with the most).
    pub fn op_count(&self) -> usize {
        self.txs.iter().map(|t| t.tx.op_count()).sum()
    }

    /// Total fees bid (secondary §5.3 tie-breaker).
    pub fn total_fees(&self) -> i64 {
        self.txs.iter().map(|t| t.tx.fee).sum()
    }

    /// Encoded size in bytes (overlay and archive accounting), from the
    /// same single encoding as [`hash`](Self::hash).
    pub fn wire_size(&self) -> usize {
        self.hash_and_size().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asset::Asset;
    use crate::entry::AccountId;
    use crate::tx::{Memo, Operation, SourcedOperation, Transaction};
    use stellar_crypto::sign::{KeyPair, PublicKey};

    fn envelope(source: u64, seq: u64, fee: i64, ops: usize) -> TransactionEnvelope {
        let tx = Transaction {
            source: AccountId(PublicKey(source)),
            seq_num: seq,
            fee,
            time_bounds: None,
            memo: Memo::None,
            operations: (0..ops)
                .map(|_| SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: AccountId(PublicKey(99)),
                        asset: Asset::Native,
                        amount: 1,
                    },
                })
                .collect(),
        };
        let k = KeyPair::from_seed(source);
        TransactionEnvelope::sign(tx, &[&k])
    }

    #[test]
    fn uncongested_set_takes_everything_at_base_fee() {
        let set = TransactionSet::assemble(
            Hash256::ZERO,
            vec![envelope(1, 1, BASE_FEE, 1), envelope(2, 1, BASE_FEE * 7, 1)],
            100,
        );
        assert_eq!(set.txs.len(), 2);
        assert_eq!(set.base_fee_rate, BASE_FEE);
        assert_eq!(set.op_count(), 2);
    }

    #[test]
    fn surge_pricing_prefers_higher_bids() {
        // Budget of 2 ops; three 1-op candidates with different bids.
        let set = TransactionSet::assemble(
            Hash256::ZERO,
            vec![
                envelope(1, 1, BASE_FEE, 1),
                envelope(2, 1, BASE_FEE * 10, 1),
                envelope(3, 1, BASE_FEE * 5, 1),
            ],
            2,
        );
        assert_eq!(set.txs.len(), 2);
        let sources: Vec<u64> = set.txs.iter().map(|t| t.tx.source.0 .0).collect();
        assert!(sources.contains(&2) && sources.contains(&3), "{sources:?}");
        // Clearing rate = lowest included bid.
        assert_eq!(set.base_fee_rate, BASE_FEE * 5);
    }

    #[test]
    fn below_base_fee_dropped() {
        let set =
            TransactionSet::assemble(Hash256::ZERO, vec![envelope(1, 1, BASE_FEE - 1, 1)], 10);
        assert!(set.txs.is_empty());
    }

    #[test]
    fn canonical_order_respects_sequence() {
        let set = TransactionSet::assemble(
            Hash256::ZERO,
            vec![envelope(1, 2, BASE_FEE, 1), envelope(1, 1, BASE_FEE, 1)],
            10,
        );
        assert_eq!(set.txs[0].tx.seq_num, 1);
        assert_eq!(set.txs[1].tx.seq_num, 2);
    }

    #[test]
    fn hash_depends_on_contents_and_prev() {
        let a = TransactionSet::assemble(Hash256::ZERO, vec![envelope(1, 1, BASE_FEE, 1)], 10);
        let b = TransactionSet::assemble(
            stellar_crypto::sha256::sha256(b"other"),
            vec![envelope(1, 1, BASE_FEE, 1)],
            10,
        );
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), TransactionSet::empty(Hash256::ZERO).hash());
    }

    #[test]
    fn memoized_hash_and_size_match_a_fresh_encoding() {
        let surge = TransactionSet::assemble(
            Hash256::ZERO,
            (1..=5)
                .map(|s| envelope(s, 1, BASE_FEE * s as i64, 1))
                .collect(),
            3,
        );
        assert!(surge.base_fee_rate > BASE_FEE);
        for set in [
            TransactionSet::empty(Hash256::ZERO),
            TransactionSet::assemble(Hash256::ZERO, vec![envelope(1, 1, BASE_FEE, 1)], 10),
            surge,
        ] {
            // Asked twice: the second answer comes from the memo.
            for _ in 0..2 {
                assert_eq!(set.hash(), stellar_crypto::hash_xdr(&set));
                assert_eq!(set.wire_size(), set.to_bytes().len());
            }
        }
    }

    #[test]
    fn clone_shares_storage_and_decoding_does_not() {
        let set = TransactionSet::assemble(
            Hash256::ZERO,
            vec![envelope(1, 1, BASE_FEE, 1), envelope(2, 1, BASE_FEE, 2)],
            10,
        );
        let h = set.hash();
        let copy = set.clone();
        assert!(std::ptr::eq::<TxSetData>(&*set, &*copy));
        assert_eq!(copy.txs.as_ptr(), set.txs.as_ptr());
        let decoded = TransactionSet::from_bytes(&set.to_bytes()).unwrap();
        assert_ne!(decoded.txs.as_ptr(), set.txs.as_ptr());
        assert_eq!(decoded, set);
        assert_eq!(copy.hash(), h);
        assert_eq!(decoded.hash(), h);
    }

    #[test]
    fn multi_op_transactions_count_against_budget() {
        let set = TransactionSet::assemble(
            Hash256::ZERO,
            vec![
                envelope(1, 1, BASE_FEE * 3, 3),
                envelope(2, 1, BASE_FEE * 2, 2),
            ],
            4,
        );
        // 3 + 2 > 4: only the first (by fee rate then hash) fits… both
        // bid BASE_FEE per op, so whichever sorts first fills 3 ops and
        // the 2-op one no longer fits.
        assert_eq!(set.txs.len(), 1);
        assert_eq!(set.base_fee_rate, set.txs[0].tx.fee_rate());
    }
}
