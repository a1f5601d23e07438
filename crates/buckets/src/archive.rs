//! The write-only history archive (§5.4).
//!
//! "Stellar-core creates a write-only history archive containing each
//! transaction set that was confirmed and snapshots of buckets. The
//! archive lets new nodes bootstrap themselves when joining the network.
//! It also provides a record of ledger history."
//!
//! The archive is content-addressed flat storage — production uses S3 or
//! Glacier; here a map of hash → bytes with the same put/get discipline
//! (append-only, idempotent puts). Transaction sets are kept the same way,
//! as the canonical encoding their SHA-256 is taken over, and decoded on
//! read. Checkpoints are taken every [`CHECKPOINT_PERIOD`] ledgers, as in
//! production (64).

use crate::bucket_list::BucketList;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use stellar_crypto::codec::Decode;
use stellar_crypto::{heap, Hash256};
use stellar_ledger::header::LedgerHeader;
use stellar_ledger::txset::TransactionSet;

/// Ledgers between checkpoints (production: 64).
pub const CHECKPOINT_PERIOD: u64 = 64;

/// A checkpoint manifest: everything needed to bootstrap at a ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The checkpointed ledger header.
    pub header: LedgerHeader,
    /// Bucket hashes by level at this ledger.
    pub bucket_hashes: Vec<Hash256>,
}

/// An append-only, content-addressed history archive.
#[derive(Clone, Debug, Default)]
pub struct HistoryArchive {
    /// Content-addressed blobs (serialized buckets), shared with the
    /// bucket list's levels while those stay resident.
    blobs: BTreeMap<Hash256, Rc<Vec<u8>>>,
    /// Confirmed transaction sets by ledger sequence, each as its
    /// canonical encoding (shared with the set handle it came from).
    tx_sets: BTreeMap<u64, Arc<[u8]>>,
    /// Headers by ledger sequence.
    headers: BTreeMap<u64, LedgerHeader>,
    /// Checkpoints by ledger sequence.
    checkpoints: BTreeMap<u64, Checkpoint>,
    /// Total bytes written (cheap-storage cost accounting).
    pub bytes_written: u64,
}

impl HistoryArchive {
    /// An empty archive.
    pub fn new() -> HistoryArchive {
        HistoryArchive::default()
    }

    /// Records a closed ledger: its header and transaction set, plus a
    /// checkpoint with bucket snapshots when one falls due.
    pub fn publish(
        &mut self,
        header: &LedgerHeader,
        tx_set: &TransactionSet,
        buckets: &mut BucketList,
    ) {
        let seq = header.ledger_seq;
        self.headers.insert(seq, header.clone());
        let bytes = tx_set.encoding();
        self.bytes_written += bytes.len() as u64;
        self.tx_sets.insert(seq, bytes);

        if seq.is_multiple_of(CHECKPOINT_PERIOD) {
            let hashes = buckets.level_hashes();
            for (i, h) in hashes.iter().enumerate() {
                if !self.blobs.contains_key(h) {
                    // The blob format is the bucket's canonical encoding
                    // (whose SHA-256 is the level hash): a resident level
                    // shares its bytes, a spilled one is read off disk.
                    let buf = buckets.level_bytes(i);
                    self.bytes_written += buf.len() as u64;
                    self.blobs.insert(*h, buf);
                }
            }
            self.checkpoints.insert(
                seq,
                Checkpoint {
                    header: header.clone(),
                    bucket_hashes: hashes,
                },
            );
        }
    }

    /// Looks up a historical transaction set ("a transaction from two
    /// years ago"), decoded from its stored bytes. `None` when nothing is
    /// stored at `ledger_seq` or the bytes do not decode. The set is a
    /// fresh value: a caller that trusts it only under a header must
    /// check its `hash()` against that header's `tx_set_hash`.
    pub fn tx_set(&self, ledger_seq: u64) -> Option<TransactionSet> {
        let bytes = self.tx_sets.get(&ledger_seq)?;
        TransactionSet::from_bytes(bytes).ok()
    }

    /// The stored encoding of a historical transaction set: the bytes its
    /// hash is taken over, undecoded.
    pub fn tx_set_bytes(&self, ledger_seq: u64) -> Option<&[u8]> {
        self.tx_sets.get(&ledger_seq).map(|b| &**b)
    }

    /// Looks up a historical header.
    pub fn header(&self, ledger_seq: u64) -> Option<&LedgerHeader> {
        self.headers.get(&ledger_seq)
    }

    /// The latest checkpoint at or before `ledger_seq` (catch-up starting
    /// point for a bootstrapping node).
    pub fn latest_checkpoint_at(&self, ledger_seq: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .range(..=ledger_seq)
            .next_back()
            .map(|(_, c)| c)
    }

    /// Fetches a bucket blob by hash.
    pub fn bucket_blob(&self, hash: &Hash256) -> Option<&[u8]> {
        self.blobs.get(hash).map(|b| b.as_slice())
    }

    /// Number of checkpoints taken.
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Heap bytes the archive holds. A bucket blob that a resident level
    /// still shares, and a stored set's encoding that the set's handles
    /// share, count by their share.
    pub fn resident_bytes(&self) -> u64 {
        let blobs: u64 = self
            .blobs
            .values()
            .map(|b| {
                let own = heap::RC_HEADER + (std::mem::size_of::<Vec<u8>>() + b.capacity()) as u64;
                heap::shared(own, Rc::strong_count(b))
            })
            .sum();
        let tx_sets: u64 = self
            .tx_sets
            .values()
            .map(|b| heap::shared(heap::RC_HEADER + b.len() as u64, Arc::strong_count(b)))
            .sum();
        let hashes: u64 = self
            .checkpoints
            .values()
            .map(|c| heap::array::<Hash256>(c.bucket_hashes.capacity()))
            .sum();
        heap::btree(
            self.blobs.len(),
            std::mem::size_of::<(Hash256, Rc<Vec<u8>>)>(),
        ) + blobs
            + heap::btree(self.tx_sets.len(), std::mem::size_of::<(u64, Arc<[u8]>)>())
            + tx_sets
            + heap::btree(
                self.headers.len(),
                std::mem::size_of::<(u64, LedgerHeader)>(),
            )
            + heap::btree(
                self.checkpoints.len(),
                std::mem::size_of::<(u64, Checkpoint)>(),
            )
            + hashes
    }

    /// The highest ledger sequence published, if any.
    pub fn latest_seq(&self) -> Option<u64> {
        self.headers.keys().next_back().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sha256::sha256;
    use stellar_ledger::header::LedgerParams;
    use stellar_ledger::tx::TransactionEnvelope;

    fn header(seq: u64) -> LedgerHeader {
        let mut h = LedgerHeader::genesis(Hash256::ZERO);
        h.ledger_seq = seq;
        h
    }

    #[test]
    fn publishes_and_retrieves_history() {
        let mut arch = HistoryArchive::new();
        let mut bl = BucketList::new();
        for seq in 1..=130u64 {
            let set = TransactionSet::empty(Hash256::ZERO);
            arch.publish(&header(seq), &set, &mut bl);
        }
        assert!(arch.tx_set(77).is_some());
        assert!(arch.header(130).is_some());
        assert_eq!(arch.checkpoint_count(), 2); // at 64 and 128
        let cp = arch.latest_checkpoint_at(130).unwrap();
        assert_eq!(cp.header.ledger_seq, 128);
    }

    #[test]
    fn checkpoint_blobs_are_content_addressed_and_deduped() {
        let mut arch = HistoryArchive::new();
        let mut bl = BucketList::new();
        let set = TransactionSet::empty(Hash256::ZERO);
        arch.publish(&header(64), &set, &mut bl);
        let written = arch.bytes_written;
        // Same (empty) buckets at the next checkpoint: no new blob bytes
        // beyond the tx set.
        arch.publish(&header(128), &set, &mut bl);
        assert_eq!(arch.bytes_written, written + set.wire_size() as u64);
        for h in &arch.latest_checkpoint_at(128).unwrap().bucket_hashes {
            assert!(arch.bucket_blob(h).is_some());
        }
    }

    fn payments(prev: Hash256) -> TransactionSet {
        use stellar_crypto::sign::{KeyPair, PublicKey};
        use stellar_ledger::asset::Asset;
        use stellar_ledger::entry::AccountId;
        use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction};
        let pay = |from: u64, amount: i64| {
            let tx = Transaction {
                source: AccountId(PublicKey(from)),
                seq_num: 1,
                fee: 100,
                time_bounds: None,
                memo: Memo::Text("rent".into()),
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: AccountId(PublicKey(99)),
                        asset: Asset::issued(AccountId(PublicKey(7)), "USD"),
                        amount,
                    },
                }],
            };
            TransactionEnvelope::sign(tx, &[&KeyPair::from_seed(from)])
        };
        TransactionSet::assemble(prev, vec![pay(1, 5), pay(2, 9)], 100)
    }

    #[test]
    fn archived_set_round_trips_through_its_encoding() {
        let mut arch = HistoryArchive::new();
        let mut bl = BucketList::new();
        let set = payments(sha256(b"parent"));
        arch.publish(&header(5), &set, &mut bl);
        assert_eq!(arch.bytes_written, set.wire_size() as u64);
        let back = arch.tx_set(5).expect("archived");
        assert_eq!(back.hash(), set.hash());
        assert_eq!(back.wire_size(), set.wire_size());
        assert_eq!(back.txs, set.txs);
        assert_eq!(arch.bytes_written, set.wire_size() as u64);
        // The archive keeps the set's own encoding, not a copy of it.
        let stored = arch.tx_set_bytes(5).unwrap();
        assert_eq!(stored.as_ptr(), set.encoding().as_ptr());
        assert!(arch.tx_set(6).is_none());

        // Any flipped byte either fails to decode or decodes to a set
        // whose hash no longer matches the header's.
        let good = stored.to_vec();
        for (i, bit) in (0..good.len()).flat_map(|i| [(i, 0x01), (i, 0x80)]) {
            let mut bad = good.clone();
            bad[i] ^= bit;
            arch.tx_sets.insert(5, bad.into());
            if let Some(tampered) = arch.tx_set(5) {
                assert_ne!(tampered.hash(), set.hash(), "flip {bit:#x} at byte {i}");
            }
        }
    }

    #[test]
    fn params_survive_in_headers() {
        let mut arch = HistoryArchive::new();
        let mut bl = BucketList::new();
        let mut h = header(64);
        h.params = LedgerParams {
            protocol_version: 9,
            ..LedgerParams::default()
        };
        arch.publish(&h, &TransactionSet::empty(Hash256::ZERO), &mut bl);
        assert_eq!(arch.header(64).unwrap().params.protocol_version, 9);
    }
}
