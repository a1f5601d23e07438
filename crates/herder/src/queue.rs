//! The pending-transaction queue.
//!
//! Validators accumulate submitted transactions between ledgers and
//! assemble them into the candidate transaction set they nominate. The
//! queue enforces cheap admission checks (signatures, sequence plausibility,
//! minimum fee) and orders per-account transactions by sequence number so
//! a candidate set never contains gaps.

use std::collections::BTreeMap;
use stellar_crypto::{heap, Hash256, IdSet};
use stellar_ledger::amount::BASE_FEE;
use stellar_ledger::entry::AccountId;
use stellar_ledger::sigcache::SigVerifyCache;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::TransactionEnvelope;

/// Why the queue refused a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueError {
    /// Fee bid below the minimum.
    FeeTooLow,
    /// The source account is unknown.
    UnknownSource,
    /// Sequence number is already consumed.
    StaleSequence,
    /// No valid signature from the source account.
    BadSignature,
    /// Duplicate submission.
    Duplicate,
    /// The queue is at capacity — backpressure; retry after a close.
    QueueFull,
}

impl QueueError {
    /// Static reject label, for spans and client errors (no allocation on
    /// the submission hot path).
    pub fn label(self) -> &'static str {
        match self {
            QueueError::FeeTooLow => "fee_too_low",
            QueueError::UnknownSource => "unknown_source",
            QueueError::StaleSequence => "stale_sequence",
            QueueError::BadSignature => "bad_signature",
            QueueError::Duplicate => "duplicate",
            QueueError::QueueFull => "queue_full",
        }
    }
}

/// Pending transactions, per source account, ordered by sequence.
#[derive(Debug, Default)]
pub struct TxQueue {
    by_account: BTreeMap<AccountId, BTreeMap<u64, TransactionEnvelope>>,
    seen: IdSet<Hash256>,
    /// Admission cap on queued transactions (`None` = unbounded, the
    /// historical behavior). Set by the Horizon admission layer so a
    /// submit flood backs up at the front end instead of growing the
    /// nomination candidate scan without bound.
    capacity: Option<usize>,
}

impl TxQueue {
    /// An empty queue.
    pub fn new() -> TxQueue {
        TxQueue::default()
    }

    /// Bounds the queue at `capacity` pending transactions; submissions
    /// beyond it are refused with [`QueueError::QueueFull`]. Already
    /// queued transactions are kept even if over the new bound.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// The configured admission cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Heap bytes the queue holds, with its share of each queued
    /// transaction.
    pub fn resident_bytes(&self) -> u64 {
        let per_account = std::mem::size_of::<(u64, TransactionEnvelope)>();
        let accounts: u64 = self
            .by_account
            .values()
            .map(|txs| {
                let shares: u64 = txs.values().map(TransactionEnvelope::resident_bytes).sum();
                heap::btree(txs.len(), per_account) + shares
            })
            .sum();
        let table = std::mem::size_of::<(AccountId, BTreeMap<u64, TransactionEnvelope>)>();
        heap::btree(self.by_account.len(), table)
            + accounts
            + heap::table(self.seen.len(), std::mem::size_of::<Hash256>())
    }

    /// Number of queued transactions.
    pub fn len(&self) -> usize {
        self.by_account.values().map(BTreeMap::len).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.by_account.is_empty()
    }

    /// Admits a transaction after cheap validity checks against `store`.
    ///
    /// `sig_cache` is the node-level signature-verify cache: the
    /// verification done here is remembered, so the same transaction's
    /// check at apply hits the cache. Pass
    /// `&mut SigVerifyCache::disabled()` where no node cache exists.
    pub fn submit(
        &mut self,
        store: &LedgerStore,
        env: TransactionEnvelope,
        sig_cache: &mut SigVerifyCache,
    ) -> Result<(), QueueError> {
        let h = env.hash();
        if self.seen.contains(&h) {
            return Err(QueueError::Duplicate);
        }
        if self.capacity.is_some_and(|cap| self.seen.len() >= cap) {
            return Err(QueueError::QueueFull);
        }
        if env.tx.fee < env.tx.min_fee() || env.tx.fee_rate() < BASE_FEE {
            return Err(QueueError::FeeTooLow);
        }
        let account = store
            .account(env.tx.source)
            .ok_or(QueueError::UnknownSource)?;
        if env.tx.seq_num <= account.seq_num {
            return Err(QueueError::StaleSequence);
        }
        // At least one valid signature weighted for the source account.
        let keys = env.valid_signer_keys_cached(sig_cache);
        if account.signing_weight(&keys) == 0 {
            return Err(QueueError::BadSignature);
        }
        self.seen.insert(h);
        self.by_account
            .entry(env.tx.source)
            .or_default()
            .insert(env.tx.seq_num, env);
        Ok(())
    }

    /// Candidate transactions for the next ledger: per account, the
    /// contiguous run starting at `seq_num + 1` (gaps would make later
    /// transactions invalid anyway).
    pub fn candidates(&self, store: &LedgerStore) -> Vec<TransactionEnvelope> {
        let mut out = Vec::new();
        for (account, txs) in &self.by_account {
            let Some(entry) = store.account(*account) else {
                continue;
            };
            let mut next = entry.seq_num + 1;
            while let Some(env) = txs.get(&next) {
                out.push(env.clone());
                next += 1;
            }
        }
        out
    }

    /// Drops transactions that can no longer execute after a ledger close
    /// (consumed or stale sequence numbers).
    pub fn prune(&mut self, store: &LedgerStore) {
        self.by_account.retain(|account, txs| {
            let current = store.account(*account).map_or(u64::MAX, |a| a.seq_num);
            txs.retain(|seq, env| {
                let keep = *seq > current;
                if !keep {
                    self.seen.remove(&env.hash());
                }
                keep
            });
            !txs.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_crypto::sign::KeyPair;
    use stellar_ledger::amount::xlm;
    use stellar_ledger::asset::Asset;
    use stellar_ledger::entry::AccountEntry;
    use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction};

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(n)
    }

    fn acct(n: u64) -> AccountId {
        AccountId(keys(n).public())
    }

    fn store() -> LedgerStore {
        let mut s = LedgerStore::new();
        for n in [1, 2] {
            s.put_account(AccountEntry::new(acct(n), xlm(100)));
        }
        s
    }

    fn env(from: u64, seq: u64, fee: i64) -> TransactionEnvelope {
        let k = keys(from);
        TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: seq,
                fee,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(2),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&k],
        )
    }

    fn nc() -> SigVerifyCache {
        SigVerifyCache::disabled()
    }

    #[test]
    fn admits_and_orders_contiguous_sequences() {
        let s = store();
        let mut q = TxQueue::new();
        q.submit(&s, env(1, 2, BASE_FEE), &mut nc()).unwrap();
        q.submit(&s, env(1, 1, BASE_FEE), &mut nc()).unwrap();
        // Gap: not a candidate.
        q.submit(&s, env(1, 5, BASE_FEE), &mut nc()).unwrap();
        let c = q.candidates(&s);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].tx.seq_num, 1);
        assert_eq!(c[1].tx.seq_num, 2);
    }

    #[test]
    fn rejects_bad_submissions() {
        let s = store();
        let mut q = TxQueue::new();
        assert_eq!(
            q.submit(&s, env(1, 1, BASE_FEE - 1), &mut nc()),
            Err(QueueError::FeeTooLow)
        );
        assert_eq!(
            q.submit(&s, env(7, 1, BASE_FEE), &mut nc()),
            Err(QueueError::UnknownSource)
        );
        assert_eq!(
            q.submit(&s, env(1, 0, BASE_FEE), &mut nc()),
            Err(QueueError::StaleSequence)
        );
        let unsigned =
            TransactionEnvelope::new(env(1, 1, BASE_FEE).tx.clone(), Vec::new(), Vec::new());
        assert_eq!(
            q.submit(&s, unsigned, &mut nc()),
            Err(QueueError::BadSignature)
        );
        q.submit(&s, env(1, 1, BASE_FEE), &mut nc()).unwrap();
        assert_eq!(
            q.submit(&s, env(1, 1, BASE_FEE), &mut nc()),
            Err(QueueError::Duplicate)
        );
    }

    #[test]
    fn prune_drops_consumed_sequences() {
        let mut s = store();
        let mut q = TxQueue::new();
        q.submit(&s, env(1, 1, BASE_FEE), &mut nc()).unwrap();
        q.submit(&s, env(1, 2, BASE_FEE), &mut nc()).unwrap();
        // Ledger advanced the account to seq 1.
        let mut a = s.account(acct(1)).unwrap().clone();
        a.seq_num = 1;
        s.put_account(a);
        q.prune(&s);
        assert_eq!(q.len(), 1);
        let c = q.candidates(&s);
        assert_eq!(c[0].tx.seq_num, 2);
        // Pruned hash can be resubmitted (e.g. after a rollback).
        assert_eq!(
            q.submit(&s, env(1, 2, BASE_FEE), &mut nc()),
            Err(QueueError::Duplicate)
        );
    }
}
