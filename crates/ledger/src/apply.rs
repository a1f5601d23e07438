//! Ledger close: applying an agreed transaction set to the store.
//!
//! Once SCP externalizes a value, every validator deterministically applies
//! the same transaction set in the same order and must arrive at the same
//! results hash and snapshot hash — this function *is* the replicated
//! state machine (§5). Transaction semantics per §5.2:
//!
//! * an **invalid** transaction (bad sequence, bad signatures, expired
//!   time bounds…) has no effect;
//! * a **valid** transaction always charges its fee and consumes its
//!   sequence number, even if an operation fails;
//! * operations are atomic as a group: the first failure rolls back every
//!   operation effect (but not fee/sequence).

use crate::entry::{AccountId, LedgerEntry, LedgerKey, ThresholdLevel};
use crate::header::{LedgerHeader, LedgerParams};
use crate::ops::{apply_operation, ExecEnv};
use crate::sigcache::SigVerifyCache;
use crate::store::{LedgerDelta, LedgerStore};
use crate::tx::{Transaction, TransactionEnvelope, TxError, TxResult};
use crate::txset::TransactionSet;
use stellar_crypto::codec::Encode;
use stellar_crypto::sign::PublicKey;
use stellar_crypto::Hash256;

/// Everything produced by closing one ledger.
#[derive(Debug)]
pub struct CloseResult {
    /// The new header (minus the snapshot hash the caller may patch in
    /// after updating its bucket list).
    pub header: LedgerHeader,
    /// Per-transaction results, in apply order.
    pub results: Vec<TxResult>,
    /// Entry change feed for the bucket list: `None` = deleted.
    pub changes: Vec<(LedgerKey, Option<LedgerEntry>)>,
    /// Fees collected.
    pub fees_collected: i64,
    /// Always zero; see [`ApplyStats`].
    pub stats: ApplyStats,
}

/// Always zero: retained only until a `[benchmark]` issue drops the three
/// `ledger.parallel.*` rows the frozen `benchmark/` reads through it.
#[allow(missing_docs)]
#[derive(Debug, Default)]
pub struct ApplyStats {
    pub waves: u64,
    pub conflict_reruns: u64,
    pub footprint_fallbacks: u64,
}

/// Validates a transaction against current state (no effects).
///
/// `sig_cache` memoizes Schnorr verification, so a transaction already
/// checked at admission does not re-verify at apply.
/// Callers without a cache pass `&mut SigVerifyCache::disabled()` — a
/// capacity-0 cache that costs one stack allocation.
pub fn check_validity(
    delta: &LedgerDelta<'_>,
    env: &TransactionEnvelope,
    close_time: u64,
    clearing_fee: i64,
    sig_cache: &mut SigVerifyCache,
) -> Result<(), TxError> {
    let signer_keys = env.valid_signer_keys_cached(sig_cache);
    let tx = &env.tx;
    if tx.operations.is_empty() {
        return Err(TxError::MissingOperations);
    }
    if tx.fee < tx.min_fee() {
        return Err(TxError::InsufficientFee);
    }
    if let Some(tb) = &tx.time_bounds {
        if tb.min_time != 0 && close_time < tb.min_time {
            return Err(TxError::TooEarly);
        }
        if tb.max_time != 0 && close_time > tb.max_time {
            return Err(TxError::TooLate);
        }
    }
    let source = delta.account(tx.source).ok_or(TxError::NoSourceAccount)?;
    if tx.seq_num != source.seq_num + 1 {
        return Err(TxError::BadSequence);
    }
    if source.balance < clearing_fee.min(tx.fee) {
        return Err(TxError::InsufficientBalance);
    }
    check_signatures(delta, env, &signer_keys)
}

/// Verifies that every source account's signature threshold is met (§5.2:
/// "A transaction must be signed by keys corresponding to every source
/// account in an operation").
fn check_signatures(
    delta: &LedgerDelta<'_>,
    env: &TransactionEnvelope,
    signer_keys: &[PublicKey],
) -> Result<(), TxError> {
    for account_id in env.tx.signing_accounts() {
        let account = delta.account(account_id).ok_or(TxError::NoSourceAccount)?;
        let weight = account.signing_weight_with_preimages(signer_keys, &env.preimages);
        let required = required_threshold(&env.tx, account_id, &account);
        if weight < required {
            return Err(TxError::BadAuth);
        }
    }
    Ok(())
}

fn required_threshold(
    tx: &Transaction,
    account_id: AccountId,
    account: &crate::entry::AccountEntry,
) -> u32 {
    let mut level = ThresholdLevel::Low; // fee/sequence consumption
    for so in &tx.operations {
        let src = so.source.unwrap_or(tx.source);
        if src == account_id {
            let l = so.op.threshold_level();
            if threshold_rank(l) > threshold_rank(level) {
                level = l;
            }
        }
    }
    account.threshold(level)
}

fn threshold_rank(l: ThresholdLevel) -> u8 {
    match l {
        ThresholdLevel::Low => 0,
        ThresholdLevel::Medium => 1,
        ThresholdLevel::High => 2,
    }
}

/// Charges `fee` to the transaction's source and consumes its sequence
/// number. The **one** place fee/failure-path store mutations happen:
/// [`apply_transaction`] runs it strictly *after* validity checking, so
/// a failed transaction's mutations are exactly fee deducted, sequence
/// bumped, nothing else.
fn charge_fee(delta: &mut LedgerDelta<'_>, tx: &Transaction, fee: i64) {
    let mut source = delta.account(tx.source).expect("validated before charging");
    source.balance -= fee;
    source.seq_num = tx.seq_num;
    delta.put_account(source);
}

/// Applies one transaction to `delta`, returning its result.
///
/// Fee and sequence effects land in `delta` even on operation failure;
/// operation effects land only on success. `sig_cache` as in
/// [`check_validity`].
pub fn apply_transaction(
    delta: &mut LedgerDelta<'_>,
    env: &TransactionEnvelope,
    close_time: u64,
    clearing_fee: i64,
    exec: &ExecEnv,
    sig_cache: &mut SigVerifyCache,
) -> TxResult {
    if let Err(e) = check_validity(delta, env, close_time, clearing_fee, sig_cache) {
        return TxResult::Invalid(e);
    }
    let tx = &env.tx;
    let fee = clearing_fee.min(tx.fee);

    // Charge the fee and consume the sequence number unconditionally.
    charge_fee(delta, tx, fee);

    // Operations execute on a fork; first failure discards it.
    let mut fork = delta.fork();
    for (i, so) in tx.operations.iter().enumerate() {
        let op_source = so.source.unwrap_or(tx.source);
        if fork.account(op_source).is_none() {
            return TxResult::Failed {
                fee_charged: fee,
                failed_op: i,
                error: crate::tx::OpError::NoDestination,
            };
        }
        if let Err(e) = apply_operation(&mut fork, op_source, &so.op, exec) {
            return TxResult::Failed {
                fee_charged: fee,
                failed_op: i,
                error: e,
            };
        }
    }
    let changes = fork.into_changes();
    delta.absorb(changes);
    TxResult::Success { fee_charged: fee }
}

/// Closes a ledger: applies `tx_set` on top of `store`, commits, and
/// produces the next header.
///
/// `snapshot_hash` is the bucket-list hash *after* the caller feeds the
/// returned change feed to its bucket list; pass `Hash256::ZERO` and patch
/// the header afterwards, or close in two phases as `stellar-herder` does.
///
/// `sig_cache` is the node's signature-verify cache: transactions this
/// node already verified at admission skip Schnorr verification entirely
/// at apply. Every close ages it by one generation
/// ([`SigVerifyCache::rotate`]), so what the cache holds is what the last
/// two ledgers used. The cache never changes results — it memoizes a pure
/// function — so cached and disabled-cache closes externalize identical
/// headers (`tests/cache_determinism.rs`).
pub fn close_ledger(
    store: &mut LedgerStore,
    prev: &LedgerHeader,
    tx_set: &TransactionSet,
    close_time: u64,
    params: LedgerParams,
    sig_cache: &mut SigVerifyCache,
) -> CloseResult {
    let exec = ExecEnv {
        base_reserve: params.base_reserve,
        close_time,
    };
    let mut delta = store.begin();
    let mut results = Vec::with_capacity(tx_set.txs.len());
    let mut fees = 0i64;
    for env in &tx_set.txs {
        let clearing = tx_set.base_fee_rate * env.tx.op_count().max(1) as i64;
        let r = apply_transaction(&mut delta, env, close_time, clearing, &exec, sig_cache);
        match &r {
            TxResult::Success { fee_charged } | TxResult::Failed { fee_charged, .. } => {
                fees += fee_charged;
            }
            TxResult::Invalid(_) => {}
        }
        results.push(r);
    }
    let changes = store.commit(delta.into_changes());
    sig_cache.rotate();

    let header = LedgerHeader {
        ledger_seq: prev.ledger_seq + 1,
        prev_header_hash: prev.hash(),
        tx_set_hash: tx_set.hash(),
        close_time,
        results_hash: hash_results(&results),
        snapshot_hash: Hash256::ZERO, // patched by the caller (bucket list)
        params,
        fee_pool: prev.fee_pool + fees,
    };
    CloseResult {
        header,
        results,
        changes,
        fees_collected: fees,
        stats: ApplyStats::default(),
    }
}

/// Hashes the result list (success flags + fee charged + error codes).
fn hash_results(results: &[TxResult]) -> Hash256 {
    let mut buf = Vec::new();
    for r in results {
        match r {
            TxResult::Success { fee_charged } => {
                0u8.encode(&mut buf);
                fee_charged.encode(&mut buf);
            }
            TxResult::Failed {
                fee_charged,
                failed_op,
                error,
            } => {
                1u8.encode(&mut buf);
                fee_charged.encode(&mut buf);
                (*failed_op as u64).encode(&mut buf);
                (*error as u8 as u32).encode(&mut buf);
            }
            TxResult::Invalid(e) => {
                2u8.encode(&mut buf);
                (*e as u8 as u32).encode(&mut buf);
            }
        }
    }
    stellar_crypto::sha256::sha256(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::{xlm, BASE_FEE};
    use crate::asset::Asset;
    use crate::entry::AccountEntry;
    use crate::tx::{Memo, Operation, SourcedOperation};
    use stellar_crypto::sign::KeyPair;

    fn keys(n: u64) -> KeyPair {
        KeyPair::from_seed(n)
    }

    /// Shadows the public `close_ledger` with a disabled-cache variant so
    /// the semantic tests below stay focused on apply behaviour.
    fn close_ledger(
        store: &mut LedgerStore,
        prev: &LedgerHeader,
        tx_set: &TransactionSet,
        close_time: u64,
        params: LedgerParams,
    ) -> CloseResult {
        super::close_ledger(
            store,
            prev,
            tx_set,
            close_time,
            params,
            &mut SigVerifyCache::disabled(),
        )
    }

    fn acct_of(k: &KeyPair) -> AccountId {
        AccountId(k.public())
    }

    fn funded_store(key_seeds: &[u64]) -> LedgerStore {
        let mut s = LedgerStore::new();
        for &n in key_seeds {
            s.put_account(AccountEntry::new(acct_of(&keys(n)), xlm(1000)));
        }
        s
    }

    fn payment_env(from: u64, to: u64, seq: u64, amount: i64) -> TransactionEnvelope {
        let k = keys(from);
        let tx = Transaction {
            source: acct_of(&k),
            seq_num: seq,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: acct_of(&keys(to)),
                    asset: Asset::Native,
                    amount,
                },
            }],
        };
        TransactionEnvelope::sign(tx, &[&k])
    }

    #[test]
    fn close_ledger_applies_payments() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let set = TransactionSet::assemble(prev.hash(), vec![payment_env(1, 2, 1, xlm(10))], 100);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert!(res.results[0].is_success());
        assert_eq!(store.account(acct_of(&keys(2))).unwrap().balance, xlm(1010));
        assert_eq!(
            store.account(acct_of(&keys(1))).unwrap().balance,
            xlm(990) - BASE_FEE
        );
        assert_eq!(res.fees_collected, BASE_FEE);
        assert_eq!(res.header.ledger_seq, 2);
        assert_eq!(res.header.prev_header_hash, prev.hash());
    }

    #[test]
    fn bad_sequence_is_invalid_and_free() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let set = TransactionSet::assemble(prev.hash(), vec![payment_env(1, 2, 7, xlm(10))], 100);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(res.results[0], TxResult::Invalid(TxError::BadSequence));
        assert_eq!(store.account(acct_of(&keys(1))).unwrap().balance, xlm(1000));
        assert_eq!(res.fees_collected, 0);
    }

    #[test]
    fn failed_op_charges_fee_and_bumps_seq_but_rolls_back() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        // Two ops: a good payment then an overdraft — both must roll back.
        let k = keys(1);
        let tx = Transaction {
            source: acct_of(&k),
            seq_num: 1,
            fee: BASE_FEE * 2,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![
                SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct_of(&keys(2)),
                        asset: Asset::Native,
                        amount: xlm(10),
                    },
                },
                SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct_of(&keys(2)),
                        asset: Asset::Native,
                        amount: xlm(100000),
                    },
                },
            ],
        };
        let set =
            TransactionSet::assemble(prev.hash(), vec![TransactionEnvelope::sign(tx, &[&k])], 100);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        match &res.results[0] {
            TxResult::Failed { failed_op: 1, .. } => {}
            other => panic!("expected op 1 failure, got {other:?}"),
        }
        // First payment rolled back; fee charged; sequence consumed.
        assert_eq!(store.account(acct_of(&keys(2))).unwrap().balance, xlm(1000));
        assert_eq!(
            store.account(acct_of(&keys(1))).unwrap().balance,
            xlm(1000) - BASE_FEE * 2
        );
        assert_eq!(store.account(acct_of(&keys(1))).unwrap().seq_num, 1);
    }

    #[test]
    fn unsigned_transaction_rejected() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let tx = payment_env(1, 2, 1, xlm(1)).tx.clone();
        let env = TransactionEnvelope::new(tx, Vec::new(), Vec::new());
        let set = TransactionSet::new(prev.hash(), vec![env], BASE_FEE);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(res.results[0], TxResult::Invalid(TxError::BadAuth));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let k_wrong = keys(5);
        let tx = payment_env(1, 2, 1, xlm(1)).tx.clone();
        let env = TransactionEnvelope::sign(tx, &[&k_wrong]);
        let set = TransactionSet::new(prev.hash(), vec![env], BASE_FEE);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(res.results[0], TxResult::Invalid(TxError::BadAuth));
    }

    #[test]
    fn multisig_thresholds_enforced() {
        let mut store = funded_store(&[1, 2]);
        let k1 = keys(1);
        let k_extra = keys(50);
        // Require weight 2 for medium ops; master alone has weight 1.
        {
            let mut a = store.account(acct_of(&k1)).unwrap().clone();
            a.thresholds.medium = 2;
            a.signers
                .push(crate::entry::Signer::key(k_extra.public(), 1));
            store.put_account(a);
        }
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        // Master alone: rejected.
        let set = TransactionSet::assemble(prev.hash(), vec![payment_env(1, 2, 1, xlm(1))], 100);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(res.results[0], TxResult::Invalid(TxError::BadAuth));
        // Master + extra signer: accepted.
        let tx = payment_env(1, 2, 1, xlm(1)).tx.clone();
        let env = TransactionEnvelope::sign(tx, &[&k1, &k_extra]);
        let set2 = TransactionSet::new(prev.hash(), vec![env], BASE_FEE);
        let res2 = close_ledger(&mut store, &prev, &set2, 1000, LedgerParams::default());
        assert!(res2.results[0].is_success(), "{:?}", res2.results[0]);
    }

    #[test]
    fn time_bounds_enforced_at_close() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let k = keys(1);
        let mut tx = payment_env(1, 2, 1, xlm(1)).tx.clone();
        tx.time_bounds = Some(crate::tx::TimeBounds {
            min_time: 500,
            max_time: 800,
        });
        let env = TransactionEnvelope::sign(tx, &[&k]);
        let set = TransactionSet::new(prev.hash(), vec![env], BASE_FEE);
        let res = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(res.results[0], TxResult::Invalid(TxError::TooLate));
        let res2 = close_ledger(&mut store, &prev, &set, 600, LedgerParams::default());
        assert!(res2.results[0].is_success());
    }

    #[test]
    fn replay_prevented_by_sequence() {
        let mut store = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let env = payment_env(1, 2, 1, xlm(10));
        let set = TransactionSet::new(prev.hash(), vec![env.clone()], BASE_FEE);
        let res1 = close_ledger(&mut store, &prev, &set, 1000, LedgerParams::default());
        assert!(res1.results[0].is_success());
        // Same envelope again: sequence has moved on.
        let res2 = close_ledger(
            &mut store,
            &res1.header,
            &set,
            1005,
            LedgerParams::default(),
        );
        assert_eq!(res2.results[0], TxResult::Invalid(TxError::BadSequence));
    }

    #[test]
    fn deterministic_results_hash() {
        let mut s1 = funded_store(&[1, 2]);
        let mut s2 = funded_store(&[1, 2]);
        let prev = LedgerHeader::genesis(Hash256::ZERO);
        let set = TransactionSet::assemble(
            prev.hash(),
            vec![payment_env(1, 2, 1, xlm(3)), payment_env(2, 1, 1, xlm(4))],
            100,
        );
        let r1 = close_ledger(&mut s1, &prev, &set, 1000, LedgerParams::default());
        let r2 = close_ledger(&mut s2, &prev, &set, 1000, LedgerParams::default());
        assert_eq!(r1.header.results_hash, r2.header.results_hash);
        assert_eq!(r1.header.hash(), r2.header.hash());
    }

    #[test]
    fn atomic_multiparty_swap() {
        // The paper's land-deal example: one tx, three ops, two signers.
        let mut store = funded_store(&[1, 2, 9]);
        let k1 = keys(1);
        let k2 = keys(2);
        let k9 = keys(9); // issuer of DEED and USD
        let deed = Asset::issued(acct_of(&k9), "DEED");
        let usd = Asset::issued(acct_of(&k9), "USD");
        // Setup: A(1) holds USD + a small parcel; B(2) holds the big parcel.
        {
            let prev = LedgerHeader::genesis(Hash256::ZERO);
            let mk_trust = |who: &KeyPair, asset: &Asset, seq: u64| {
                TransactionEnvelope::sign(
                    Transaction {
                        source: acct_of(who),
                        seq_num: seq,
                        fee: BASE_FEE,
                        time_bounds: None,
                        memo: Memo::None,
                        operations: vec![SourcedOperation {
                            source: None,
                            op: Operation::ChangeTrust {
                                asset: asset.clone(),
                                limit: xlm(100),
                            },
                        }],
                    },
                    &[who],
                )
            };
            let fund = TransactionEnvelope::sign(
                Transaction {
                    source: acct_of(&k9),
                    seq_num: 1,
                    fee: BASE_FEE * 3,
                    time_bounds: None,
                    memo: Memo::None,
                    operations: vec![
                        SourcedOperation {
                            source: None,
                            op: Operation::Payment {
                                destination: acct_of(&k1),
                                asset: usd.clone(),
                                amount: 20_000,
                            },
                        },
                        SourcedOperation {
                            source: None,
                            op: Operation::Payment {
                                destination: acct_of(&k1),
                                asset: deed.clone(),
                                amount: 1,
                            },
                        },
                        SourcedOperation {
                            source: None,
                            op: Operation::Payment {
                                destination: acct_of(&k2),
                                asset: deed.clone(),
                                amount: 5,
                            },
                        },
                    ],
                },
                &[&k9],
            );
            // Trustlines first (one ledger), then funding (the next) —
            // apply order within a set is canonical, not submission order.
            let set = TransactionSet::assemble(
                prev.hash(),
                vec![
                    mk_trust(&k1, &usd, 1),
                    mk_trust(&k1, &deed, 2),
                    mk_trust(&k2, &usd, 1),
                    mk_trust(&k2, &deed, 2),
                ],
                100,
            );
            let res = close_ledger(&mut store, &prev, &set, 10, LedgerParams::default());
            assert!(
                res.results.iter().all(TxResult::is_success),
                "{:?}",
                res.results
            );
            let set2 = TransactionSet::assemble(res.header.hash(), vec![fund], 100);
            let res2 = close_ledger(&mut store, &res.header, &set2, 15, LedgerParams::default());
            assert!(
                res2.results.iter().all(TxResult::is_success),
                "{:?}",
                res2.results
            );
        }
        // The swap: A pays small parcel + $10k; B pays the big parcel.
        let swap = Transaction {
            source: acct_of(&k1),
            seq_num: 3,
            fee: BASE_FEE * 3,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![
                SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct_of(&k2),
                        asset: deed.clone(),
                        amount: 1,
                    },
                },
                SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct_of(&k2),
                        asset: usd.clone(),
                        amount: 10_000,
                    },
                },
                SourcedOperation {
                    source: Some(acct_of(&k2)),
                    op: Operation::Payment {
                        destination: acct_of(&k1),
                        asset: deed.clone(),
                        amount: 5,
                    },
                },
            ],
        };
        // Both users sign the single transaction.
        let env = TransactionEnvelope::sign(swap, &[&k1, &k2]);
        let prev2 = LedgerHeader::genesis(Hash256::ZERO);
        let set = TransactionSet::new(prev2.hash(), vec![env], BASE_FEE);
        let res = close_ledger(&mut store, &prev2, &set, 20, LedgerParams::default());
        assert!(res.results[0].is_success(), "{:?}", res.results[0]);
        let d = store.begin();
        assert_eq!(d.trustline(acct_of(&k2), &deed).unwrap().balance, 1);
        assert_eq!(d.trustline(acct_of(&k1), &deed).unwrap().balance, 5);
        assert_eq!(d.trustline(acct_of(&k2), &usd).unwrap().balance, 10_000);
        assert_eq!(d.trustline(acct_of(&k1), &usd).unwrap().balance, 10_000);
    }
}
