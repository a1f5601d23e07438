//! Twin-run determinism: the close-path caches are pure optimizations.
//!
//! Two nodes replay the identical transaction stream through the full
//! submission → apply → snapshot pipeline, one with
//! the signature-verify cache enabled and one with it disabled. Every
//! externalized artifact — per-ledger header hash and the final bucket
//! level hashes — must be bit-for-bit identical, otherwise a cache could
//! fork the network.
//!
//! The workload mixes payments, resting and crossing offers, one- and
//! two-hop path payments, trustline/data churn and transactions that
//! fail at apply (fee and sequence still land). The store is whichever
//! backend `STELLAR_STORE_BACKEND` selects, so CI covers mem and disk.

use stellar::buckets::BucketList;
use stellar::crypto::sign::KeyPair;
use stellar::crypto::Hash256;
use stellar::herder::queue::TxQueue;
use stellar::ledger::amount::{xlm, Price, BASE_FEE};
use stellar::ledger::apply::close_ledger;
use stellar::ledger::entry::{AccountEntry, AccountId, LedgerEntry, TrustLineEntry};
use stellar::ledger::header::{LedgerHeader, LedgerParams};
use stellar::ledger::sigcache::SigVerifyCache;
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::{Asset, TransactionSet, TxResult};
use stellar::store::{open, BackendKind, DiskConfig};

const ACCOUNTS: u64 = 24;
const LEDGERS: u64 = 8;
const TXS_PER_LEDGER: u64 = 12;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xCAFE + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn usd() -> Asset {
    Asset::issued(acct(0), "USD")
}

fn eur() -> Asset {
    Asset::issued(acct(0), "EUR")
}

fn genesis_store() -> LedgerStore {
    let mut entries: Vec<LedgerEntry> = Vec::new();
    for i in 0..ACCOUNTS {
        let mut a = AccountEntry::new(acct(i), xlm(10_000));
        a.num_subentries = if i == 0 { 0 } else { 2 };
        entries.push(LedgerEntry::Account(a));
        if i != 0 {
            for asset in [usd(), eur()] {
                entries.push(LedgerEntry::TrustLine(TrustLineEntry {
                    account: acct(i),
                    asset,
                    balance: 500_000,
                    limit: i64::MAX / 2,
                    authorized: true,
                }));
            }
        }
    }
    let template = LedgerStore::from_entries(entries);
    open(&template, BackendKind::from_env(), &DiskConfig::default())
}

/// The operation of the transaction with global index `n` from `src`.
fn nth_op(n: u64, src: u64) -> Operation {
    match n % 8 {
        0 | 1 => Operation::Payment {
            destination: acct(1 + (src + 5) % (ACCOUNTS - 1)),
            asset: Asset::Native,
            amount: 10 + (n % 90) as i64,
        },
        2 => Operation::Payment {
            destination: acct(1 + (src + 11) % (ACCOUNTS - 1)),
            asset: usd(),
            amount: 5 + (n % 40) as i64,
        },
        // Resting or crossing offers on USD/XLM, alternating sides.
        3 => Operation::ManageOffer {
            offer_id: 0,
            selling: usd(),
            buying: Asset::Native,
            amount: 40 + (n % 9) as i64,
            price: Price::new(90 + (n % 25) as u32, 100),
            passive: false,
        },
        4 => Operation::ManageOffer {
            offer_id: 0,
            selling: Asset::Native,
            buying: usd(),
            amount: 30 + (n % 11) as i64,
            price: Price::new(95 + (n % 15) as u32, 100),
            passive: n % 16 == 4,
        },
        // Path payments: XLM → USD directly, or XLM → USD → EUR.
        5 if n % 16 == 5 => Operation::PathPayment {
            send_asset: Asset::Native,
            send_max: 10_000,
            destination: acct(1 + (src + 7) % (ACCOUNTS - 1)),
            dest_asset: usd(),
            dest_amount: 1 + (n % 5) as i64,
            path: vec![],
        },
        5 => Operation::PathPayment {
            send_asset: Asset::Native,
            send_max: 10_000,
            destination: acct(1 + (src + 9) % (ACCOUNTS - 1)),
            dest_asset: eur(),
            dest_amount: 1 + (n % 3) as i64,
            path: vec![usd()],
        },
        6 if n % 16 == 6 => Operation::ManageData {
            name: format!("k{}", n % 4),
            value: Some(vec![n as u8; 4]),
        },
        6 => Operation::ChangeTrust {
            asset: usd(),
            limit: i64::MAX / 2 - (n % 7) as i64,
        },
        // Fails at apply (USD balance is far below this amount): only
        // the fee charge and sequence bump land.
        _ => Operation::Payment {
            destination: acct(1 + (src + 3) % (ACCOUNTS - 1)),
            asset: usd(),
            amount: 100_000_000,
        },
    }
}

/// A deterministic mixed batch; no account submits twice in one ledger.
fn batch(
    ledger: u64,
    next_seq: &mut std::collections::HashMap<u64, u64>,
) -> Vec<TransactionEnvelope> {
    (0..TXS_PER_LEDGER)
        .map(|t| {
            let n = ledger * TXS_PER_LEDGER + t;
            let src = 1 + (n % (ACCOUNTS - 1));
            let seq = {
                let s = next_seq.entry(src).or_insert(1);
                let v = *s;
                *s += 1;
                v
            };
            let ops = if ledger == 0 {
                // The first ledger seeds order-book liquidity so later
                // path payments have something to cross.
                let maker = |selling, buying, amount| Operation::ManageOffer {
                    offer_id: 0,
                    selling,
                    buying,
                    amount,
                    price: Price::new(100 + t as u32, 100),
                    passive: false,
                };
                vec![maker(usd(), Asset::Native, 500), maker(eur(), usd(), 400)]
            } else {
                vec![nth_op(n, src)]
            };
            let operations: Vec<_> = ops
                .into_iter()
                .map(|op| SourcedOperation { source: None, op })
                .collect();
            TransactionEnvelope::sign(
                Transaction {
                    source: acct(src),
                    seq_num: seq,
                    fee: BASE_FEE * operations.len() as i64,
                    time_bounds: None,
                    memo: Memo::None,
                    operations,
                },
                &[&keys(src)],
            )
        })
        .collect()
}

/// What one run externalized, plus its cache hits.
struct RunOut {
    header_hashes: Vec<Hash256>,
    level_hashes: Vec<Hash256>,
    results: Vec<TxResult>,
    hits: u64,
}

/// Runs the full pipeline.
fn run(mut sig_cache: SigVerifyCache) -> RunOut {
    let mut store = genesis_store();
    let mut buckets = BucketList::seed(store.all_entries());
    let mut header = LedgerHeader::genesis(Hash256::ZERO);
    header.snapshot_hash = buckets.hash();
    let mut queue = TxQueue::new();
    let mut next_seq = std::collections::HashMap::new();
    let mut header_hashes = Vec::new();
    let mut results = Vec::new();
    for ledger in 0..LEDGERS {
        for env in batch(ledger, &mut next_seq) {
            queue
                .submit(&store, env, &mut sig_cache)
                .expect("valid submission");
        }
        let set = TransactionSet::assemble(header.hash(), queue.candidates(&store), u32::MAX);
        assert_eq!(set.txs.len() as u64, TXS_PER_LEDGER);
        let result = close_ledger(
            &mut store,
            &header,
            &set,
            header.close_time + 5,
            LedgerParams::default(),
            &mut sig_cache,
        );
        buckets.add_batch(result.header.ledger_seq, &result.changes);
        header = result.header;
        header.snapshot_hash = buckets.hash();
        queue.prune(&store);
        header_hashes.push(header.hash());
        results.extend(result.results);
    }
    RunOut {
        header_hashes,
        level_hashes: buckets.level_hashes(),
        results,
        hits: sig_cache.hits(),
    }
}

#[test]
fn cached_and_uncached_runs_externalize_identical_state() {
    let on = run(SigVerifyCache::new(1 << 16));
    let off = run(SigVerifyCache::disabled());
    assert_eq!(
        on.header_hashes, off.header_hashes,
        "header hashes diverged"
    );
    assert_eq!(
        on.level_hashes, off.level_hashes,
        "bucket level hashes diverged"
    );
    assert_eq!(on.results, off.results, "transaction results diverged");
    // The workload must reach both outcomes of a valid transaction.
    assert!(on.results.iter().any(TxResult::is_success));
    assert!(
        on.results
            .iter()
            .any(|r| matches!(r, TxResult::Failed { .. })),
        "nothing failed at apply — workload too tame"
    );
    // The twin runs must differ only in where the verifications came
    // from: the cached run actually hits, the uncached one never does.
    assert!(on.hits > 0, "cache never hit — test exercises nothing");
    assert_eq!(off.hits, 0);
}
