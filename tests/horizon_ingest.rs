//! Ingestion indexer correctness: materialized tables vs ground truth.
//!
//! Two gates from the issue: (1) a property test that the per-account
//! history index equals a naive full-archive rescan after random
//! workloads — the indexer's incremental, buffered, gap-backfilling
//! bookkeeping must never drop or duplicate a row; (2) restart-mid-
//! ingestion recovery on both store backends — a crash-restarted
//! observer re-attaches a fresh pipeline, backfills from the archive,
//! and converges on the same tables.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stellar::crypto::sign::KeyPair;
use stellar::crypto::Hash256;
use stellar::herder::Herder;
use stellar::horizon::ingest::participants;
use stellar::horizon::{AdmissionConfig, Indexer};
use stellar::ledger::amount::{xlm, BASE_FEE};
use stellar::ledger::entry::{AccountEntry, AccountId};
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::{Asset, TransactionSet};
use stellar::scp::NodeId;
use stellar::sim::loadgen::user_account;
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

const N: u64 = 8;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xF00D + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn herder() -> Herder {
    let mut store = LedgerStore::new();
    for i in 0..N {
        store.put_account(AccountEntry::new(acct(i), xlm(1_000)));
    }
    Herder::new(NodeId(0), store, BTreeMap::new())
}

fn payment(from: u64, to: u64, seq: u64, amount: i64) -> TransactionEnvelope {
    TransactionEnvelope::sign(
        Transaction {
            source: acct(from),
            seq_num: seq,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: acct(to),
                    asset: Asset::Native,
                    amount,
                },
            }],
        },
        &[&keys(from)],
    )
}

/// Pages an account's indexed history to completion with a small page
/// size, exercising the cursor machinery along the way.
fn full_history(ix: &Indexer, id: AccountId) -> Vec<(u64, u32, Hash256)> {
    let mut out = Vec::new();
    let mut cursor = None;
    loop {
        let page = ix.account_history(id, cursor, 7).unwrap();
        out.extend(
            page.records
                .iter()
                .map(|r| (r.ledger_seq, r.tx_index, r.tx_hash)),
        );
        match page.cursor {
            Some(c) => cursor = Some(c),
            None => break,
        }
    }
    out
}

/// Ground truth: rescan every archived transaction set and file each
/// transaction under every participant, in apply order.
fn naive_rescan(
    archive: &stellar::buckets::HistoryArchive,
) -> BTreeMap<AccountId, Vec<(u64, u32, Hash256)>> {
    let mut naive: BTreeMap<AccountId, Vec<(u64, u32, Hash256)>> = BTreeMap::new();
    let Some(latest) = archive.latest_seq() else {
        return naive;
    };
    for seq in 2..=latest {
        let Some(set) = archive.tx_set(seq) else {
            continue;
        };
        for (i, env) in set.txs.iter().enumerate() {
            for a in participants(env) {
                naive
                    .entry(a)
                    .or_default()
                    .push((seq, i as u32, env.hash()));
            }
        }
    }
    naive
}

proptest! {
    /// After an arbitrary payment workload chopped into arbitrary
    /// ledgers, the incremental index and the naive rescan agree for
    /// every account.
    #[test]
    fn indexed_history_equals_naive_rescan(
        ops in proptest::collection::vec((0..N, 0..N, 1..50i64), 1..40),
        chunk in 1usize..6,
    ) {
        let mut h = herder();
        let mut ix = Indexer::attach(&mut h);
        let mut seqs: BTreeMap<u64, u64> = BTreeMap::new();
        for batch in ops.chunks(chunk) {
            let txs: Vec<TransactionEnvelope> = batch
                .iter()
                .map(|&(from, to, amount)| {
                    let to = if to == from { (to + 1) % N } else { to };
                    let e = seqs.entry(from).or_insert(0);
                    *e += 1;
                    payment(from, to, *e, amount)
                })
                .collect();
            let set = TransactionSet::assemble(h.header.hash(), txs, 100);
            h.learn_tx_set(set.clone());
            let v = stellar::herder::StellarValue::new(set.hash(), h.header.close_time + 5);
            prop_assert!(h.apply_externalized(h.current_slot(), &v));
            ix.ingest(&mut h);
        }
        let naive = naive_rescan(&h.archive);
        for i in 0..N {
            let want = naive.get(&acct(i)).cloned().unwrap_or_default();
            prop_assert_eq!(full_history(&ix, acct(i)), want, "account {}", i);
        }
    }
}

/// A front door that never sheds, so load flows identically to a
/// pipeline-free run while still exercising the admission code path.
fn permissive_admission() -> AdmissionConfig {
    AdmissionConfig {
        bucket_capacity: 1 << 20,
        refill_per_sec: 1 << 20,
        queue_capacity: 1 << 20,
        max_pending: 1 << 20,
        ..AdmissionConfig::default()
    }
}

#[test]
fn restart_mid_ingestion_recovers_on_both_backends() {
    for backend in [
        stellar::store::BackendKind::Mem,
        stellar::store::BackendKind::Disk,
    ] {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 40,
            tx_rate: 15.0,
            target_ledgers: 8,
            store_backend: backend,
            horizon: Some(permissive_admission()),
            ..SimConfig::default()
        });
        let obs = sim.observer_id();
        // Let the indexer ingest a few ledgers live...
        while sim.validator(obs).herder.header.ledger_seq < 5 {
            assert!(sim.step(), "network stalled before the restart point");
        }
        // ...then kill the observer mid-ingestion. The pipeline is RAM:
        // the restart re-attaches a fresh one and backfills from the
        // archive.
        sim.restart(obs);
        assert_no_violations(&sim.run().violations);
        // (The restarted observer's RAM event log is gone, so the
        // report's per-ledger metrics undercount; the chain head is the
        // progress witness.)
        assert!(
            sim.validator(obs).herder.header.ledger_seq >= 9,
            "{backend:?}: network stalled"
        );
        assert!(
            sim.horizon_metrics().counter("horizon.reattached") >= 1,
            "{backend:?}: pipeline was not re-attached"
        );

        let head = sim.validator(obs).herder.header.ledger_seq;
        let p = sim.horizon().expect("pipeline attached");
        assert_eq!(p.indexer.ingested_seq(), head, "{backend:?}: indexer lags");

        // The recovered tables equal the ground-truth archive rescan.
        let naive = naive_rescan(&sim.validator(obs).herder.archive);
        for i in 0..40 {
            let id = user_account(i);
            let want = naive.get(&id).cloned().unwrap_or_default();
            assert_eq!(
                full_history(&p.indexer, id),
                want,
                "{backend:?}: history diverged for account {i}"
            );
        }
    }
}
