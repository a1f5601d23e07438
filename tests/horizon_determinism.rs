//! Twin-run determinism: the horizon pipeline is off-consensus.
//!
//! The ingestion indexer, subscription hub, and admission bookkeeping
//! consume each close *after* it is final and feed nothing back, so a
//! node running the full pipeline and a node running none of it must
//! externalize byte-identical artifacts — per-ledger header hashes and
//! the final bucket level hashes. If they ever diverged, a horizon
//! deployment choice could fork the network.
//!
//! Runs on both store backends explicitly, and again at the simulation
//! level under Poisson payment load.

use std::collections::BTreeMap;
use stellar::crypto::sign::KeyPair;
use stellar::crypto::Hash256;
use stellar::herder::Herder;
use stellar::horizon::{AdmissionConfig, HorizonPipeline, Topic};
use stellar::ledger::amount::{xlm, BASE_FEE};
use stellar::ledger::entry::{AccountEntry, AccountId};
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::{Asset, TransactionSet};
use stellar::scp::NodeId;
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

const ACCOUNTS: u64 = 16;
const LEDGERS: u64 = 6;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xD0_0D + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn genesis() -> LedgerStore {
    let mut store = LedgerStore::new();
    for i in 0..ACCOUNTS {
        store.put_account(AccountEntry::new(acct(i), xlm(1_000)));
    }
    store
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

/// Closes `LEDGERS` ledgers of deterministic payments on one herder,
/// optionally running the full horizon pipeline at every close. Returns
/// (per-ledger header hashes, final bucket level hashes).
fn drive(
    backend: stellar::store::BackendKind,
    with_pipeline: bool,
) -> (Vec<Hash256>, Vec<Hash256>) {
    let store = stellar::store::open(&genesis(), backend, &stellar::store::DiskConfig::default());
    let mut h = Herder::new(NodeId(0), store, BTreeMap::new());
    let mut pipeline = with_pipeline.then(|| {
        let mut p = HorizonPipeline::attach(&mut h, AdmissionConfig::default());
        // Exercise the hub, not just the indexer: a subscriber that
        // actually receives every close's deltas.
        p.hub.subscribe(Topic::TxStatus);
        p.hub.subscribe(Topic::Account(acct(1)));
        p
    });
    let mut headers = Vec::new();
    for l in 0..LEDGERS {
        let txs: Vec<TransactionEnvelope> = (0..4)
            .map(|i| {
                payment(
                    i,
                    (i + 1 + l) % ACCOUNTS,
                    l + 1,
                    10 + (l as i64) * 7 + i as i64,
                )
            })
            .collect();
        let set = TransactionSet::assemble(h.header.hash(), txs, 100);
        h.learn_tx_set(set.clone());
        let v = stellar::herder::StellarValue::new(set.hash(), h.header.close_time + 5);
        assert!(h.apply_externalized(h.current_slot(), &v));
        if let Some(p) = pipeline.as_mut() {
            p.on_close(&mut h);
        }
        headers.push(h.header.hash());
    }
    if let Some(p) = &pipeline {
        assert_eq!(p.indexer.ingested_seq(), h.header.ledger_seq);
        assert!(
            p.registry().counter("ingest.ledgers") == LEDGERS
                && p.registry().counter("stream.events") > 0,
            "the pipeline must actually have run for the twin-run to mean anything"
        );
    }
    (headers, h.buckets.level_hashes())
}

#[test]
fn indexer_on_off_twin_runs_externalize_identical_artifacts() {
    for backend in [
        stellar::store::BackendKind::Mem,
        stellar::store::BackendKind::Disk,
    ] {
        let (h_on, b_on) = drive(backend, true);
        let (h_off, b_off) = drive(backend, false);
        assert_eq!(h_on, h_off, "header hashes diverged on {backend:?}");
        assert_eq!(b_on, b_off, "bucket level hashes diverged on {backend:?}");
    }
}

/// A permissive admission tuning: the front door is installed (the code
/// path runs) but never sheds, so the submitted transaction stream —
/// and therefore consensus input — matches the pipeline-free twin.
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
fn sim_twin_runs_with_and_without_pipeline_close_identically() {
    let cfg = |horizon: Option<AdmissionConfig>| SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 50,
        tx_rate: 10.0,
        target_ledgers: 5,
        horizon,
        horizon_query_rate: if horizon.is_some() { 20.0 } else { 0.0 },
        ..SimConfig::default()
    };
    let mut with = Simulation::new(cfg(Some(permissive_admission())));
    let mut without = Simulation::new(cfg(None));
    let r_with = with.run();
    let r_without = without.run();
    assert_no_violations(&r_with.violations);
    assert_no_violations(&r_without.violations);
    assert!(r_with.ledgers.len() >= 5 && r_without.ledgers.len() >= 5);

    let obs = with.observer_id();
    assert_eq!(obs, without.observer_id());
    let vw = with.validator(obs);
    let vo = without.validator(obs);
    assert_eq!(
        vw.herder.header.hash(),
        vo.herder.header.hash(),
        "final headers diverged"
    );
    // The header's snapshot hash commits to the full bucket list, so
    // header equality covers bucket byte-identity too; compare it
    // explicitly for the error message.
    assert_eq!(
        vw.herder.header.snapshot_hash, vo.herder.header.snapshot_hash,
        "bucket snapshot hashes diverged"
    );
    // Every archived header along the way, not just the tip.
    let latest = vw.herder.archive.latest_seq().expect("closed ledgers");
    for seq in 2..=latest {
        assert_eq!(
            vw.herder.archive.header(seq).map(|h| h.hash()),
            vo.herder.archive.header(seq).map(|h| h.hash()),
            "archived header {seq} diverged"
        );
    }
    // And the pipeline demonstrably ran: it ingested to the tip.
    let p = with.horizon().expect("pipeline attached");
    assert_eq!(p.indexer.ingested_seq(), vw.herder.header.ledger_seq);
    assert!(with.horizon_metrics().counter("horizon.queries") > 0);
}
