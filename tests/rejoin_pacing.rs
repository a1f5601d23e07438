//! A rebooted validator rejoins the network's beat. Validators trigger
//! each ledger on a 5-second grid; one that comes back after several
//! intervals of downtime must re-trigger on that grid, not the moment it
//! boots. Were it to trigger at once, it would propose a whole
//! transaction set ahead of its peers for the rest of the run, and each
//! ledger it leads would close on a set seconds staler than theirs.

use std::collections::BTreeMap;
use stellar::crypto::Hash256;
use stellar::ledger::amount::BASE_FEE;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::Asset;
use stellar::scp::NodeId;
use stellar::sim::events::TraceEntry;
use stellar::sim::loadgen::{user_account, user_keys};
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

const ACCOUNTS: u64 = 1_000;
const INTERVAL_MS: u64 = 5_000;
const CRASH_MS: u64 = 8_500;
/// Four intervals later, half an interval off the network's triggers.
const RESTART_MS: u64 = CRASH_MS + 4 * INTERVAL_MS;
/// How long before the peers' trigger a transaction must have been
/// submitted to be owed a place in that slot's ledger.
const SLACK_MS: u64 = 1_000;

/// Account `i`'s first (and only) payment.
fn payment(i: u64) -> TransactionEnvelope {
    TransactionEnvelope::sign(
        Transaction {
            source: user_account(i),
            seq_num: 1,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: user_account((i + 1) % ACCOUNTS),
                    asset: Asset::Native,
                    amount: 1 + i as i64,
                },
            }],
        },
        &[&user_keys(i)],
    )
}

fn step_until(sim: &mut Simulation, until_ms: u64) {
    while sim.now_ms() < until_ms && sim.step() {}
}

#[test]
fn a_validator_rebooted_off_the_beat_closes_no_ledger_on_a_stale_set() {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: ACCOUNTS,
        tx_rate: 0.0,
        target_ledgers: 14,
        ledger_interval_ms: INTERVAL_MS,
        seed: 3,
        ..SimConfig::default()
    });
    sim.enable_trace();
    let victim = NodeId(3);
    assert_ne!(victim, sim.observer_id());
    // One payment every 100 ms from the reboot on, each from an account
    // of its own, so none waits on another's sequence number.
    for i in 0..(INTERVAL_MS * 8 / 100) {
        sim.submit_transaction_at(RESTART_MS + 100 * i, payment(i));
    }
    step_until(&mut sim, CRASH_MS);
    sim.crash(victim);
    step_until(&mut sim, RESTART_MS);
    sim.restart(victim);
    let report = sim.run();
    assert_no_violations(&report.violations);

    // Each slot's earliest trigger among the peers (a node's trigger is
    // for the slot after the last ledger it closed), and each
    // submission's time.
    let mut closed: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut peers_trigger: BTreeMap<u64, u64> = BTreeMap::new();
    let mut submitted: Vec<(u64, Hash256)> = Vec::new();
    for entry in sim.trace() {
        match entry {
            TraceEntry::Close { node, seq, .. } => {
                closed.insert(*node, *seq);
            }
            TraceEntry::Trigger { time, node } if *node != victim => {
                let slot = closed.get(node).copied().unwrap_or(1) + 1;
                peers_trigger.entry(slot).or_insert(*time);
            }
            TraceEntry::Submit { time, tx_hash, .. } => submitted.push((*time, *tx_hash)),
            _ => {}
        }
    }
    let observer = sim.observer_id();
    let archive = &sim.validator(observer).herder.archive;
    let mut applied_in: BTreeMap<Hash256, u64> = BTreeMap::new();
    let chain = sim.header_hashes(observer);
    for (seq, _) in &chain {
        let set = archive.tx_set(*seq).expect("archived set");
        applied_in.extend(set.txs.iter().map(|tx| (tx.hash(), *seq)));
    }
    let last = chain.last().expect("a closed ledger").0;

    let victim_closed = closed.get(&victim).copied().unwrap_or(0);
    assert!(
        victim_closed >= last - 1,
        "the victim rejoined: {victim_closed}"
    );
    let mut checked = 0;
    for (&slot, &trigger) in peers_trigger.range(..=last) {
        if trigger < RESTART_MS + SLACK_MS {
            continue;
        }
        for (at, tx) in submitted.iter().filter(|(at, _)| at + SLACK_MS <= trigger) {
            let seq = applied_in.get(tx).copied();
            assert!(
                seq.is_some_and(|seq| seq <= slot),
                "a payment submitted at {at} ms, {} ms before the peers \
                 triggered slot {slot}, closed in {seq:?}",
                trigger - at,
            );
            checked += 1;
        }
    }
    assert!(checked > 1_000, "checked {checked}");
    // The rebooted validator triggers with its peers: the spread is the
    // initial stagger, not the half interval it rebooted off the beat.
    assert!(
        report.trigger_skew.max_ms < 100,
        "{:?}",
        report.trigger_skew
    );
}
