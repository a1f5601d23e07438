//! One allocation per transaction set, end to end: on a loaded
//! public-network topology every validator's archive must hold each set as
//! the bytes its header names, validators that closed on the same set
//! handle must share that encoding (not hold copies of it), a herder must
//! remember only a window of transaction sets, and neither may cost
//! agreement or a crashed node's way back in.
//!
//! The store backend is `SimConfig::default()`'s (`STELLAR_STORE_BACKEND`),
//! so `ci.sh`'s two `--workspace` passes run this on RAM and on disk.

use stellar::crypto::sha256::sha256;
use stellar::herder::herder::SLOT_WINDOW;
use stellar::overlay::FloodMode;
use stellar::scp::NodeId;
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

const LEDGERS: u64 = 8;
const VALIDATORS: usize = 12;

/// What a herder may hold at once: the proposals of the current slot and
/// of the `SLOT_WINDOW` closed ones behind it, one per validator, plus the
/// next slot's proposals from validators that closed ahead of it.
const KNOWN_SETS_BOUND: usize = VALIDATORS * (SLOT_WINDOW as usize + 2);

fn loaded_network() -> Simulation {
    Simulation::new(SimConfig {
        scenario: Scenario::PublicNetwork {
            n_orgs: 4,
            validators_per_org: 3,
            n_watchers: 8,
        },
        flood_mode: FloodMode::Pull,
        n_accounts: 2_000,
        tx_rate: 100.0,
        target_ledgers: LEDGERS,
        seed: 0x5AA2E,
        ..SimConfig::default()
    })
}

/// Steps until `done` (or the run ends), checking the remembered-set
/// bound on every validator after every event.
fn run_until(sim: &mut Simulation, done: impl Fn(&Simulation) -> bool, max_known: &mut usize) {
    let ids = sim.validator_ids();
    while !done(sim) && sim.step() {
        for id in &ids {
            let known = sim.validator(*id).herder.known_tx_sets.len();
            *max_known = (*max_known).max(known);
            assert!(
                known <= KNOWN_SETS_BOUND,
                "validator {id:?} remembers {known} tx sets at {} ms",
                sim.now_ms()
            );
        }
    }
}

#[test]
fn validators_share_envelopes_remember_a_window_and_a_crashed_one_rejoins() {
    let mut sim = loaded_network();
    let observer = sim.observer_id();
    let ids = sim.validator_ids();
    assert_eq!(ids.len(), VALIDATORS);
    let victim: NodeId = *ids.iter().find(|id| **id != observer).expect("a peer");
    let mut max_known = 0;

    // Down for three ledgers, then a crash-restart from disk + archives.
    run_until(&mut sim, |s| s.ledger_seq_of(observer) >= 3, &mut max_known);
    sim.crash(victim);
    run_until(&mut sim, |s| s.ledger_seq_of(observer) >= 6, &mut max_known);
    assert!(sim.ledger_seq_of(victim) <= 3, "the victim was down");
    sim.restart(victim);
    let all_closed = |s: &Simulation| ids.iter().all(|id| s.ledger_seq_of(*id) > LEDGERS);
    run_until(&mut sim, all_closed, &mut max_known);

    // Agreement, and the restarted validator is back at the tip.
    let chain = sim.header_hashes(observer);
    assert!(chain.len() as u64 >= LEDGERS, "observer closed {chain:?}");
    for id in &ids {
        let theirs = sim.header_hashes(*id);
        assert!(
            theirs.iter().all(|entry| chain.contains(entry)),
            "validator {id:?} diverged"
        );
    }
    assert!(
        sim.ledger_seq_of(victim) > LEDGERS,
        "the restarted validator stalled at {} — pruning starved it",
        sim.ledger_seq_of(victim)
    );

    // Every archive holds each set as the bytes its header names, and
    // validators that closed on the same set handle hold one allocation.
    let mut archived = 0usize;
    let mut allocations = 0usize;
    let mut applied = 0usize;
    for seq in 2..=1 + LEDGERS {
        let mut held: Vec<*const u8> = Vec::new();
        for id in &ids {
            let herder = &sim.validator(*id).herder;
            // On the disk backend the restarted validator resumes from
            // its data disk with an empty archive: it holds only what it
            // replayed or closed since.
            let Some(bytes) = herder.archive.tx_set_bytes(seq) else {
                assert!(*id == victim && seq <= 3, "{id:?} lacks ledger {seq}");
                continue;
            };
            let header = herder.archive.header(seq).expect("archived header");
            assert_eq!(sha256(bytes), header.tx_set_hash, "{id:?} ledger {seq}");
            archived += 1;
            if !held.contains(&bytes.as_ptr()) {
                held.push(bytes.as_ptr());
            }
        }
        allocations += held.len();
        let set = sim.validator(observer).herder.archive.tx_set(seq);
        applied += set.expect("observer archived").txs.len();
    }
    assert!(applied > 2_000, "only {applied} transactions applied");
    // (Two proposers may each assemble an equal set, and a replayed set
    // is decoded afresh, so a ledger may have a few allocations.)
    assert!(
        allocations * 3 <= archived,
        "{archived} archived sets in {allocations} allocations: copies, not shared bytes"
    );

    // The window did work, and left room to spare.
    assert!(
        max_known > VALIDATORS,
        "max {max_known}: nothing was learned"
    );
    let pruned: u64 = ids
        .iter()
        .map(|id| {
            sim.validator(*id)
                .herder
                .telemetry
                .registry
                .counter("herder.tx_sets_pruned")
        })
        .sum();
    assert!(pruned > 0, "no validator ever forgot a set");
    println!("max known_tx_sets on one validator: {max_known} (bound {KNOWN_SETS_BOUND}); pruned {pruned}; {archived} archived sets in {allocations} allocations");
}
