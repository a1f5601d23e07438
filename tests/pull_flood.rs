//! Pull-mode flooding end to end: advert/demand gossip must change how
//! payloads cross the overlay without changing *what* the network
//! agrees on, and it must survive lossy, reordering links by retrying
//! demands against alternate advertisers.

use std::collections::BTreeSet;
use stellar::chaos::{ChaosConfig, ChaosRun, FaultSchedule};
use stellar::crypto::sign::KeyPair;
use stellar::ledger::amount::{xlm, BASE_FEE};
use stellar::ledger::entry::{AccountEntry, AccountId};
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::Asset;
use stellar::overlay::{FloodMode, LinkFault, MsgKind};
use stellar::scp::NodeId;
use stellar::sim::scenario::Scenario;
use stellar::sim::simulation::SimSetup;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0x9011 + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn genesis() -> LedgerStore {
    let mut store = LedgerStore::new();
    for n in 0..3 {
        store.put_account(AccountEntry::new(acct(n), xlm(100)));
    }
    store
}

fn payment(from: u64, seq_num: u64, to: u64, amount: i64) -> TransactionEnvelope {
    TransactionEnvelope::sign(
        Transaction {
            source: acct(from),
            seq_num,
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

/// Runs the same submission script on `scenario` under the given flood
/// mode and returns the observer's header-hash chain, the run report,
/// and the finished sim.
fn scripted_run(
    scenario: Scenario,
    mode: FloodMode,
) -> (
    Vec<(u64, stellar::crypto::Hash256)>,
    stellar::sim::SimReport,
    Simulation,
) {
    let mut sim = Simulation::with_setup(
        SimConfig {
            scenario,
            n_accounts: 0,
            tx_rate: 0.0,
            target_ledgers: 3,
            seed: 0x9011,
            flood_mode: mode,
            ..SimConfig::default()
        },
        SimSetup {
            genesis: Some(genesis()),
        },
    );
    // Submissions land early in their ledger interval (5000 ms), so
    // both modes have ample time — pull adds at most an advert tick
    // plus a demand round trip — to spread every tx before the trigger.
    sim.submit_transaction_at(1_100, payment(0, 1, 1, 7));
    sim.submit_transaction_at(1_300, payment(1, 1, 2, 5));
    sim.submit_transaction_at(6_100, payment(0, 2, 2, 3));
    let report = sim.run();
    assert_no_violations(&report.violations);
    let hashes = sim.header_hashes(sim.observer_id());
    (hashes, report, sim)
}

#[test]
fn push_and_pull_twin_runs_externalize_byte_identical_headers() {
    let mesh = Scenario::ControlledMesh { n_validators: 4 };
    let (push_hashes, push_report, _push_sim) = scripted_run(mesh.clone(), FloodMode::Push);
    let (pull_hashes, pull_report, pull_sim) = scripted_run(mesh, FloodMode::Pull);

    // The whole point of the redesign: transport changes, ledgers don't.
    assert!(push_hashes.len() >= 3, "push run closed {push_hashes:?}");
    assert_eq!(
        push_hashes, pull_hashes,
        "pull transport altered externalized ledgers"
    );
    // Every validator in the pull run converged on the same chain.
    for id in pull_sim.validator_ids() {
        assert_eq!(
            pull_sim.header_hashes(id),
            pull_hashes,
            "validator {id:?} diverged under pull mode"
        );
    }

    // Sanity on the transport itself. SCP relays are adverts in both
    // modes. Push mode never advertises a transaction: each of the three
    // crosses every link a relay would push it on, (n − 1)² = 9 times on
    // this 4-node mesh. Pull mode crosses each node once: 3 times, all in
    // the originator's push.
    let sum = |r: &stellar::sim::SimReport, kind: MsgKind| -> u64 {
        r.traffic.values().map(|t| t.out_count(kind)).sum()
    };
    for report in [&push_report, &pull_report] {
        assert!(sum(report, MsgKind::Advert) > 0, "no adverts sent");
    }
    assert_eq!(sum(&push_report, MsgKind::Tx), 3 * 9);
    assert_eq!(sum(&pull_report, MsgKind::Tx), 3 * 3);

    // On a mesh the originator's push reaches everyone, so nothing is
    // demanded there. A watcher linked to three of a tiered core's four
    // validators reaches the fourth only through a relay: it demands what
    // the relays advertise, and the demands are answered.
    let tiered = Scenario::PublicNetwork {
        n_orgs: 4,
        validators_per_org: 1,
        n_watchers: 1,
    };
    let (_, relayed_report, relayed_sim) = scripted_run(tiered, FloodMode::Pull);
    let chain = relayed_sim.header_hashes(relayed_sim.observer_id());
    assert!(chain.len() >= 3, "tiered run closed {chain:?}");
    assert!(sum(&relayed_report, MsgKind::Demand) > 0, "no demands sent");
    let fulfilled: u64 = relayed_report
        .traffic
        .values()
        .map(|t| t.pull_fulfilled)
        .sum();
    assert!(fulfilled > 0, "no demand was ever fulfilled");
}

#[test]
fn pull_mode_chaos_with_lossy_reordering_links_stays_clean() {
    // Drop/delay/reorder faults on every link from t=1s hit adverts and
    // demands like any other delivery, forcing the demand scheduler
    // through its timeout → next-advertiser retry path. The invariant
    // monitor must stay clean: identical externalized ledgers on all
    // validators and no liveness stall.
    let target_ledgers = 3;
    let n: u32 = 6;
    let report = ChaosRun::new(ChaosConfig {
        sim: SimConfig {
            scenario: Scenario::ByzantineMesh { n_validators: n },
            n_accounts: 40,
            tx_rate: 2.0,
            target_ledgers,
            seed: 0xD3A1,
            max_sim_time_ms: 180_000,
            flood_mode: FloodMode::Pull,
            ..SimConfig::default()
        },
        adversaries: vec![],
        schedule: FaultSchedule::builder()
            .default_link_fault_at(
                1_000,
                LinkFault::none()
                    .with_drop(0.10)
                    .with_delay(0.25, 10, 60)
                    .with_reorder(0.15, 40),
            )
            .build(),
        liveness_bound_ms: 60_000,
        ..ChaosConfig::default()
    })
    .run();

    assert_no_violations(&report.violations);
    let intact: BTreeSet<NodeId> = report.intact.iter().copied().collect();
    assert_eq!(intact.len(), n as usize, "every validator should be intact");
    for (id, seq) in &report.final_seqs {
        assert!(
            *seq > target_ledgers,
            "{id:?} stuck at seq {seq} under pull-mode link faults"
        );
    }
}
