//! Horizon-ecosystem integration: the Fig. 5 daemons against a live
//! consensus network (condensed from `examples/anchor_service.rs`).

use stellar::crypto::sign::KeyPair;
use stellar::horizon::compliance::PartyInfo;
use stellar::horizon::{
    AdmissionConfig, BridgeServer, ComplianceDecision, ComplianceServer, FederationServer, Horizon,
};
use stellar::ledger::amount::{xlm, BASE_FEE};
use stellar::ledger::entry::{AccountEntry, AccountId};
use stellar::ledger::ops::{apply_operation, ExecEnv};
use stellar::ledger::store::LedgerStore;
use stellar::ledger::tx::{Memo, Operation, SourcedOperation, Transaction, TransactionEnvelope};
use stellar::ledger::Asset;
use stellar::sim::scenario::Scenario;
use stellar::sim::simulation::SimSetup;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xF10A + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

#[test]
fn federation_compliance_submission_bridge_roundtrip() {
    let anchor = acct(0);
    let alice = acct(1);
    let benito = acct(2);
    let usd = Asset::issued(anchor, "USD");

    let mut store = LedgerStore::new();
    for id in [anchor, alice, benito] {
        store.put_account(AccountEntry::new(id, xlm(100)));
    }
    {
        let env = ExecEnv::default();
        let mut d = store.begin();
        for who in [alice, benito] {
            apply_operation(
                &mut d,
                who,
                &Operation::ChangeTrust {
                    asset: usd.clone(),
                    limit: 1_000_000,
                },
                &env,
            )
            .unwrap();
        }
        apply_operation(
            &mut d,
            anchor,
            &Operation::Payment {
                destination: alice,
                asset: usd.clone(),
                amount: 10_000,
            },
            &env,
        )
        .unwrap();
        let ch = d.into_changes();
        store.commit(ch);
    }

    let mut federation = FederationServer::new("anchor.mx");
    federation.register("benito", benito, Some(Memo::Id(42)));
    let mut compliance = ComplianceServer::new();
    compliance.sanction_name("Bad Actor");
    let mut bridge = BridgeServer::new();
    bridge.watch(benito);

    // Resolve + screen.
    let record = federation.resolve("benito*anchor.mx").unwrap().clone();
    let d = compliance.screen(
        &PartyInfo {
            name: "Alice".into(),
            country: "US".into(),
            account: alice,
        },
        &PartyInfo {
            name: "Benito".into(),
            country: "MX".into(),
            account: benito,
        },
    );
    assert_eq!(d, ComplianceDecision::Allowed);

    // Submit through consensus.
    let tx = Transaction {
        source: alice,
        seq_num: 1,
        fee: BASE_FEE,
        time_bounds: None,
        memo: record.required_memo.clone().unwrap(),
        operations: vec![SourcedOperation {
            source: None,
            op: Operation::Payment {
                destination: record.account,
                asset: usd.clone(),
                amount: 777,
            },
        }],
    };
    let envelope = TransactionEnvelope::sign(tx, &[&keys(1)]);
    let tx_hash = envelope.hash();
    let mut sim = Simulation::with_setup(
        SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 0,
            tx_rate: 0.0,
            target_ledgers: 2,
            seed: 404,
            horizon: Some(AdmissionConfig::default()),
            ..SimConfig::default()
        },
        SimSetup {
            genesis: Some(store),
        },
    );
    sim.submit_transaction_at(1100, envelope);
    assert_no_violations(&sim.run().violations);

    let herder = &sim.validator(sim.observer_id()).herder;
    // Bridge notification fires once with the routing memo.
    let indexer = &sim.horizon().expect("the observer hosts Horizon").indexer;
    let notes = bridge.poll(herder, indexer);
    assert_eq!(notes.len(), 1);
    assert_eq!(notes[0].amount, 777);
    assert_eq!(notes[0].memo, Memo::Id(42));
    // Horizon finds the transaction and the new balance.
    let rec = Horizon::find_transaction_exhaustive(herder, tx_hash).unwrap();
    assert_eq!(rec.envelope.hash(), tx_hash);
    assert_eq!(notes[0].ledger_seq, rec.ledger_seq);
    // The archive hit carries the lifecycle timeline the tracing layer
    // recorded on this node, ending at apply.
    let timeline = rec.timeline.expect("traced run attaches a timeline");
    assert_eq!(timeline.last().unwrap().phase.tag(), "applied");
    let info = Horizon::account(herder, benito).unwrap();
    assert_eq!(info.trustlines[0].1, 777);
}
