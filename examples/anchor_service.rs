//! An anchor's service stack: horizon + federation + compliance + bridge
//! (paper §5.4, Fig. 5, and the §7.1 anchor stories).
//!
//! Plays the Stronghold-style USD anchor end to end:
//!
//! 1. customers are onboarded with KYC (`auth_required` + `AllowTrust`);
//! 2. a **federation server** resolves `benito*anchor.mx` to his pooled
//!    account and required memo;
//! 3. a **compliance server** screens sender/beneficiary against a
//!    sanctions list before anything is submitted;
//! 4. the payment goes through **horizon** submission into a real
//!    consensus round;
//! 5. the **bridge server** notices the incoming payment and emits the
//!    notification a core-banking system would consume.
//!
//! ```sh
//! cargo run --release --example anchor_service
//! ```

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

fn keys(n: u64) -> KeyPair {
    KeyPair::from_seed(0xA2C4 + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn main() {
    let anchor = acct(0);
    let alice = acct(1);
    let benito = acct(2);
    let usd = Asset::issued(anchor, "USD");

    // ---- genesis: KYC'd customers holding anchor USD ----
    let mut store = LedgerStore::new();
    for id in [anchor, alice, benito] {
        store.put_account(AccountEntry::new(id, xlm(100)));
    }
    {
        let env = ExecEnv::default();
        let mut d = store.begin();
        apply_operation(
            &mut d,
            anchor,
            &Operation::SetOptions {
                auth_required: Some(true),
                auth_revocable: Some(true),
                master_weight: None,
                low_threshold: None,
                medium_threshold: None,
                high_threshold: None,
                signer: None,
            },
            &env,
        )
        .unwrap();
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
            apply_operation(
                &mut d,
                anchor,
                &Operation::AllowTrust {
                    trustor: who,
                    asset_code: "USD".into(),
                    authorize: true,
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

    // ---- the anchor's daemons ----
    let mut federation = FederationServer::new("anchor.mx");
    federation.register("benito", benito, Some(Memo::Id(77)));
    let mut compliance = ComplianceServer::new();
    compliance.sanction_name("Shady Intermediary LLC");
    let mut bridge = BridgeServer::new();
    bridge.watch(benito);

    println!("=== anchor service stack (horizon / federation / compliance / bridge) ===\n");

    // 2. Resolve the human-readable address.
    let record = federation
        .resolve("benito*anchor.mx")
        .expect("federation record");
    println!(
        "federation: benito*anchor.mx → {} (memo {:?})",
        record.account, record.required_memo
    );

    // 3. Compliance screening before submission.
    let sender = PartyInfo {
        name: "Alice Doe".into(),
        country: "US".into(),
        account: alice,
    };
    let beneficiary = PartyInfo {
        name: "Benito Ruiz".into(),
        country: "MX".into(),
        account: benito,
    };
    let decision = compliance.screen(&sender, &beneficiary);
    assert_eq!(decision, ComplianceDecision::Allowed);
    println!(
        "compliance: {:?} for {} → {}",
        decision, sender.name, beneficiary.name
    );
    // A sanctioned counterparty is stopped before touching the ledger.
    let crook = PartyInfo {
        name: "Shady Intermediary LLC".into(),
        country: "US".into(),
        account: acct(9),
    };
    assert_eq!(
        compliance.screen(&sender, &crook),
        ComplianceDecision::Denied
    );
    println!(
        "compliance: Denied for {} → {} (sanctions list)",
        sender.name, crook.name
    );

    // 4. Build, submit, and confirm the payment through consensus.
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
                amount: 2_500,
            },
        }],
    };
    let envelope = TransactionEnvelope::sign(tx, &[&keys(1)]);
    let mut sim = Simulation::with_setup(
        SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 0,
            tx_rate: 0.0,
            target_ledgers: 2,
            seed: 21,
            horizon: Some(AdmissionConfig::default()),
            ..SimConfig::default()
        },
        SimSetup {
            genesis: Some(store),
        },
    );
    sim.submit_transaction_at(1100, envelope);
    sim.run();

    // 5. The bridge notices the deposit on the anchor's own validator.
    let observer = sim.observer_id();
    let herder = &sim.validator(observer).herder;
    let indexer = &sim.horizon().expect("the observer hosts Horizon").indexer;
    let notes = bridge.poll(herder, indexer);
    assert_eq!(notes.len(), 1);
    let n = &notes[0];
    println!(
        "bridge: ledger {} — {} received {} {} from {} (memo {:?})",
        n.ledger_seq, n.to, n.amount, n.asset, n.from, n.memo
    );
    assert_eq!(
        n.memo,
        Memo::Id(77),
        "pooled-account routing memo survives consensus"
    );

    // Horizon view of the final balances.
    let info = Horizon::account(herder, benito).expect("benito exists");
    println!(
        "horizon: {} now holds {} USD across {} trustline(s)",
        benito,
        info.trustlines[0].1,
        info.trustlines.len()
    );
    assert_eq!(info.trustlines[0].1, 2_500);
    println!("\nall five daemons of Fig. 5 cooperated on one payment.");
}
