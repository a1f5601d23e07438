//! End-to-end payment-network integration: transactions through consensus
//! into every replica's ledger (paper §5 + §7 pipeline).

use stellar::crypto::sign::KeyPair;
use stellar::ledger::amount::{xlm, Price, BASE_FEE};
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
    KeyPair::from_seed(0x0ABC_0000 + n)
}

fn acct(n: u64) -> AccountId {
    AccountId(keys(n).public())
}

fn pay(from: u64, to: u64, seq: u64, amount: i64) -> TransactionEnvelope {
    let k = keys(from);
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
        &[&k],
    )
}

fn genesis(n: u64) -> LedgerStore {
    let mut s = LedgerStore::new();
    for i in 0..n {
        s.put_account(AccountEntry::new(acct(i), xlm(1000)));
    }
    s
}

fn sim_with(store: LedgerStore, target_ledgers: u64) -> Simulation {
    Simulation::with_setup(
        SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 0,
            tx_rate: 0.0,
            target_ledgers,
            seed: 1234,
            ..SimConfig::default()
        },
        SimSetup {
            genesis: Some(store),
        },
    )
}

#[test]
fn payments_replicate_identically() {
    let mut sim = sim_with(genesis(4), 3);
    sim.submit_transaction_at(1100, pay(0, 1, 1, xlm(10)));
    sim.submit_transaction_at(1200, pay(1, 2, 1, xlm(5)));
    sim.submit_transaction_at(6100, pay(0, 2, 2, xlm(1)));
    assert_no_violations(&sim.run().violations);
    let ids = sim.validator_ids();
    let reference = sim.validator(ids[0]).herder.header.hash();
    for id in &ids {
        let v = sim.validator(*id);
        assert_eq!(v.herder.header.hash(), reference, "replica {id} diverged");
        assert_eq!(v.herder.store.account(acct(2)).unwrap().balance, xlm(1006));
        assert_eq!(
            v.herder.store.account(acct(0)).unwrap().balance,
            xlm(989) - 2 * BASE_FEE
        );
    }
}

#[test]
fn sequence_gap_waits_for_missing_transaction() {
    let mut sim = sim_with(genesis(3), 4);
    // Submit seq 2 first; it must not execute before seq 1 arrives.
    sim.submit_transaction_at(1100, pay(0, 1, 2, xlm(2)));
    sim.submit_transaction_at(9000, pay(0, 1, 1, xlm(1)));
    assert_no_violations(&sim.run().violations);
    let ids = sim.validator_ids();
    for id in &ids {
        let v = sim.validator(*id);
        assert_eq!(
            v.herder.store.account(acct(0)).unwrap().seq_num,
            2,
            "both executed in order"
        );
        assert_eq!(v.herder.store.account(acct(1)).unwrap().balance, xlm(1003));
    }
}

#[test]
fn order_book_trades_through_consensus() {
    // Maker sells USD at 2 XLM/USD; taker buys through a consensus round.
    let issuer = 9u64;
    let maker = 5u64;
    let taker = 1u64;
    let mut store = genesis(10);
    let usd = Asset::issued(acct(issuer), "USD");
    {
        let env = ExecEnv::default();
        let mut d = store.begin();
        apply_operation(
            &mut d,
            acct(maker),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: xlm(1000),
            },
            &env,
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(taker),
            &Operation::ChangeTrust {
                asset: usd.clone(),
                limit: xlm(1000),
            },
            &env,
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(issuer),
            &Operation::Payment {
                destination: acct(maker),
                asset: usd.clone(),
                amount: 500,
            },
            &env,
        )
        .unwrap();
        apply_operation(
            &mut d,
            acct(maker),
            &Operation::ManageOffer {
                offer_id: 0,
                selling: usd.clone(),
                buying: Asset::Native,
                amount: 500,
                price: Price::new(2, 1),
                passive: false,
            },
            &env,
        )
        .unwrap();
        let ch = d.into_changes();
        store.commit(ch);
    }
    let mut sim = sim_with(store, 2);
    let k = keys(taker);
    let buy = TransactionEnvelope::sign(
        Transaction {
            source: acct(taker),
            seq_num: 1,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::None,
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::ManageOffer {
                    offer_id: 0,
                    selling: Asset::Native,
                    buying: usd.clone(),
                    amount: 100,
                    price: Price::new(1, 2),
                    passive: false,
                },
            }],
        },
        &[&k],
    );
    sim.submit_transaction_at(1100, buy);
    assert_no_violations(&sim.run().violations);
    for id in sim.validator_ids() {
        let st = &sim.validator(id).herder.store;
        assert_eq!(
            st.trustline(acct(taker), &usd).unwrap().balance,
            50,
            "100 XLM @ 2 = 50 USD"
        );
        assert_eq!(st.trustline(acct(maker), &usd).unwrap().balance, 450);
    }
}

#[test]
fn surge_pricing_under_congestion_through_consensus() {
    // Budget 2 ops per ledger, three 1-op candidates with different bids:
    // the two high bidders clear at the lower of their rates.
    let mut store = genesis(5);
    {
        // Bump balances so fees are payable.
        let mut d = store.begin();
        for i in 0..5 {
            let mut a = d.account(acct(i)).unwrap();
            a.balance = xlm(1000);
            d.put_account(a);
        }
        let ch = d.into_changes();
        store.commit(ch);
    }
    let mut sim = Simulation::with_setup(
        SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 0,
            tx_rate: 0.0,
            target_ledgers: 2,
            seed: 77,
            max_tx_set_ops: 2,
            ..SimConfig::default()
        },
        SimSetup {
            genesis: Some(store),
        },
    );
    let mk = |from: u64, fee_mult: i64| {
        let k = keys(from);
        TransactionEnvelope::sign(
            Transaction {
                source: acct(from),
                seq_num: 1,
                fee: BASE_FEE * fee_mult,
                time_bounds: None,
                memo: Memo::None,
                operations: vec![SourcedOperation {
                    source: None,
                    op: Operation::Payment {
                        destination: acct(4),
                        asset: Asset::Native,
                        amount: 1,
                    },
                }],
            },
            &[&k],
        )
    };
    sim.submit_transaction_at(1100, mk(0, 1));
    sim.submit_transaction_at(1100, mk(1, 10));
    sim.submit_transaction_at(1100, mk(2, 5));
    assert_no_violations(&sim.run().violations);
    for id in sim.validator_ids() {
        let st = &sim.validator(id).herder.store;
        // High bidders executed; both charged the clearing rate (5×).
        assert_eq!(st.account(acct(1)).unwrap().seq_num, 1);
        assert_eq!(st.account(acct(2)).unwrap().seq_num, 1);
        assert_eq!(
            st.account(acct(1)).unwrap().balance,
            xlm(1000) - 1 - BASE_FEE * 5
        );
        assert_eq!(
            st.account(acct(2)).unwrap().balance,
            xlm(1000) - 1 - BASE_FEE * 5
        );
    }
}

#[test]
fn history_archive_records_consensus_ledgers() {
    let mut sim = sim_with(genesis(3), 3);
    sim.submit_transaction_at(1100, pay(0, 1, 1, xlm(1)));
    assert_no_violations(&sim.run().violations);
    let id = sim.validator_ids()[0];
    let herder = &sim.validator(id).herder;
    for seq in 2..=herder.header.ledger_seq {
        assert!(
            herder.archive.tx_set(seq).is_some(),
            "tx set for ledger {seq} archived"
        );
        assert!(
            herder.archive.header(seq).is_some(),
            "header for ledger {seq} archived"
        );
    }
}

#[test]
fn hash_preimage_signer_enables_htlc_style_claims() {
    // §5.2: "Multisig accounts can also be configured to give signing
    // weight to the revelation of a hash pre-image, which, combined with
    // time bounds, permits atomic cross-chain trading."
    use stellar::crypto::sha256::sha256;
    use stellar::ledger::apply::{apply_transaction, check_validity};
    use stellar::ledger::entry::{Signer, SignerKey};
    use stellar::ledger::ops::ExecEnv;
    use stellar::ledger::sigcache::SigVerifyCache;
    use stellar::ledger::tx::{TimeBounds, TxError, TxResult};

    let secret = b"cross-chain-secret".to_vec();
    let lock = sha256(&secret);

    // An escrow account claimable only by revealing the preimage before
    // the deadline (master key deauthorized).
    let escrow = acct(10);
    let claimer = acct(11);
    let mut store = genesis(0);
    {
        let mut e = stellar::ledger::entry::AccountEntry::new(escrow, xlm(50));
        e.thresholds.master_weight = 0;
        e.signers.push(Signer {
            key: SignerKey::HashX(lock),
            weight: 1,
        });
        store.put_account(e);
        store.put_account(stellar::ledger::entry::AccountEntry::new(claimer, xlm(5)));
    }

    let claim_tx = Transaction {
        source: escrow,
        seq_num: 1,
        fee: BASE_FEE,
        time_bounds: Some(TimeBounds {
            min_time: 0,
            max_time: 500,
        }),
        memo: Memo::None,
        operations: vec![SourcedOperation {
            source: None,
            op: Operation::Payment {
                destination: claimer,
                asset: Asset::Native,
                amount: xlm(40),
            },
        }],
    };

    // Without the preimage: no signing weight at all.
    let unsigned = TransactionEnvelope::sign(claim_tx.clone(), &[]);
    let d = store.begin();
    assert_eq!(
        check_validity(
            &d,
            &unsigned,
            100,
            BASE_FEE,
            &mut SigVerifyCache::disabled()
        ),
        Err(TxError::BadAuth)
    );
    drop(d);

    // Even the escrow's own master key cannot sign (weight 0).
    let master_signed = TransactionEnvelope::sign(claim_tx.clone(), &[&keys(10)]);
    let d = store.begin();
    assert_eq!(
        check_validity(
            &d,
            &master_signed,
            100,
            BASE_FEE,
            &mut SigVerifyCache::disabled()
        ),
        Err(TxError::BadAuth)
    );
    drop(d);

    // A wrong preimage fails.
    let wrong = TransactionEnvelope::sign(claim_tx.clone(), &[]).with_preimage(b"guess".to_vec());
    let d = store.begin();
    assert_eq!(
        check_validity(&d, &wrong, 100, BASE_FEE, &mut SigVerifyCache::disabled()),
        Err(TxError::BadAuth)
    );
    drop(d);

    // Revealing the secret claims the funds — inside the time window.
    let revealed = TransactionEnvelope::sign(claim_tx.clone(), &[]).with_preimage(secret.clone());
    let mut d = store.begin();
    let r = apply_transaction(
        &mut d,
        &revealed,
        100,
        BASE_FEE,
        &ExecEnv::default(),
        &mut SigVerifyCache::disabled(),
    );
    assert!(matches!(r, TxResult::Success { .. }), "{r:?}");
    assert_eq!(d.account(acct(11)).unwrap().balance, xlm(45));
    drop(d);

    // After the deadline the preimage is useless (the refund branch of an
    // HTLC takes over).
    let d = store.begin();
    let late = TransactionEnvelope::sign(claim_tx, &[]).with_preimage(secret);
    assert_eq!(
        check_validity(&d, &late, 600, BASE_FEE, &mut SigVerifyCache::disabled()),
        Err(TxError::TooLate)
    );
}

#[test]
fn independent_runs_are_bit_identical() {
    // Two separately constructed simulations with the same seed must end
    // with identical header hashes on every validator — the strongest
    // statement of end-to-end determinism (codec, consensus, execution,
    // bucket hashing all included).
    let run = || {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 200,
            tx_rate: 15.0,
            target_ledgers: 5,
            seed: 31337,
            ..SimConfig::default()
        });
        assert_no_violations(&sim.run().violations);
        sim.validator_ids()
            .iter()
            .map(|id| sim.validator(*id).herder.header.hash())
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "seeded runs must replay identically");
    // And within a run, all replicas converge to one header.
    assert!(
        a.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {a:?}"
    );
}
