//! Governance integration: upgrades through full consensus (§5.3).

use std::collections::BTreeSet;
use stellar::herder::Upgrade;
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

#[path = "support/violations.rs"]
mod violations;
use violations::assert_no_violations;

fn run_with_governance(
    desired: BTreeSet<Upgrade>,
    governing_count: usize,
) -> (Simulation, stellar::sim::SimReport) {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 50,
        tx_rate: 2.0,
        target_ledgers: 4,
        seed: 5150,
        ..SimConfig::default()
    });
    let ids = sim.validator_ids();
    sim.configure_governance(&ids[..governing_count], desired);
    let report = sim.run();
    assert_no_violations(&report.violations);
    (sim, report)
}

#[test]
fn base_fee_upgrade_adopted_by_all() {
    let (sim, report) = run_with_governance([Upgrade::BaseFee(500)].into(), 2);
    assert!(report.ledgers.len() >= 4);
    for id in sim.validator_ids() {
        assert_eq!(sim.validator(id).herder.header.params.base_fee, 500);
    }
}

#[test]
fn multiple_upgrades_apply_together() {
    let desired: BTreeSet<Upgrade> = [
        Upgrade::BaseFee(250),
        Upgrade::ProtocolVersion(3),
        Upgrade::MaxTxSetOps(5000),
    ]
    .into();
    let (sim, _) = run_with_governance(desired, 2);
    for id in sim.validator_ids() {
        let p = sim.validator(id).herder.header.params;
        assert_eq!(p.base_fee, 250);
        assert_eq!(p.protocol_version, 3);
        assert_eq!(p.max_tx_set_ops, 5000);
    }
}

#[test]
fn no_governing_validators_no_upgrades() {
    let (sim, _) = run_with_governance(BTreeSet::new(), 0);
    for id in sim.validator_ids() {
        let p = sim.validator(id).herder.header.params;
        assert_eq!(p.base_fee, stellar::ledger::amount::BASE_FEE);
        assert_eq!(p.protocol_version, 1);
    }
}

#[test]
fn satisfied_upgrades_stop_being_proposed() {
    // After adoption, later ledgers' proposals carry no upgrades — the
    // governing validators see their desire satisfied.
    let (sim, _) = run_with_governance([Upgrade::BaseFee(300)].into(), 2);
    let id = sim.observer_id();
    let herder = &sim.validator(id).herder;
    // The last archived tx-set-bearing value applied with base_fee 300;
    // the header's params reflect it and the fee pool accrued at the new
    // rate only after the switch.
    assert_eq!(herder.header.params.base_fee, 300);
    // Proposals made now carry no upgrades.
    let mut probe = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 10,
        tx_rate: 0.0,
        target_ledgers: 1,
        seed: 1,
        ..SimConfig::default()
    });
    let ids = probe.validator_ids();
    probe.configure_governance(
        &ids[..1],
        [Upgrade::BaseFee(stellar::ledger::amount::BASE_FEE)].into(),
    );
    // Desired == current params: nothing proposed.
    assert_no_violations(&probe.run().violations);
    for id in probe.validator_ids() {
        assert_eq!(
            probe.validator(id).herder.header.params.base_fee,
            stellar::ledger::amount::BASE_FEE
        );
    }
}
