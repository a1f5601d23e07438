//! SCP traffic shape: a statement crosses each link once.
//!
//! Only an envelope's originator pushes it; a node relaying someone
//! else's envelope advertises its hash, and a peer that still lacks the
//! envelope demands it. On a full mesh of `n` validators every envelope
//! therefore arrives `n − 1` times from its originator, plus once per
//! demand a relay answered — never the `(n − 1)²` copies a push relay
//! would deliver. This bound holds in both flood modes and fails on a
//! return to push relay, while the validators still agree on every
//! header. Each processed envelope also costs few slice checks: quorum
//! evaluation runs only when an envelope may change a verdict.

use stellar::overlay::{FloodMode, MsgKind, TrafficStats};
use stellar::sim::scenario::Scenario;
use stellar::sim::{SimConfig, Simulation};

#[test]
fn scp_envelopes_cross_each_link_once_in_both_modes() {
    let n = 16;
    for mode in [FloodMode::Push, FloodMode::Pull] {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: n },
            n_accounts: 100,
            tx_rate: 5.0,
            target_ledgers: 3,
            seed: 0x5C9,
            flood_mode: mode,
            ..SimConfig::default()
        });
        let report = sim.run();
        assert!(
            report.ledgers.len() >= 3,
            "{mode:?}: closed too few ledgers"
        );

        let mut net = TrafficStats::default();
        for t in report.traffic.values() {
            net.merge(t);
        }
        let received = net.in_count(MsgKind::Scp);
        let bound = net.scp_originated * u64::from(n - 1) + net.pull_fulfilled;
        assert!(net.scp_originated > 0, "{mode:?}: no envelope originated");
        assert!(
            received <= bound,
            "{mode:?}: {received} SCP envelopes received, more than {} originated × {} links + {} demanded",
            net.scp_originated,
            n - 1,
            net.pull_fulfilled
        );

        let chain = sim.header_hashes(sim.observer_id());
        for id in sim.validator_ids() {
            assert_eq!(sim.header_hashes(id), chain, "{mode:?}: {id:?} diverged");
        }

        // Federated voting pays for what changed: an envelope that flips
        // no verdict is stored without an evaluation. Re-evaluating on
        // every envelope read 6.15 (push) and 6.07 (pull) slice checks
        // per processed envelope on this mesh; incremental reads 1.53 and 1.54.
        let ids = sim.validator_ids();
        let counter = |key: &str| -> u64 {
            let registry = |id| &sim.validator(id).herder.telemetry.registry;
            ids.iter().map(|id| registry(*id).counter(key)).sum()
        };
        let processed: u64 = ["nominate", "prepare", "confirm", "externalize"]
            .map(|class| counter(&format!("scp.envelope_in.{class}")))
            .iter()
            .sum();
        let per_envelope = counter("scp.slice_checks") as f64 / processed as f64;
        assert!(
            per_envelope <= 2.5,
            "{mode:?}: {per_envelope:.2} slice checks per processed envelope"
        );
    }
}
