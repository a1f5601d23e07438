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
//!
//! A transaction set crosses the network only when SCP names it: a
//! validator floods its proposal once its own envelope votes for it, and
//! a fault-free run never has to fetch a set.

use std::collections::{BTreeMap, BTreeSet};
use stellar::crypto::codec::Decode;
use stellar::crypto::Hash256;
use stellar::herder::herder::scp_record_key;
use stellar::herder::StellarValue;
use stellar::overlay::{FloodMode, MsgKind, TrafficStats};
use stellar::scp::{Envelope, NodeId};
use stellar::sim::events::TraceEntry;
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

#[test]
fn a_tx_set_crosses_the_network_only_when_an_envelope_names_it() {
    let n = 16;
    for mode in [FloodMode::Push, FloodMode::Pull] {
        let mut sim = Simulation::new(SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: n },
            n_accounts: 1_000,
            tx_rate: 100.0,
            target_ledgers: 3,
            seed: 0x5E7,
            flood_mode: mode,
            ..SimConfig::default()
        });
        sim.enable_trace();
        let report = sim.run();
        assert!(
            report.ledgers.len() >= 3,
            "{mode:?}: closed too few ledgers"
        );

        // Every set a validator proposed or learned, and the sets named by
        // the envelopes each one emitted: its write-ahead records are the
        // envelopes it sent, and in this short run no slot has left the
        // window yet, so nothing was pruned.
        let mut sets = BTreeSet::new();
        let mut named: BTreeMap<NodeId, BTreeSet<Hash256>> = BTreeMap::new();
        for id in sim.validator_ids() {
            let herder = &sim.validator(id).herder;
            assert_eq!(
                herder.telemetry.registry.counter("herder.tx_sets_pruned"),
                0
            );
            sets.extend(herder.known_tx_sets.keys().copied());
            for slot in 1..=herder.current_slot() {
                for nomination in [true, false] {
                    let Some(bytes) = herder.persist.read(&scp_record_key(slot, nomination)) else {
                        continue;
                    };
                    let env = Envelope::from_bytes(&bytes).expect("a record");
                    let values = env.statement.kind.values().into_iter();
                    let sets = values.filter_map(|v| StellarValue::from_scp(&v));
                    named
                        .entry(id)
                        .or_default()
                        .extend(sets.map(|v| v.tx_set_hash));
                }
            }
        }

        // A node that sends a set no later than it first receives one
        // originated it; a relay's copy lands after its own receipt.
        let delivered = sim.trace().iter().filter_map(|e| match e {
            TraceEntry::Deliver {
                time,
                from,
                to,
                msg_id,
            } if sets.contains(msg_id) => Some((*time, *from, *to, *msg_id)),
            _ => None,
        });
        let delivered: Vec<_> = delivered.collect();
        let mut first_in = BTreeMap::new();
        for (time, _, to, set) in &delivered {
            first_in.entry((*to, *set)).or_insert(*time);
        }
        let mut originated = BTreeSet::new();
        for (time, from, _, set) in &delivered {
            if *time <= first_in.get(&(*from, *set)).copied().unwrap_or(u64::MAX) {
                originated.insert((*from, *set));
            }
        }
        assert!(
            !originated.is_empty(),
            "{mode:?}: no set crossed the network"
        );
        for (node, set) in &originated {
            let own = named.get(node).is_some_and(|n| n.contains(set));
            assert!(
                own,
                "{mode:?}: {node:?} flooded a set none of its envelopes named"
            );
        }

        let mut net = TrafficStats::default();
        for t in report.traffic.values() {
            net.merge(t);
        }
        assert_eq!(
            net.set_demands, 0,
            "{mode:?}: a fault-free run fetched a set"
        );
        println!(
            "{mode:?}: {} sets known, {} originations; TxSet {} B of {} B sent",
            sets.len(),
            originated.len(),
            net.out_bytes(MsgKind::TxSet),
            net.bytes_out
        );
    }
}
