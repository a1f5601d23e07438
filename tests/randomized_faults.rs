//! Randomized fault-schedule testing: SCP safety must hold under every
//! crash pattern; liveness must hold exactly when a quorum of the
//! configuration survives (paper §3.1).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use stellar::scp::test_harness::InMemoryNetwork;
use stellar::scp::{NodeId, QuorumSet, Value};

#[test]
fn random_crash_schedules_preserve_safety_and_conditional_liveness() {
    let mut rng = StdRng::seed_from_u64(2024);
    for trial in 0..25u64 {
        let n = rng.gen_range(4..9u32);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let qset = QuorumSet::byzantine(nodes.clone());
        let f = (n as usize - 1) / 3;
        let crash_count = rng.gen_range(0..n as usize);
        let mut shuffled = nodes.clone();
        shuffled.shuffle(&mut rng);
        let crashed: BTreeSet<NodeId> = shuffled[..crash_count].iter().copied().collect();

        let mut net = InMemoryNetwork::new(&nodes, &qset, 7000 + trial);
        for c in &crashed {
            net.crash(*c);
        }
        for (i, node) in nodes.iter().enumerate() {
            net.propose(*node, 1, Value::new(format!("t{trial}-p{i}").into_bytes()));
        }
        let decided = net.run_to_quiescence(1);

        // SAFETY: all deciders agree, always.
        let distinct: BTreeSet<_> = decided.values().collect();
        assert!(
            distinct.len() <= 1,
            "trial {trial}: divergent decisions with {crash_count}/{n} crashed"
        );

        // LIVENESS: with ≤ f crashes every live node decides; beyond the
        // quorum boundary (> n - threshold crashes) nobody can.
        let live = n as usize - crash_count;
        if crash_count <= f {
            assert_eq!(
                decided.len(),
                live,
                "trial {trial}: f-bounded crashes must not block"
            );
        }
        if (live as u32) < qset.threshold {
            assert!(
                decided.is_empty(),
                "trial {trial}: no quorum possible yet someone decided"
            );
        }
    }
}

#[test]
fn random_proposal_sets_always_converge_to_a_proposed_value() {
    // Validity: the decision must be one of the proposed values (SCP is
    // not allowed to invent values).
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..10u64 {
        let n = rng.gen_range(4..8u32);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let qset = QuorumSet::majority(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, 8000 + trial);
        let mut proposals = BTreeSet::new();
        for (i, node) in nodes.iter().enumerate() {
            let v = Value::new(format!("t{trial}-v{}", i % 3).into_bytes());
            proposals.insert(v.clone());
            net.propose(*node, 1, v);
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(decided.len(), n as usize, "trial {trial}");
        for v in decided.values() {
            assert!(
                proposals.contains(v),
                "trial {trial}: decided a never-proposed value"
            );
        }
    }
}

#[test]
fn staggered_proposals_still_agree() {
    // Nodes that propose late (after others already made progress) must
    // converge onto the same decision rather than forking the slot.
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let qset = QuorumSet::majority(nodes.clone());
    let mut net = InMemoryNetwork::new(&nodes, &qset, 31);
    // First three propose and exchange messages.
    for node in &nodes[..3] {
        net.propose(*node, 1, Value::new(b"early".to_vec()));
    }
    net.flood();
    // Stragglers join with a different value.
    for node in &nodes[3..] {
        net.propose(*node, 1, Value::new(b"late".to_vec()));
    }
    let decided = net.run_to_quiescence(1);
    assert_eq!(decided.len(), 5);
    let distinct: BTreeSet<_> = decided.values().collect();
    assert_eq!(distinct.len(), 1);
}

#[test]
fn random_tiered_topologies_agree() {
    // Random org counts / sizes with synthesized Fig. 6 quorum sets:
    // every intact configuration must agree on one value per slot.
    use stellar::quorum::tiers::{synthesize_all, OrgConfig, Quality};
    let mut rng = StdRng::seed_from_u64(777);
    for trial in 0..8u64 {
        let n_orgs = rng.gen_range(3..6u32);
        let per_org = rng.gen_range(2..4u32);
        let mut next = 0u32;
        let orgs: Vec<OrgConfig> = (0..n_orgs)
            .map(|o| {
                let members: Vec<NodeId> = (next..next + per_org).map(NodeId).collect();
                next += per_org;
                OrgConfig::new(&format!("org{o}"), members, Quality::High)
            })
            .collect();
        let qsets = synthesize_all(&orgs);
        let nodes: Vec<NodeId> = qsets.iter().map(|(n, _)| *n).collect();
        let mut net = InMemoryNetwork::with_qsets(qsets, 9000 + trial);
        for (i, node) in nodes.iter().enumerate() {
            net.propose(
                *node,
                1,
                Value::new(format!("t{trial}-v{}", i % 2).into_bytes()),
            );
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(
            decided.len(),
            nodes.len(),
            "trial {trial} ({n_orgs}×{per_org}): all nodes must decide"
        );
        let distinct: BTreeSet<_> = decided.values().collect();
        assert_eq!(distinct.len(), 1, "trial {trial}: tiered config diverged");
    }
}

#[test]
fn random_chaos_cocktails_keep_intact_quorums_clean() {
    // End-to-end version of the schedule tests above, through the chaos
    // subsystem: random mixes of healing partitions, crash/revive,
    // lossy links, and Byzantine puppets (all within the `f` the n−f
    // slices tolerate) on the full simulator. The invariant monitor
    // must stay clean — identical externalized values and ledger hashes
    // on every intact node, no liveness stall — in every trial.
    use stellar::chaos::{ChaosConfig, ChaosRun, FaultSchedule, Strategy};
    use stellar::overlay::LinkFault;
    use stellar::sim::scenario::Scenario;
    use stellar::sim::SimConfig;

    let strategies = [
        Strategy::EquivocateNomination,
        Strategy::SplitConfirm,
        Strategy::ReplayStale,
        Strategy::Silent,
    ];
    let mut rng = StdRng::seed_from_u64(0xC0C7);
    for trial in 0..25u64 {
        let n = rng.gen_range(5..8u32);
        let f = (n - 1) / 3;
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let k = rng.gen_range(0..=f);
        let adversaries: Vec<(NodeId, Strategy)> = (0..k)
            .map(|i| {
                let s = strategies[rng.gen_range(0..strategies.len())];
                (ids[(n - 1 - i) as usize], s)
            })
            .collect();
        let mut faults = FaultSchedule::builder();
        if rng.gen_bool(0.5) {
            faults = faults.default_link_fault_at(
                1_000,
                LinkFault::none()
                    .with_drop(rng.gen_range(0.0..0.12))
                    .with_delay(0.25, 10, 60),
            );
        }
        // Either a healing partition of the honest nodes or one
        // crash/revive — either way the ill set stays within f.
        if rng.gen_bool(0.5) {
            let honest: Vec<NodeId> = ids[..(n - k) as usize].to_vec();
            let cut = rng.gen_range(1..honest.len());
            let groups = vec![honest[..cut].to_vec(), honest[cut..].to_vec()];
            faults = faults.partition_at(8_000, groups, Some(28_000));
        } else if k < f {
            let victim = ids[rng.gen_range(0..(n - k)) as usize];
            faults = faults.crash_at(6_000, victim).revive_at(20_000, victim);
        }
        let target_ledgers = 3;
        let report = ChaosRun::new(ChaosConfig {
            sim: SimConfig {
                scenario: Scenario::ByzantineMesh { n_validators: n },
                n_accounts: 40,
                tx_rate: 2.0,
                target_ledgers,
                seed: 0x51E11A + trial,
                max_sim_time_ms: 180_000,
                ..SimConfig::default()
            },
            adversaries,
            schedule: faults.build(),
            liveness_bound_ms: 60_000,
            ..ChaosConfig::default()
        })
        .run();

        assert!(
            !report.intact.is_empty(),
            "trial {trial}: n={n} k={k} left nobody intact"
        );
        assert!(
            report.violations.is_empty(),
            "trial {trial}: n={n} k={k} violations: {:?}",
            report.violations
        );
        let puppets: BTreeSet<NodeId> = ids[(n - k) as usize..].iter().copied().collect();
        for (id, seq) in &report.final_seqs {
            if !puppets.contains(id) {
                assert!(
                    *seq > target_ledgers,
                    "trial {trial}: {id:?} stuck at seq {seq}"
                );
            }
        }
    }
}

#[test]
fn message_complexity_stays_linear_in_quorum_rounds() {
    // §7.2: ~7 logical broadcasts per node per slot in the normal case.
    // The harness floods synchronously, so count delivered envelopes and
    // check they stay within a small constant factor of n².
    for n in [4u32, 7, 10] {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let qset = QuorumSet::majority(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, u64::from(n) + 40);
        for node in &nodes {
            net.propose(*node, 1, Value::new(b"v".to_vec()));
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(decided.len(), n as usize);
        let per_node_broadcasts = net.delivered as f64 / f64::from(n) / f64::from(n - 1);
        assert!(
            per_node_broadcasts < 20.0,
            "n={n}: {per_node_broadcasts:.1} broadcasts/node — message blow-up"
        );
    }
}
