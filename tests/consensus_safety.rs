//! Cross-crate integration tests: SCP safety and liveness through the full
//! validator stack (paper §3).
//!
//! Safety here means what the paper means: no two intertwined nodes ever
//! externalize different values for the same slot, no matter the faults we
//! inject.

use std::collections::BTreeSet;
use stellar::crypto::sign::KeyPair;
use stellar::scp::statement::{Ballot, Statement, StatementKind};
use stellar::scp::test_harness::{harness_keys, InMemoryNetwork};
use stellar::scp::{Envelope, NodeId, QuorumSet, Rejection, ScpEvent, Value};

fn ids(n: u32) -> Vec<NodeId> {
    (0..n).map(NodeId).collect()
}

fn val(s: &str) -> Value {
    Value::new(s.as_bytes().to_vec())
}

#[test]
fn agreement_across_sizes_and_slots() {
    for n in [4u32, 7, 10] {
        let nodes = ids(n);
        let qset = QuorumSet::byzantine(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, u64::from(n));
        for slot in 1..=3u64 {
            for (i, node) in nodes.iter().enumerate() {
                net.propose(*node, slot, val(&format!("s{slot}-proposal{i}")));
            }
            let decided = net.run_to_quiescence(slot);
            assert_eq!(decided.len(), n as usize, "n={n} slot={slot}");
            let distinct: BTreeSet<_> = decided.values().collect();
            assert_eq!(distinct.len(), 1, "n={n} slot={slot}: divergent decisions");
        }
    }
}

#[test]
fn safety_under_crash_quorum_boundary() {
    // 7 nodes, threshold 5 (f=2): any 2 crashes tolerated, 3 crashes block.
    let nodes = ids(7);
    let qset = QuorumSet::byzantine(nodes.clone());

    let mut net = InMemoryNetwork::new(&nodes, &qset, 1);
    net.crash(NodeId(5));
    net.crash(NodeId(6));
    for node in &nodes[..5] {
        net.propose(*node, 1, val("v"));
    }
    assert_eq!(net.run_to_quiescence(1).len(), 5, "two crashes tolerated");

    let mut net = InMemoryNetwork::new(&nodes, &qset, 2);
    net.crash(NodeId(4));
    net.crash(NodeId(5));
    net.crash(NodeId(6));
    for node in &nodes[..4] {
        net.propose(*node, 1, val("v"));
    }
    assert!(
        net.run_to_quiescence(1).is_empty(),
        "three crashes must block (no quorum)"
    );
}

#[test]
fn late_joiner_catches_up_from_externalize_messages() {
    // Nodes 0..3 decide while node 3 is crashed; when revived and fed the
    // traffic, the Externalize statements let it accept-commit via its
    // v-blocking set.
    let nodes = ids(4);
    let qset = QuorumSet::majority(nodes.clone());
    let mut net = InMemoryNetwork::new(&nodes, &qset, 3);
    net.crash(NodeId(3));
    for node in &nodes[..3] {
        net.propose(*node, 1, val("ledger-1"));
    }
    let decided = net.run_to_quiescence(1);
    assert_eq!(decided.len(), 3);

    net.revive(NodeId(3));
    // Replay the survivors' final statements to the rejoined node.
    let mut finals: Vec<Envelope> = Vec::new();
    for node in &nodes[..3] {
        let scp = net.node(*node);
        if let Some(slot) = scp.slot(1) {
            for st in slot.own_statements(*node) {
                finals.push(Envelope::sign(st, &harness_keys(3, *node)));
            }
        }
    }
    for env in &finals {
        net.inject(env);
    }
    let decided = net.decisions(1);
    assert_eq!(decided.len(), 4, "revived node must adopt the decision");
    let distinct: BTreeSet<_> = decided.values().collect();
    assert_eq!(distinct.len(), 1);
}

#[test]
fn forged_envelopes_are_rejected() {
    let nodes = ids(4);
    let qset = QuorumSet::majority(nodes.clone());
    let mut net = InMemoryNetwork::new(&nodes, &qset, 4);
    for node in &nodes {
        net.propose(*node, 1, val("good"));
    }
    // An attacker signs with the wrong key, claiming to be node 0.
    let attacker_keys = KeyPair::from_seed(0xE711);
    let forged = Envelope::sign(
        Statement {
            node: NodeId(0),
            slot: 1,
            quorum_set: qset.clone(),
            kind: StatementKind::Externalize {
                commit: Ballot::new(1, val("evil")),
                h_n: 1,
            },
        },
        &attacker_keys,
    );
    net.inject(&forged);
    let decided = net.run_to_quiescence(1);
    let distinct: BTreeSet<_> = decided.values().collect();
    assert_eq!(distinct.len(), 1);
    assert_ne!(*distinct.iter().next().unwrap(), &val("evil"));
    let forgery = ScpEvent::EnvelopeRejected {
        from: NodeId(0),
        reason: Rejection::BadSignature,
    };
    for node in &nodes[1..] {
        assert!(
            net.driver(*node).events.contains(&forgery),
            "forgery must be reported"
        );
    }
}

#[test]
fn equivocating_byzantine_node_cannot_split_intertwined_majority() {
    // Node 3 is Byzantine: it sends different nominate votes to different…
    // the harness floods, so instead we model the strongest cheap attack:
    // injecting contradictory *signed* statements from node 3 (it owns its
    // key). Intertwined honest nodes must still agree.
    let nodes = ids(4);
    let qset = QuorumSet::byzantine(nodes.clone()); // 3-of-4
    let mut net = InMemoryNetwork::new(&nodes, &qset, 5);
    net.crash(NodeId(3)); // silence the honest instance of node 3
    for node in &nodes[..3] {
        net.propose(*node, 1, val("honest"));
    }
    // Byzantine node 3 shouts two contradictory externalizes.
    for evil in ["evil-a", "evil-b"] {
        let env = Envelope::sign(
            Statement {
                node: NodeId(3),
                slot: 1,
                quorum_set: qset.clone(),
                kind: StatementKind::Externalize {
                    commit: Ballot::new(1, val(evil)),
                    h_n: 1,
                },
            },
            &harness_keys(5, NodeId(3)),
        );
        net.inject(&env);
    }
    let decided = net.run_to_quiescence(1);
    let distinct: BTreeSet<_> = decided.values().collect();
    assert_eq!(distinct.len(), 1, "honest nodes diverged: {decided:?}");
}

#[test]
fn heterogeneous_slices_intertwined_agreement() {
    // Tiered config: each of 3 orgs × 3 nodes requires 2-of-3 orgs, each
    // org at 2-of-3 — heterogeneity comes from nodes evaluating their own
    // nested structures.
    let all = ids(9);
    let orgs: Vec<QuorumSet> = (0..3)
        .map(|o| QuorumSet::threshold_of(2, all[o * 3..o * 3 + 3].to_vec()))
        .collect();
    let tiered = QuorumSet {
        threshold: 2,
        validators: vec![],
        inner: orgs,
    };
    let mut net = InMemoryNetwork::new(&all, &tiered, 6);
    for (i, node) in all.iter().enumerate() {
        net.propose(*node, 1, val(&format!("p{i}")));
    }
    let decided = net.run_to_quiescence(1);
    assert_eq!(decided.len(), 9);
    let distinct: BTreeSet<_> = decided.values().collect();
    assert_eq!(distinct.len(), 1);
}

#[test]
fn disjoint_islands_can_diverge_without_intertwining() {
    // The FBA caveat (§3.1): two configurations that never reference each
    // other are separate intact sets and may decide differently. This is
    // by design, not a bug — "divergence, but only between organizations
    // neither of which requires agreement with the other."
    let island_a = ids(3);
    let island_b: Vec<NodeId> = (10..13).map(NodeId).collect();
    let qa = QuorumSet::majority(island_a.clone());
    let qb = QuorumSet::majority(island_b.clone());
    let mut config: Vec<(NodeId, QuorumSet)> = island_a.iter().map(|n| (*n, qa.clone())).collect();
    config.extend(island_b.iter().map(|n| (*n, qb.clone())));
    let mut net = InMemoryNetwork::with_qsets(config, 7);
    for n in &island_a {
        net.propose(*n, 1, val("chain-a"));
    }
    for n in &island_b {
        net.propose(*n, 1, val("chain-b"));
    }
    let decided = net.run_to_quiescence(1);
    assert_eq!(decided.len(), 6);
    assert_eq!(decided[&NodeId(0)], val("chain-a"));
    assert_eq!(decided[&NodeId(10)], val("chain-b"));
}
