//! Same-verdict golden digest for the quorum-intersection checker.
//!
//! Reworking the checker's evaluation kernel must leave everything it
//! reports untouched: the verdict, the two witness quorums of a split and
//! every `CheckStats` counter (branches, prune checks, memo hits — these
//! pin the search order, not just its outcome). The systems below are
//! reduced to one SHA-256 over all of that and pinned; the constant was
//! recorded at the commit before the checker moved onto the shared
//! `stellar_scp::quorum` kernel.

use std::collections::BTreeSet;
use stellar::crypto::hex;
use stellar::crypto::sha256::Sha256;
use stellar::quorum::{
    find_disjoint_quorums_with, generate, FbaSystem, IntersectionResult, TopologyFamily,
    TopologySpec,
};
use stellar::scp::{NodeId, QuorumSet};

fn put(h: &mut Sha256, n: u64) {
    h.update(&n.to_be_bytes());
}

fn put_set(h: &mut Sha256, set: &BTreeSet<NodeId>) {
    put(h, set.len() as u64);
    for id in set {
        put(h, u64::from(id.0));
    }
}

fn ids(v: &[u32]) -> Vec<NodeId> {
    v.iter().map(|&i| NodeId(i)).collect()
}

/// The systems under test: every topology family at two sizes and two
/// seeds, then two hand-built systems that split — one by the SCC rule,
/// one only by the partition search — and one the search must exhaust.
fn systems() -> Vec<FbaSystem> {
    let mut out = Vec::new();
    for family in [
        TopologyFamily::Uniform,
        TopologyFamily::TierWeighted,
        TopologyFamily::ScaleFree,
    ] {
        for n_orgs in [6, 30] {
            for seed in [1, 2] {
                out.push(generate(&TopologySpec::new(family, n_orgs, 3, seed)).system);
            }
        }
    }
    // Two cliques that never reference each other.
    let islands = (0..6u32).map(|i| {
        let clique = if i < 3 { [0, 1, 2] } else { [3, 4, 5] };
        (NodeId(i), QuorumSet::majority(ids(&clique)))
    });
    out.push(FbaSystem::new(islands));
    // One strongly connected, asymmetric system: even nodes need any 2 of
    // the six, odd nodes any 3, so {0, 2} and {1, 3, 4, 5} are disjoint
    // quorums that neither the SCC rule nor the closed form can see.
    let all = ids(&[0, 1, 2, 3, 4, 5]);
    let mixed = (0..6u32).map(|i| (NodeId(i), QuorumSet::threshold_of(2 + i % 2, all.clone())));
    out.push(FbaSystem::new(mixed));
    // The same shape at 4-of-6 / 5-of-6 intersects, so the search runs to
    // exhaustion.
    let tight = (0..6u32).map(|i| (NodeId(i), QuorumSet::threshold_of(4 + i % 2, all.clone())));
    out.push(FbaSystem::new(tight));
    out
}

#[test]
fn checker_verdicts_witnesses_and_stats_are_pinned() {
    let mut h = Sha256::new();
    let mut splits = 0;
    let mut searched = 0;
    for sys in systems() {
        let (result, stats) = find_disjoint_quorums_with(&sys);
        searched += usize::from(stats.branches > 0);
        match &result {
            IntersectionResult::Intersecting => h.update(b"I"),
            IntersectionResult::NoQuorum => h.update(b"N"),
            IntersectionResult::Disjoint(a, b) => {
                splits += 1;
                h.update(b"D");
                put_set(&mut h, a);
                put_set(&mut h, b);
            }
        }
        for n in [
            stats.nodes as u64,
            stats.core_nodes as u64,
            stats.scc_count as u64,
            stats.domain_nodes as u64,
            stats.branches,
            stats.prune_checks,
            stats.memo_hits,
            u64::from(stats.symmetric),
        ] {
            put(&mut h, n);
        }
    }
    assert!(splits >= 2, "the hand-built systems split");
    assert!(searched >= 2, "some systems reach the partition search");
    assert_eq!(
        hex::encode(&h.finish().0),
        "eddbdd92b4a624665d7cd06b266fa42aa4916b7370aa0796bab5ac100af74259"
    );
}
