//! Federated leader selection for nomination (paper §3.2.5).
//!
//! Round-robin leader rotation is impossible with open membership, so SCP
//! picks nomination leaders probabilistically, weighted by how much of a
//! node's quorum slices a candidate appears in:
//!
//! * `weight(u, v)` — the fraction of `u`'s slices containing `v`;
//! * `neighbors(u)` — `{ v | H0(v) < hmax · weight(u, v) }`, so heavily
//!   trusted nodes are (probabilistically) eligible and a node running
//!   1,000 validators gains no advantage over one running 4 (the paper's
//!   Europe/China example);
//! * `priority(v) = H1(v)` — the per-round lottery among neighbors.
//!
//! Each round adds the highest-priority neighbor to the leader set, so
//! leader failure is healed by timeout-driven round advancement. The hash
//! family is `Hi(m) = SHA256(i ∥ slot ∥ round ∥ m)` exactly as in the
//! paper, with the 2²⁵⁶ range mapped to `u64` prefixes.

use crate::{NodeId, QuorumSet, SlotIndex};
use std::collections::BTreeSet;
use stellar_crypto::hash_concat;

/// `Hi(node)` from the paper, reduced to a `u64`: SHA-256 over
/// `(i, slot, round, node)`.
fn h(i: u8, slot: SlotIndex, round: u32, node: NodeId) -> u64 {
    hash_concat(&[
        &[i],
        &slot.to_be_bytes(),
        &round.to_be_bytes(),
        &node.0.to_be_bytes(),
    ])
    .prefix_u64()
}

/// `weight(u, v)` where `u` owns `qset`: the fraction of `u`'s slices
/// containing `v`. A node always fully trusts itself (`weight = 1`).
fn node_weight(self_id: NodeId, qset: &QuorumSet, v: NodeId) -> f64 {
    if v == self_id {
        1.0
    } else {
        qset.weight(v)
    }
}

/// Tests `H0(v) < hmax · weight(u, v)`: is `v` one of `u`'s neighbors for
/// this `(slot, round)`?
fn is_neighbor(self_id: NodeId, qset: &QuorumSet, slot: SlotIndex, round: u32, v: NodeId) -> bool {
    let w = node_weight(self_id, qset, v);
    if w <= 0.0 {
        return false;
    }
    // hmax = 2⁶⁴ here; compare in f64, which is exact enough for a lottery.
    (h(0, slot, round, v) as f64) < w * (u64::MAX as f64)
}

/// `priority(v) = H1(v)` for this `(slot, round)`.
pub fn priority(slot: SlotIndex, round: u32, v: NodeId) -> u64 {
    h(1, slot, round, v)
}

/// The candidate pool for leader selection: every validator named in the
/// quorum set, plus the node itself.
fn candidate_pool(self_id: NodeId, qset: &QuorumSet) -> BTreeSet<NodeId> {
    let mut pool = qset.all_validators();
    pool.insert(self_id);
    pool
}

/// Picks the leader added in `round`: the highest-priority neighbor, or —
/// if the neighbor lottery came up empty — the node minimizing
/// `H0(v) / weight(u, v)` (the paper's fallback).
pub fn round_leader(self_id: NodeId, qset: &QuorumSet, slot: SlotIndex, round: u32) -> NodeId {
    let pool = candidate_pool(self_id, qset);
    let neighbors: Vec<NodeId> = pool
        .iter()
        .copied()
        .filter(|v| is_neighbor(self_id, qset, slot, round, *v))
        .collect();
    if let Some(best) = neighbors
        .iter()
        .copied()
        .max_by_key(|v| (priority(slot, round, *v), *v))
    {
        return best;
    }
    // Fallback: minimize H0(v)/weight(u,v) over nodes with positive weight.
    pool.iter()
        .copied()
        .filter(|v| node_weight(self_id, qset, *v) > 0.0)
        .min_by(|a, b| {
            let ka = h(0, slot, round, *a) as f64 / node_weight(self_id, qset, *a);
            let kb = h(0, slot, round, *b) as f64 / node_weight(self_id, qset, *b);
            ka.partial_cmp(&kb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        })
        .unwrap_or(self_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn self_is_always_full_weight() {
        let q = QuorumSet::threshold_of(2, ids(&[1, 2, 3]));
        assert_eq!(node_weight(NodeId(0), &q, NodeId(0)), 1.0);
        assert!(node_weight(NodeId(0), &q, NodeId(1)) < 1.0);
        assert_eq!(node_weight(NodeId(0), &q, NodeId(99)), 0.0);
    }

    #[test]
    fn round_leader_is_deterministic_and_in_pool() {
        let q = QuorumSet::threshold_of(3, ids(&[0, 1, 2, 3]));
        let pool = candidate_pool(NodeId(0), &q);
        for round in 1..20 {
            let l1 = round_leader(NodeId(0), &q, 7, round);
            let l2 = round_leader(NodeId(0), &q, 7, round);
            assert_eq!(l1, l2);
            assert!(pool.contains(&l1));
        }
    }

    #[test]
    fn identical_qsets_agree_on_leaders() {
        // Nodes sharing the same slot/round/qset compute overlapping leader
        // choices for nodes they both weight equally — with a full-mesh
        // symmetric qset the leader is identical across nodes except for
        // the self-weight boost; verify the common case where the elected
        // leader is weighted 3/4 for everyone.
        let all = ids(&[0, 1, 2, 3]);
        let q = QuorumSet::threshold_of(3, all.clone());
        // Count distinct per-node leader picks; they should rarely diverge.
        let mut distinct: BTreeSet<NodeId> = BTreeSet::new();
        for me in &all {
            distinct.insert(round_leader(*me, &q, 11, 1));
        }
        assert!(
            distinct.len() <= 2,
            "leader choice should mostly coincide: {distinct:?}"
        );
    }

    #[test]
    fn different_slots_rotate_leaders() {
        let q = QuorumSet::threshold_of(4, ids(&[0, 1, 2, 3, 4, 5, 6]));
        let mut seen = BTreeSet::new();
        for slot in 0..50 {
            seen.insert(round_leader(NodeId(0), &q, slot, 1));
        }
        assert!(
            seen.len() > 2,
            "leader should rotate across slots, got {seen:?}"
        );
    }

    #[test]
    fn weight_zero_nodes_never_lead() {
        let q = QuorumSet::threshold_of(1, ids(&[1]));
        for slot in 0..50 {
            let l = round_leader(NodeId(0), &q, slot, 1);
            assert!(l == NodeId(0) || l == NodeId(1));
        }
    }
}
