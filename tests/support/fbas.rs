//! Random federated Byzantine agreement systems for property tests: the
//! quorum-kernel proptests (`tests/proptests.rs`) and SCP's differential
//! test of its incremental evaluator (`crates/scp/src/differential.rs`)
//! draw from the same systems. The including module must have `NodeId`
//! and `QuorumSet` in scope.

use super::{NodeId, QuorumSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Each declaring node's quorum set.
pub(crate) type Fbas = BTreeMap<NodeId, QuorumSet>;

/// A well-formed quorum set over nodes `0..universe`, nested up to
/// `depth` more levels.
pub(crate) fn random_qset(rng: &mut StdRng, universe: u32, depth: u32) -> QuorumSet {
    let mut pool: Vec<NodeId> = (0..universe).map(NodeId).collect();
    pool.shuffle(rng);
    pool.truncate(rng.gen_range(0..=4usize.min(pool.len())));
    let inner: Vec<QuorumSet> = (0..if depth > 0 { rng.gen_range(0..=2) } else { 0 })
        .map(|_| random_qset(rng, universe, depth - 1))
        .collect();
    if pool.is_empty() && inner.is_empty() {
        pool.push(NodeId(rng.gen_range(0..universe)));
    }
    let entries = (pool.len() + inner.len()) as u32;
    QuorumSet {
        threshold: rng.gen_range(1..=entries),
        validators: pool,
        inner,
    }
}

/// Up to 12 nodes; the first `declared` declare a quorum set, the
/// rest are only ever named in someone else's.
pub(crate) fn random_fbas(rng: &mut StdRng) -> (Fbas, u32) {
    let universe = rng.gen_range(2..=12u32);
    let declared = rng.gen_range(1..=universe);
    let fbas = (0..declared)
        .map(|i| (NodeId(i), random_qset(rng, universe, 2)))
        .collect();
    (fbas, universe)
}
