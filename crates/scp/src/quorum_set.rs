//! Nested quorum sets: how a node declares its quorum slices.
//!
//! Stellar expresses a node's slices as a *nested quorum set* (paper §6.1):
//! a threshold `k` over `n` entries, where each entry is either a validator
//! or, recursively, another quorum set. Any choice of `k` satisfied entries
//! constitutes one quorum slice. This compact representation is what nodes
//! gossip inside every envelope, and what the quorum-intersection checker
//! in `stellar-quorum` analyzes.

use crate::NodeId;
use std::collections::BTreeSet;
use stellar_crypto::{hash_xdr, Hash256};

/// A node's declaration of its quorum slices.
///
/// `threshold` of the `validators.len() + inner.len()` entries must be
/// satisfied for a set of nodes to contain one of this node's slices.
///
/// # Examples
///
/// "Any 2 of {a, b, c}":
///
/// ```
/// use stellar_scp::{NodeId, QuorumSet};
/// let q = QuorumSet::threshold_of(2, vec![NodeId(0), NodeId(1), NodeId(2)]);
/// assert!(q.is_quorum_slice(&[NodeId(0), NodeId(1)].into()));
/// assert!(!q.is_quorum_slice(&[NodeId(0)].into()));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct QuorumSet {
    /// How many entries must be satisfied for a slice.
    pub threshold: u32,
    /// Direct validator entries.
    pub validators: Vec<NodeId>,
    /// Nested quorum-set entries (e.g. one per organization, Fig. 6).
    pub inner: Vec<QuorumSet>,
}

stellar_crypto::impl_codec_struct!(QuorumSet {
    threshold,
    validators,
    inner
});

impl QuorumSet {
    /// Builds a flat `threshold`-of-`validators` quorum set.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` exceeds the number of validators (such a set
    /// could never be satisfied and is always a configuration bug).
    pub fn threshold_of(threshold: u32, validators: Vec<NodeId>) -> QuorumSet {
        assert!(
            threshold as usize <= validators.len(),
            "threshold {} exceeds {} entries",
            threshold,
            validators.len()
        );
        QuorumSet {
            threshold,
            validators,
            inner: Vec::new(),
        }
    }

    /// Builds a simple-majority (`⌊n/2⌋+1`) quorum set over `validators`.
    pub fn majority(validators: Vec<NodeId>) -> QuorumSet {
        let t = validators.len() as u32 / 2 + 1;
        QuorumSet::threshold_of(t, validators)
    }

    /// Builds the classic BFT threshold `n - f` where `f = ⌊(n-1)/3⌋`.
    ///
    /// For `n = 3f + 1` this is the `2f + 1` threshold the paper cites for
    /// traditional closed-membership Byzantine agreement.
    pub fn byzantine(validators: Vec<NodeId>) -> QuorumSet {
        let n = validators.len() as u32;
        let f = n.saturating_sub(1) / 3;
        QuorumSet::threshold_of(n - f, validators)
    }

    /// Number of entries (validators plus inner sets).
    pub fn num_entries(&self) -> usize {
        self.validators.len() + self.inner.len()
    }

    /// Content hash of the quorum set (used to identify qsets on the wire).
    pub fn hash(&self) -> Hash256 {
        hash_xdr(self)
    }

    /// Tests whether `nodes` contains one of this set's slices: at least
    /// `threshold` entries are satisfied.
    ///
    /// This and [`QuorumSet::is_v_blocking`] are the definitions, written
    /// plainly; protocol and checker evaluate the compiled form in
    /// [`crate::quorum`], and the property tests hold the two equal.
    pub fn is_quorum_slice(&self, nodes: &BTreeSet<NodeId>) -> bool {
        let satisfied = self.validators.iter().filter(|v| nodes.contains(v)).count()
            + self
                .inner
                .iter()
                .filter(|q| q.is_quorum_slice(nodes))
                .count();
        satisfied >= self.threshold as usize
    }

    /// Tests whether `nodes` is **v-blocking** for the node owning this
    /// quorum set: it intersects every one of its slices.
    ///
    /// A set blocks when it hits more than `n - threshold` entries, since
    /// only `n - threshold` entries may be lost while still leaving a slice.
    /// A threshold of 0 means "satisfied by anything": nothing blocks it.
    pub fn is_v_blocking(&self, nodes: &BTreeSet<NodeId>) -> bool {
        let blocked = self.validators.iter().filter(|v| nodes.contains(v)).count()
            + self.inner.iter().filter(|q| q.is_v_blocking(nodes)).count();
        self.threshold > 0 && blocked + self.threshold as usize > self.num_entries()
    }

    /// Fraction of this set's quorum slices that contain `v` (paper §3.2.5).
    ///
    /// Computed compositionally: a direct validator entry appears in
    /// `threshold / n` of the slices; membership via an inner set multiplies
    /// by the inner fraction. Returns a value in `[0, 1]`.
    pub fn weight(&self, v: NodeId) -> f64 {
        let n = self.num_entries() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let frac = self.threshold as f64 / n;
        for validator in &self.validators {
            if *validator == v {
                return frac;
            }
        }
        for q in &self.inner {
            let w = q.weight(v);
            if w > 0.0 {
                return frac * w;
            }
        }
        0.0
    }

    /// All validators mentioned anywhere in the nested structure.
    pub fn all_validators(&self) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        self.collect_validators(&mut out);
        out
    }

    fn collect_validators(&self, out: &mut BTreeSet<NodeId>) {
        out.extend(self.validators.iter().copied());
        for q in &self.inner {
            q.collect_validators(out);
        }
    }

    /// Structural sanity check: thresholds within range at every level and
    /// at least one entry wherever a threshold demands one.
    pub fn is_well_formed(&self) -> bool {
        if self.threshold == 0 || self.threshold as usize > self.num_entries() {
            return false;
        }
        self.inner.iter().all(QuorumSet::is_well_formed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn set(v: &[u32]) -> BTreeSet<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn flat_slice_checks() {
        let q = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        assert!(q.is_quorum_slice(&set(&[0, 1])));
        assert!(q.is_quorum_slice(&set(&[0, 1, 2])));
        assert!(!q.is_quorum_slice(&set(&[2])));
        assert!(!q.is_quorum_slice(&set(&[])));
    }

    #[test]
    fn flat_v_blocking() {
        // 2-of-3: lose 2 entries and no slice survives, so any 2 block.
        let q = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        assert!(q.is_v_blocking(&set(&[0, 1])));
        assert!(!q.is_v_blocking(&set(&[0])));
        // 3-of-3: a single node blocks.
        let q3 = QuorumSet::threshold_of(3, ids(&[0, 1, 2]));
        assert!(q3.is_v_blocking(&set(&[1])));
    }

    #[test]
    fn nested_org_structure() {
        // The paper's canonical example: agreement with 2 organizations,
        // each an inner 2-of-3 set; require both orgs.
        let org_a = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let org_b = QuorumSet::threshold_of(2, ids(&[3, 4, 5]));
        let q = QuorumSet {
            threshold: 2,
            validators: vec![],
            inner: vec![org_a, org_b],
        };
        assert!(q.is_quorum_slice(&set(&[0, 1, 3, 4])));
        assert!(!q.is_quorum_slice(&set(&[0, 1, 2]))); // only one org
                                                       // Two nodes of one org block (org can no longer reach 2-of-3 …
                                                       // actually blocking needs to hit *every* slice: 2 nodes of org A
                                                       // block org A, and since both orgs are required, that blocks all).
        assert!(q.is_v_blocking(&set(&[0, 1])));
        assert!(!q.is_v_blocking(&set(&[0, 3])));
    }

    #[test]
    fn weight_flat_and_nested() {
        let q = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        assert!((q.weight(NodeId(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.weight(NodeId(9)), 0.0);

        let org_a = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let nested = QuorumSet {
            threshold: 1,
            validators: vec![NodeId(7)],
            inner: vec![org_a],
        };
        // Entry fraction 1/2, times inner 2/3.
        assert!((nested.weight(NodeId(0)) - 0.5 * 2.0 / 3.0).abs() < 1e-12);
        assert!((nested.weight(NodeId(7)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byzantine_threshold() {
        let q = QuorumSet::byzantine(ids(&[0, 1, 2, 3]));
        assert_eq!(q.threshold, 3); // n=4 → f=1 → 2f+1=3
        let q7 = QuorumSet::byzantine(ids(&[0, 1, 2, 3, 4, 5, 6]));
        assert_eq!(q7.threshold, 5); // n=7 → f=2 → 5
    }

    #[test]
    fn well_formedness() {
        assert!(QuorumSet::threshold_of(1, ids(&[0])).is_well_formed());
        let zero = QuorumSet {
            threshold: 0,
            validators: vec![NodeId(0)],
            inner: vec![],
        };
        assert!(!zero.is_well_formed());
        let hollow = QuorumSet {
            threshold: 1,
            validators: vec![NodeId(0)],
            inner: vec![QuorumSet {
                threshold: 5,
                validators: ids(&[1, 2]),
                inner: vec![],
            }],
        };
        assert!(!hollow.is_well_formed());
    }

    #[test]
    fn hash_distinguishes_structures() {
        let a = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let b = QuorumSet::threshold_of(3, ids(&[0, 1, 2]));
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), a.clone().hash());
    }

    #[test]
    fn codec_roundtrip() {
        use stellar_crypto::codec::{Decode, Encode};
        let org_a = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let q = QuorumSet {
            threshold: 2,
            validators: ids(&[9]),
            inner: vec![org_a],
        };
        assert_eq!(QuorumSet::from_bytes(&q.to_bytes()).unwrap(), q);
    }

    #[test]
    fn all_validators_transitive() {
        let org_a = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let q = QuorumSet {
            threshold: 2,
            validators: ids(&[9]),
            inner: vec![org_a],
        };
        assert_eq!(q.all_validators(), set(&[0, 1, 2, 9]));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn unsatisfiable_threshold_panics() {
        let _ = QuorumSet::threshold_of(4, ids(&[0, 1, 2]));
    }
}
