//! Quorum evaluation: the one kernel behind federated voting and the
//! quorum-intersection checker.
//!
//! In FBA a quorum is "a non-empty set S of nodes encompassing at least one
//! quorum slice of each non-faulty member" (paper §3.1). Federated voting
//! (§3.2, Fig. 1) and the intersection checker of `stellar-quorum` (§6.2.1)
//! only ask whether a set contains a quorum and whether a set blocks every
//! slice of a node, so both ask one compiled representation (the indexed
//! bitsets of Gaul et al.): a [`QuorumKernel`] of interned nodes and
//! [`CompiledQSet`]s, evaluated on [`NodeBits`]. `LatestStatements` is
//! what each protocol keeps per slot; it compiles a sender's slices when
//! its statement is stored, so evaluation never compiles.

use crate::statement::Statement;
use crate::{NodeId, QuorumSet};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A set of interned nodes: bit `i` stands for [`QuorumKernel::id`]`(i)`.
///
/// Sets are made at a kernel's width ([`QuorumKernel::width`]) and compare
/// equal only at equal width.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeBits {
    words: Vec<u64>,
}

impl NodeBits {
    /// The empty set over `n` bits.
    pub fn empty(n: usize) -> NodeBits {
        NodeBits {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    /// Adds bit `i` (which must lie within the width).
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether bit `i` is set (false beyond the width).
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The union of two sets of equal width.
    pub fn union(&self, other: &NodeBits) -> NodeBits {
        NodeBits {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// The set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let mut w = *w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }
}

/// A [`QuorumSet`] compiled onto a kernel's bits: the same threshold tree
/// with every validator replaced by its bit. Every validator is interned,
/// so a compiled set stays valid however the kernel grows afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledQSet {
    /// How many entries must be satisfied for a slice.
    pub threshold: u32,
    /// Direct validator entries, as bits.
    pub validators: Vec<u32>,
    /// Nested entries.
    pub inner: Vec<CompiledQSet>,
}

impl CompiledQSet {
    /// Whether `set` contains one of this set's slices: at least
    /// `threshold` entries satisfied.
    pub fn satisfied_by(&self, set: &NodeBits) -> bool {
        self.at_least(self.threshold as usize, set, Self::satisfied_by)
    }

    /// Whether `set` is **v-blocking** for this set's owner: it hits more
    /// than `n − threshold` of the `n` entries, so it meets every slice. A
    /// threshold of 0 is satisfied by anything, so nothing blocks it.
    pub fn blocked_by(&self, set: &NodeBits) -> bool {
        let n = self.validators.len() + self.inner.len();
        let need = (n + 1).saturating_sub(self.threshold as usize);
        self.threshold > 0 && self.at_least(need, set, Self::blocked_by)
    }

    /// Whether at least `k` entries pass: validators in `set`, inner sets
    /// by `passes` (evaluated only until `k` have).
    fn at_least(&self, k: usize, set: &NodeBits, passes: fn(&Self, &NodeBits) -> bool) -> bool {
        let direct = self
            .validators
            .iter()
            .filter(|v| set.contains(**v as usize));
        let inner = self.inner.iter().filter(|q| passes(q, set));
        direct.count() + inner.take(k).count() >= k
    }
}

/// The node↔bit interning table and each declaring node's compiled
/// slices. A node can be interned without declaring (it was named in
/// someone's quorum set but never sent its own); such a node has no
/// slices and is never part of a quorum.
#[derive(Clone, Debug, Default)]
pub struct QuorumKernel {
    ids: Vec<NodeId>,
    /// `(id, bit)` sorted by id. This and `compiled` are sorted vectors,
    /// not maps: one kernel lives per protocol per live slot.
    bits: Vec<(NodeId, u32)>,
    /// Each node's declared slices; equal quorum sets share one tree.
    slices: Vec<Option<Arc<CompiledQSet>>>,
    compiled: Vec<(QuorumSet, Arc<CompiledQSet>)>,
}

impl QuorumKernel {
    /// Number of interned nodes: the width of this kernel's sets.
    pub fn width(&self) -> usize {
        self.ids.len()
    }

    /// The bit of `id`, interning it at the next free bit if new.
    pub fn intern(&mut self, id: NodeId) -> usize {
        match self.bits.binary_search_by_key(&id, |(known, _)| *known) {
            Ok(i) => self.bits[i].1 as usize,
            Err(i) => {
                let bit = self.ids.len();
                self.bits.insert(i, (id, bit as u32));
                self.ids.push(id);
                self.slices.push(None);
                bit
            }
        }
    }

    /// The bit of `id`, if interned.
    pub fn bit(&self, id: NodeId) -> Option<usize> {
        let i = self.bits.binary_search_by_key(&id, |(known, _)| *known);
        i.ok().map(|i| self.bits[i].1 as usize)
    }

    /// The node at `bit`.
    pub fn id(&self, bit: usize) -> NodeId {
        self.ids[bit]
    }

    /// `q` compiled onto this kernel's bits, interning its validators.
    /// Each distinct quorum set is compiled once and then shared.
    pub fn compile(&mut self, q: &QuorumSet) -> Arc<CompiledQSet> {
        match self.compiled.binary_search_by(|(known, _)| known.cmp(q)) {
            Ok(i) => self.compiled[i].1.clone(),
            Err(i) => {
                let compiled = Arc::new(self.compile_tree(q));
                self.compiled.insert(i, (q.clone(), compiled.clone()));
                compiled
            }
        }
    }

    fn compile_tree(&mut self, q: &QuorumSet) -> CompiledQSet {
        CompiledQSet {
            threshold: q.threshold,
            validators: q
                .validators
                .iter()
                .map(|v| self.intern(*v) as u32)
                .collect(),
            inner: q.inner.iter().map(|i| self.compile_tree(i)).collect(),
        }
    }

    /// Records `q` as the quorum set `id` declares, replacing any earlier
    /// declaration. Returns `id`'s bit.
    pub fn declare(&mut self, id: NodeId, q: &QuorumSet) -> usize {
        let bit = self.intern(id);
        self.slices[bit] = Some(self.compile(q));
        bit
    }

    /// The compiled slices `bit` declared, if any.
    pub fn slices(&self, bit: usize) -> Option<&CompiledQSet> {
        self.slices[bit].as_deref()
    }

    /// Every node that declared slices.
    pub fn declared(&self) -> NodeBits {
        let mut out = NodeBits::empty(self.width());
        for (bit, q) in self.slices.iter().enumerate() {
            if q.is_some() {
                out.insert(bit);
            }
        }
        out
    }

    /// The maximal quorum inside `candidates` (empty if none).
    ///
    /// Removes every member without a declared slice inside the current
    /// set until none is left to remove. What survives is a quorum, and
    /// the unique maximal one: the union of two quorums inside
    /// `candidates` also survives pruning.
    pub fn max_quorum(&self, candidates: &NodeBits) -> NodeBits {
        let mut cur = candidates.clone();
        loop {
            let mut next = cur.clone();
            let mut changed = false;
            for i in cur.iter_ones() {
                if !self.slices[i]
                    .as_ref()
                    .is_some_and(|q| q.satisfied_by(&cur))
                {
                    next.remove(i);
                    changed = true;
                }
            }
            if !changed {
                return cur;
            }
            cur = next;
        }
    }

    /// The interned members of `ids` as a set (others are skipped).
    pub fn bits_of(&self, ids: &BTreeSet<NodeId>) -> NodeBits {
        let mut out = NodeBits::empty(self.width());
        for bit in ids.iter().filter_map(|id| self.bit(*id)) {
            out.insert(bit);
        }
        out
    }

    /// The node ids of `bits`.
    pub fn ids_of(&self, bits: &NodeBits) -> BTreeSet<NodeId> {
        bits.iter_ones().map(|i| self.ids[i]).collect()
    }
}

/// Federated-voting *accept* check for the node at bit `node` (Fig. 1).
///
/// The node accepts a statement iff:
/// 1. the nodes that **accept** it are v-blocking for `local`, the node's
///    own slices (this path can overrule its own contrary votes), or
/// 2. it belongs to a quorum whose members all **vote for or accept** it.
///
/// `voted` and `accepted` are the nodes whose latest statement carries a
/// vote for / acceptance of the statement being evaluated, implied
/// statements included (a vote for `prepare⟨n,x⟩` implies votes for all
/// `prepare⟨n′,x⟩`, `n′ ≤ n`).
pub fn federated_accept(
    kernel: &QuorumKernel,
    node: usize,
    local: &CompiledQSet,
    voted: &NodeBits,
    accepted: &NodeBits,
) -> bool {
    local.blocked_by(accepted) || kernel.max_quorum(&voted.union(accepted)).contains(node)
}

/// Federated-voting *confirm* check: the node at bit `node` is in a quorum
/// whose members all accept the statement.
pub fn federated_confirm(kernel: &QuorumKernel, node: usize, accepted: &NodeBits) -> bool {
    kernel.max_quorum(accepted).contains(node)
}

/// One protocol's latest statement per node (its own included), with each
/// sender's quorum set declared on a private [`QuorumKernel`] as the
/// statement is stored. Evaluation looks compiled slices up, the local
/// node's own included; it compiles only a quorum set never seen before.
#[derive(Debug, Default)]
pub(crate) struct LatestStatements {
    /// Indexed by the sender's bit.
    statements: Vec<Option<Statement>>,
    kernel: QuorumKernel,
}

impl LatestStatements {
    /// The statements, in sender order.
    pub fn values(&self) -> impl Iterator<Item = &Statement> {
        self.kernel
            .bits
            .iter()
            .filter_map(|(_, bit)| self.statements.get(*bit as usize)?.as_ref())
    }

    /// The latest statement from `node`.
    pub fn get(&self, node: &NodeId) -> Option<&Statement> {
        self.statements.get(self.kernel.bit(*node)?)?.as_ref()
    }

    /// Stores `st` as its sender's latest statement, declaring its slices.
    pub fn insert(&mut self, st: Statement) {
        let bit = self.kernel.declare(st.node, &st.quorum_set);
        self.statements.resize_with(self.kernel.width(), || None);
        self.statements[bit] = Some(st);
    }

    /// Stores a peer's `st` if it supersedes the sender's statement on
    /// file: a newer one, or the same one under a different quorum set —
    /// a slice retune (§3.1.1) that quorum evaluation must see, or it
    /// keeps using the sender's abandoned slices forever. Returns whether
    /// `st` was stored.
    pub fn record(&mut self, st: &Statement) -> bool {
        let stale = self.get(&st.node).is_some_and(|old| {
            !st.kind.is_newer_than(&old.kind)
                && (old.kind != st.kind || old.quorum_set == st.quorum_set)
        });
        if !stale {
            self.insert(st.clone());
        }
        !stale
    }

    /// The senders whose latest statement satisfies `pred`.
    fn nodes_where(&self, pred: impl Fn(&Statement) -> bool) -> NodeBits {
        let mut out = NodeBits::empty(self.kernel.width());
        for (bit, st) in self.statements.iter().enumerate() {
            if st.as_ref().is_some_and(&pred) {
                out.insert(bit);
            }
        }
        out
    }

    /// [`federated_accept`] for `node`, whose slices are `qset`, over the
    /// statements that vote for / accept the statement being evaluated.
    pub fn federated_accept(
        &mut self,
        node: NodeId,
        qset: &QuorumSet,
        voted: impl Fn(&Statement) -> bool,
        accepted: impl Fn(&Statement) -> bool,
    ) -> bool {
        let local = self.kernel.compile(qset);
        let bit = self.kernel.intern(node);
        let (voted, accepted) = (self.nodes_where(voted), self.nodes_where(accepted));
        federated_accept(&self.kernel, bit, &local, &voted, &accepted)
    }

    /// [`federated_confirm`] for `node`: whether it is in a quorum of
    /// senders whose statements satisfy `accepted`.
    pub fn federated_confirm(&self, node: NodeId, accepted: impl Fn(&Statement) -> bool) -> bool {
        self.kernel
            .bit(node)
            .is_some_and(|bit| federated_confirm(&self.kernel, bit, &self.nodes_where(accepted)))
    }

    /// Whether the senders whose statements satisfy `pred` are v-blocking
    /// for a node whose slices are `qset`.
    pub fn v_blocking(&mut self, qset: &QuorumSet, pred: impl Fn(&Statement) -> bool) -> bool {
        let local = self.kernel.compile(qset);
        local.blocked_by(&self.nodes_where(pred))
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

    /// A kernel where every listed node declares `qset`.
    fn uniform(qset: &QuorumSet, nodes: &[u32]) -> QuorumKernel {
        let mut k = QuorumKernel::default();
        for n in nodes {
            k.declare(NodeId(*n), qset);
        }
        k
    }

    fn max_quorum(k: &QuorumKernel, v: &[u32]) -> BTreeSet<NodeId> {
        k.ids_of(&k.max_quorum(&k.bits_of(&set(v))))
    }

    #[test]
    fn max_quorum_uniform_majority() {
        let k = uniform(&QuorumSet::majority(ids(&[0, 1, 2, 3])), &[0, 1, 2, 3]);
        // Any 3 of 4 nodes form a quorum; 2 do not.
        assert_eq!(max_quorum(&k, &[0, 1, 2]), set(&[0, 1, 2]));
        assert!(max_quorum(&k, &[0, 1]).is_empty());
    }

    #[test]
    fn max_quorum_prunes_unsupported_members() {
        // Node 4's slice {5} is outside the candidate set: 4 gets pruned,
        // and the remaining 3-of-4 majority survives.
        let mut k = uniform(&QuorumSet::majority(ids(&[0, 1, 2, 3])), &[0, 1, 2, 3]);
        k.declare(NodeId(4), &QuorumSet::threshold_of(1, ids(&[5])));
        assert_eq!(max_quorum(&k, &[0, 1, 2, 4]), set(&[0, 1, 2]));
    }

    #[test]
    fn undeclared_node_is_never_in_a_quorum() {
        // Node 1 is interned (named in 0's slices) but declared nothing,
        // so without it node 0 has no majority slice.
        let k = uniform(&QuorumSet::majority(ids(&[0, 1, 2])), &[0]);
        assert!(k.bit(NodeId(1)).is_some());
        assert_eq!(k.declared(), k.bits_of(&set(&[0])));
        assert!(max_quorum(&k, &[0, 1]).is_empty());
    }

    #[test]
    fn heterogeneous_chain_quorum() {
        // v1 requires v2, v2 requires v3, v3 requires itself only.
        let mut k = QuorumKernel::default();
        k.declare(NodeId(1), &QuorumSet::threshold_of(2, ids(&[1, 2])));
        k.declare(NodeId(2), &QuorumSet::threshold_of(2, ids(&[2, 3])));
        k.declare(NodeId(3), &QuorumSet::threshold_of(1, ids(&[3])));
        assert_eq!(max_quorum(&k, &[1, 2, 3]), set(&[1, 2, 3]));
        assert_eq!(max_quorum(&k, &[3]), set(&[3]));
        assert!(max_quorum(&k, &[1, 2]).is_empty());
    }

    #[test]
    fn redeclaring_replaces_slices() {
        let mut k = uniform(&QuorumSet::majority(ids(&[0, 1, 2])), &[0, 1, 2]);
        assert_eq!(max_quorum(&k, &[0, 1]), set(&[0, 1]));
        k.declare(NodeId(0), &QuorumSet::threshold_of(3, ids(&[0, 1, 2])));
        assert_eq!(max_quorum(&k, &[0, 1]), BTreeSet::new());
    }

    #[test]
    fn nested_v_blocking_keeps_uninterned_entries() {
        // Two required orgs: two nodes of one org block everything, and
        // entries nobody has heard from still count toward `n`.
        let q = QuorumSet {
            threshold: 2,
            validators: vec![],
            inner: vec![
                QuorumSet::threshold_of(2, ids(&[0, 1, 2])),
                QuorumSet::threshold_of(2, ids(&[3, 4, 5])),
            ],
        };
        let mut k = QuorumKernel::default();
        let c = k.compile(&q);
        assert!(c.blocked_by(&k.bits_of(&set(&[0, 1]))));
        assert!(!c.blocked_by(&k.bits_of(&set(&[0, 3]))));
        assert!(!c.blocked_by(&k.bits_of(&set(&[]))));
    }

    #[test]
    fn federated_accept_via_quorum() {
        let q = QuorumSet::majority(ids(&[0, 1, 2, 3]));
        let mut k = uniform(&q, &[0, 1, 2, 3]);
        let local = k.compile(&q);
        let none = k.bits_of(&set(&[]));
        // 0, 1, 2 vote: a quorum containing 0, but not 3's (3 never voted).
        let voters = k.bits_of(&set(&[0, 1, 2]));
        assert!(federated_accept(&k, 0, &local, &voters, &none));
        assert!(!federated_accept(&k, 3, &local, &voters, &none));
    }

    #[test]
    fn federated_accept_via_v_blocking_overrules() {
        // 2-of-3 slices: any 2 accepters are v-blocking, no vote needed.
        let q = QuorumSet::threshold_of(2, ids(&[0, 1, 2]));
        let mut k = uniform(&q, &[0, 1, 2]);
        let local = k.compile(&q);
        let accepters = k.bits_of(&set(&[1, 2]));
        assert!(federated_accept(
            &k,
            0,
            &local,
            &k.bits_of(&set(&[])),
            &accepters
        ));
    }

    #[test]
    fn federated_confirm_needs_quorum_of_accepts() {
        let k = uniform(&QuorumSet::majority(ids(&[0, 1, 2, 3])), &[0, 1, 2, 3]);
        assert!(federated_confirm(&k, 0, &k.bits_of(&set(&[0, 1, 2]))));
        assert!(!federated_confirm(&k, 0, &k.bits_of(&set(&[0, 1]))));
        // A quorum of accepters that does not include self confirms nothing.
        assert!(!federated_confirm(&k, 3, &k.bits_of(&set(&[0, 1, 2]))));
    }
}
