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
//! its statement is stored, so evaluation never compiles, and it keeps
//! the voters of each question an evaluation asks up to date as
//! statements arrive, so a statement that changes no answer costs no
//! evaluation.

use crate::statement::{Ballot, Statement, StatementKind};
use crate::{NodeId, QuorumSet, Value};
use std::collections::{BTreeMap, BTreeSet};
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

    /// Sets bit `i` to `on`, widening the set to hold it; returns whether
    /// the bit changed.
    fn assign(&mut self, i: usize, on: bool) -> bool {
        self.words.resize(self.words.len().max(i / 64 + 1), 0);
        let changed = self.contains(i) != on;
        self.words[i / 64] ^= u64::from(changed) << (i % 64);
        changed
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
    /// by `passes` (each counted only until `k` have).
    fn at_least(&self, k: usize, set: &NodeBits, passes: fn(&Self, &NodeBits) -> bool) -> bool {
        let direct = self
            .validators
            .iter()
            .filter(|v| set.contains(**v as usize));
        let inner = self.inner.iter().filter(|q| passes(q, set));
        direct.take(k).count() + inner.take(k).count() >= k
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
        self.max_quorum_counted(candidates, &mut 0)
    }

    /// [`QuorumKernel::max_quorum`], adding its slice checks to `checks`.
    fn max_quorum_counted(&self, candidates: &NodeBits, checks: &mut u64) -> NodeBits {
        let mut cur = candidates.clone();
        loop {
            let mut next = cur.clone();
            let mut changed = false;
            for i in cur.iter_ones() {
                *checks += 1;
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

/// Whether `node` is in a quorum inside `set`. Any such quorum holds one
/// of the node's own slices, so the maximal quorum is computed only when
/// `set` satisfies them.
fn in_quorum(kernel: &QuorumKernel, node: usize, set: &NodeBits, work: &mut Work) -> bool {
    let own = kernel.slices(node).filter(|_| set.contains(node));
    work.slice_checks += u64::from(own.is_some());
    if !own.is_some_and(|own| own.satisfied_by(set)) {
        return false;
    }
    work.quorum_evals += 1;
    let max = kernel.max_quorum_counted(set, &mut work.slice_checks);
    max.contains(node)
}

/// Federated-voting work, counted exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Maximal-quorum computations ([`QuorumKernel::max_quorum`]).
    pub quorum_evals: u64,
    /// Checks of one node's compiled slices ([`CompiledQSet::satisfied_by`]
    /// or [`CompiledQSet::blocked_by`]), those inside `max_quorum` included.
    pub slice_checks: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, other: Work) {
        self.quorum_evals += other.quorum_evals;
        self.slice_checks += other.slice_checks;
    }
}

/// A question federated voting asks of a slot's statements. It keys what
/// [`LatestStatements`] memoizes — the senders voting for and accepting
/// it — and what it counts as mentioned: the ballots that might be
/// prepared, the commit boundaries, the nominated values and the ballot
/// counters the statements carry.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum Question {
    /// `prepare(b)`.
    Prepare(Ballot),
    /// `commit(b)`.
    Commit(Ballot),
    /// `nominate v`.
    Nominate(Value),
    /// "At ballot counter ≥ n" (§3.2.4); statements only accept it.
    AtLeast(u32),
}

impl Question {
    /// Whether `kind` votes for, and whether it accepts, this question.
    fn test(&self, kind: &StatementKind) -> (bool, bool) {
        match self {
            Question::Prepare(b) => (kind.votes_prepare(b), kind.accepts_prepare(b)),
            Question::Commit(b) => (kind.votes_commit(b), kind.accepts_commit(b)),
            Question::Nominate(v) => (kind.nominates_vote(v), kind.nominates_accept(v)),
            Question::AtLeast(n) => (false, kind.ballot_counter().is_some_and(|c| c >= *n)),
        }
    }

    /// What `kind` mentions, ascending: the ballots it may have prepared,
    /// the ends of its commit range, its nominated values and its ballot
    /// counter.
    fn mentioned_by(kind: &StatementKind) -> Vec<Question> {
        let at = |n: u32, b: &Ballot| Some(Ballot::new(n, b.value.clone()));
        let (prepares, commits) = match kind {
            StatementKind::Nominate { voted, accepted } => {
                return voted
                    .union(accepted)
                    .cloned()
                    .map(Question::Nominate)
                    .collect();
            }
            StatementKind::Prepare {
                ballot: b,
                prepared,
                prepared_prime,
                c_n,
                h_n,
            } => (
                [Some(b.clone()), prepared.clone(), prepared_prime.clone()],
                if *c_n > 0 {
                    [at(*c_n, b), at(*h_n, b)]
                } else {
                    [None, None]
                },
            ),
            StatementKind::Confirm {
                ballot: b,
                p_n,
                c_n,
                h_n,
            } => (
                [at(*p_n, b), Some(b.clone()), None],
                [at(*c_n, b), at(*h_n, b)],
            ),
            StatementKind::Externalize { commit: b, h_n } => (
                [at(*h_n, b), at(u32::MAX, b), None],
                [Some(b.clone()), at(*h_n, b)],
            ),
        };
        let prepares = prepares.into_iter().flatten().map(Question::Prepare);
        let commits = commits.into_iter().flatten().map(Question::Commit);
        let counter = kind.ballot_counter().map(Question::AtLeast);
        let mut out: Vec<Question> = prepares.chain(commits).chain(counter).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The checks a question is asked under, as indices of `Votes::verdicts`:
/// [`federated_accept`], [`federated_confirm`], and whether the accepters
/// are v-blocking for the local node.
pub(crate) const ACCEPT: usize = 0;
pub(crate) const CONFIRM: usize = 1;
pub(crate) const V_BLOCKING: usize = 2;

/// The senders voting for and accepting one question, and the verdicts
/// the evaluation in progress (or the last one) reached on them.
#[derive(Debug)]
struct Votes {
    voted: NodeBits,
    accepted: NodeBits,
    /// The accept, confirm and v-blocking verdicts. Each check is monotone
    /// in the sets it reads (only accept reads `voted`), so a true verdict
    /// holds while they only gain members and a false one while they only
    /// lose them.
    verdicts: [Option<bool>; 3],
    /// Asked since the evaluation began.
    asked: bool,
}

impl Votes {
    /// The verdict under `check` of the node at bit `node`, whose slices
    /// are `local`.
    fn decide(
        &self,
        check: usize,
        kernel: &QuorumKernel,
        (local, node): (&CompiledQSet, usize),
        work: &mut Work,
    ) -> bool {
        if check == CONFIRM {
            return in_quorum(kernel, node, &self.accepted, work);
        }
        work.slice_checks += 1;
        local.blocked_by(&self.accepted)
            || check == ACCEPT && in_quorum(kernel, node, &self.voted.union(&self.accepted), work)
    }
}

/// One protocol's latest statement per node (its own included), with each
/// sender's quorum set declared on a private [`QuorumKernel`] as the
/// statement is stored; the local node's slices are compiled once.
///
/// An evaluation runs a protocol's federated-voting attempts to their
/// fixpoint between `begin` and `end`. Each question it asks keeps a memo
/// of its voters, accepters and verdicts; storing a statement re-tests
/// only its sender and re-decides only the verdicts its bits may flip.
/// Running a settled evaluation again changes nothing until a verdict it
/// read flips, the mentioned questions (the candidates it iterates over)
/// change, or someone's slices do: `unsettled` says whether one did.
#[derive(Debug, Default)]
pub(crate) struct LatestStatements {
    /// Indexed by the sender's bit.
    statements: Vec<Option<Statement>>,
    kernel: QuorumKernel,
    /// How many statements mention each question.
    mentions: BTreeMap<Question, u32>,
    /// The votes on each question the current or last evaluation asked.
    memo: BTreeMap<Question, Votes>,
    /// The evaluating node's quorum set, compiled, and the node's bit.
    local: Option<(QuorumSet, Arc<CompiledQSet>, usize)>,
    /// The last evaluation reached its fixpoint and no input of it has
    /// changed since.
    settled: bool,
    work: Work,
    /// Answers every question from scratch and never settles: the
    /// evaluator the memo replaced, kept as the tests' oracle.
    #[cfg(test)]
    pub oracle: bool,
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

    /// Stores `st` as its sender's latest statement, declaring its slices,
    /// re-testing the sender against every memoized question and counting
    /// what it mentions in place of what its previous statement did.
    pub fn insert(&mut self, st: Statement) {
        let bit = self.kernel.intern(st.node);
        let slices = |kernel: &QuorumKernel| kernel.slices[bit].as_ref().map(Arc::as_ptr);
        let before = slices(&self.kernel);
        self.kernel.declare(st.node, &st.quorum_set);
        let mut changed = before.is_some_and(|b| slices(&self.kernel) != Some(b));
        if changed {
            self.forget_verdicts();
        }
        let local = self.local.as_ref().map(|(_, q, node)| (q.as_ref(), *node));
        for (q, votes) in &mut self.memo {
            let (voted, accepted) = q.test(&st.kind);
            // A flip to `x` can only overturn a verdict of `!x`; such a
            // verdict is decided again at once.
            let flips = [
                votes.accepted.assign(bit, accepted).then_some(!accepted),
                votes.voted.assign(bit, voted).then_some(!voted),
            ];
            for check in [ACCEPT, CONFIRM, V_BLOCKING] {
                let read = if check == ACCEPT {
                    &flips[..]
                } else {
                    &flips[..1]
                };
                let Some(old) = votes.verdicts[check].filter(|v| read.contains(&Some(*v))) else {
                    continue;
                };
                let new =
                    local.map(|local| votes.decide(check, &self.kernel, local, &mut self.work));
                votes.verdicts[check] = new;
                changed |= new != Some(old);
            }
        }
        let new = Question::mentioned_by(&st.kind);
        self.statements.resize_with(self.kernel.width(), || None);
        let old = self.statements[bit]
            .replace(st)
            .map_or_else(Vec::new, |old| Question::mentioned_by(&old.kind));
        for q in new.iter().filter(|q| old.binary_search(q).is_err()) {
            let n = self.mentions.entry(q.clone()).or_insert(0);
            changed |= *n == 0;
            *n += 1;
        }
        for q in old.iter().filter(|q| new.binary_search(q).is_err()) {
            let n = self.mentions.get_mut(q).expect("counted when stored");
            *n -= 1;
            if *n == 0 {
                self.mentions.remove(q);
                changed = true;
            }
        }
        self.settled &= !changed;
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

    /// The questions the statements mention, ascending.
    pub fn mentions(&self) -> impl DoubleEndedIterator<Item = &Question> {
        self.mentions.keys()
    }

    /// Whether an evaluation by `node`, whose slices are `qset`, could
    /// change anything: an input of the last one changed since it settled.
    pub fn unsettled(&mut self, node: NodeId, qset: &QuorumSet) -> bool {
        self.set_local(node, qset);
        #[cfg(test)]
        if self.oracle {
            return true;
        }
        !self.settled
    }

    /// Starts an evaluation by `node`, whose slices are `qset`.
    pub fn begin(&mut self, node: NodeId, qset: &QuorumSet) {
        self.set_local(node, qset);
        self.memo.values_mut().for_each(|votes| votes.asked = false);
    }

    /// Ends an evaluation, dropping the memos of questions it did not ask.
    /// `fixpoint` says running it again would change nothing.
    pub fn end(&mut self, fixpoint: bool) {
        self.memo.retain(|_, votes| votes.asked);
        self.settled = fixpoint;
    }

    /// Compiles the local slices, unless they are the ones compiled last.
    fn set_local(&mut self, node: NodeId, qset: &QuorumSet) {
        if self.local.as_ref().is_some_and(|(known, ..)| known == qset) {
            return;
        }
        let compiled = self.kernel.compile(qset);
        self.local = Some((qset.clone(), compiled, self.kernel.intern(node)));
        self.forget_verdicts();
        self.settled = false;
    }

    /// Drops every verdict: slices changed, so none is known to hold.
    fn forget_verdicts(&mut self) {
        self.memo
            .values_mut()
            .for_each(|votes| votes.verdicts = [None; 3]);
    }

    /// The work done since the last call.
    pub fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    /// The local node's verdict on `q` under `check`: the memoized one
    /// while it holds, else computed on the memoized votes (built from
    /// every statement when `q` is first asked).
    pub fn verdict(&mut self, q: &Question, check: usize) -> bool {
        #[cfg(test)]
        if self.oracle {
            let (accept, confirm, v_blocking) = self.scratch(q);
            return [accept, confirm, v_blocking][check];
        }
        let (statements, width) = (&self.statements, self.kernel.width());
        let votes = self.memo.entry(q.clone()).or_insert_with(|| {
            let (mut voted, mut accepted) = (NodeBits::empty(width), NodeBits::empty(width));
            for (bit, st) in statements.iter().enumerate() {
                let (v, a) = st.as_ref().map_or((false, false), |st| q.test(&st.kind));
                voted.assign(bit, v);
                accepted.assign(bit, a);
            }
            Votes {
                voted,
                accepted,
                verdicts: [None; 3],
                asked: false,
            }
        });
        votes.asked = true;
        if let Some(verdict) = votes.verdicts[check] {
            return verdict;
        }
        let (_, local, node) = self.local.as_ref().expect("an evaluation has begun");
        let verdict = votes.decide(check, &self.kernel, (local, *node), &mut self.work);
        votes.verdicts[check] = Some(verdict);
        verdict
    }
}

#[cfg(test)]
impl LatestStatements {
    /// The accept, confirm and v-blocking verdicts on `q` the way the
    /// evaluator before the memo reached them: voters and accepters
    /// rebuilt from every statement, the local slices compiled afresh,
    /// and v-blocking judged on the peers' statements alone.
    pub fn scratch(&mut self, q: &Question) -> (bool, bool, bool) {
        let (qset, _, node) = self.local.clone().expect("an evaluation has begun");
        let local = self.kernel.compile(&qset);
        let me = self.kernel.id(node);
        let nodes_where = |pred: &dyn Fn(&Statement) -> bool| {
            let mut out = NodeBits::empty(self.kernel.width());
            for (bit, st) in self.statements.iter().enumerate() {
                if st.as_ref().is_some_and(pred) {
                    out.insert(bit);
                }
            }
            out
        };
        let voted = nodes_where(&|st| q.test(&st.kind).0);
        let accepted = nodes_where(&|st| q.test(&st.kind).1);
        let peers = nodes_where(&|st| st.node != me && q.test(&st.kind).1);
        (
            federated_accept(&self.kernel, node, &local, &voted, &accepted),
            federated_confirm(&self.kernel, node, &accepted),
            local.blocked_by(&peers),
        )
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
