//! Quorum-intersection checking (paper §6.2.1), at internet scale.
//!
//! "While gathering quorum slices is easy, finding disjoint quorums among
//! them is co-NP-hard. However, we adopted a set of algorithmic heuristics
//! and case-elimination rules proposed by Lachowski that check typical
//! instances of the problem several orders of magnitude faster than the
//! worst-case cost."
//!
//! The checker here follows the same playbook, extended with the FBAS
//! analysis techniques of Gaul/Khoffi/Liesen/Stüber so it scales from the
//! production closure (20–30 nodes) to synthetic 500-org topologies:
//!
//! 1. restrict to nodes that can appear in *some* quorum: the maximal
//!    quorum (`core`) is the union of all quorums;
//! 2. compute strongly connected components of the trust digraph
//!    (`u → v` iff `v` appears in `u`'s quorum set). Two SCCs each
//!    containing a quorum yield disjoint quorums immediately. Otherwise
//!    **every minimal quorum is strongly connected** (its sink SCC is
//!    itself a quorum), so all minimal quorums live inside the unique
//!    quorum-bearing SCC — the branch-and-bound domain shrinks from the
//!    whole core to that SCC, which for sparse tier-weighted topologies
//!    is the small top tier;
//! 3. *symmetric* configurations (every core node declaring the identical
//!    quorum set — the shape `tiers::synthesize_all` produces) are decided
//!    in closed form on the quorum-set tree, without any search;
//! 4. the remaining two-way partition search runs on bitsets with
//!    quorum-embedding pruning and memoized embedding checks.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use stellar_scp::quorum::{find_quorum, QuorumSetMap};
use stellar_scp::{NodeId, QuorumSet};

/// An FBA system: every known node's declared quorum set.
#[derive(Clone, Debug, Default)]
pub struct FbaSystem {
    /// Per-node quorum sets.
    pub nodes: BTreeMap<NodeId, QuorumSet>,
}

impl QuorumSetMap for FbaSystem {
    fn quorum_set(&self, node: NodeId) -> Option<&QuorumSet> {
        self.nodes.get(&node)
    }
}

impl FbaSystem {
    /// Builds a system from `(node, qset)` pairs.
    pub fn new(entries: impl IntoIterator<Item = (NodeId, QuorumSet)>) -> FbaSystem {
        FbaSystem {
            nodes: entries.into_iter().collect(),
        }
    }

    /// All node ids in the system.
    pub fn ids(&self) -> BTreeSet<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Whether `set` contains a quorum of this system.
    pub fn contains_quorum(&self, set: &BTreeSet<NodeId>) -> bool {
        !find_quorum(self, set).is_empty()
    }

    /// The maximal quorum within `set` (empty if none).
    pub fn max_quorum_in(&self, set: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        find_quorum(self, set)
    }
}

/// Outcome of a disjoint-quorum search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntersectionResult {
    /// Every pair of quorums intersects.
    Intersecting,
    /// Two disjoint quorums exist — the network can diverge.
    Disjoint(BTreeSet<NodeId>, BTreeSet<NodeId>),
    /// No quorum exists at all (degenerate configuration).
    NoQuorum,
}

/// Where the time went during one check (bench/report attachment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Nodes in the system.
    pub nodes: usize,
    /// Nodes in the maximal quorum (the union of all quorums).
    pub core_nodes: usize,
    /// SCC count within the core.
    pub scc_count: usize,
    /// Nodes in the final branch-and-bound domain (0 when a case rule or
    /// the symmetric fast path decided without searching).
    pub domain_nodes: usize,
    /// Branch-and-bound tree nodes visited.
    pub branches: u64,
    /// Quorum-embedding prune evaluations (cache misses included).
    pub prune_checks: u64,
    /// Embedding checks answered from the memo table.
    pub memo_hits: u64,
    /// Whether the symmetric closed-form decision applied.
    pub symmetric: bool,
}

/// Checks whether the system enjoys quorum intersection.
pub fn enjoys_quorum_intersection(sys: &FbaSystem) -> bool {
    matches!(find_disjoint_quorums(sys), IntersectionResult::Intersecting)
}

/// Searches for two disjoint quorums.
pub fn find_disjoint_quorums(sys: &FbaSystem) -> IntersectionResult {
    find_disjoint_quorums_with(sys).0
}

/// Searches for two disjoint quorums, returning them if found, plus
/// search statistics.
pub fn find_disjoint_quorums_with(sys: &FbaSystem) -> (IntersectionResult, CheckStats) {
    check(sys, true)
}

/// The checker. `closed_form` off skips the symmetric-configuration
/// decision and forces the search — the cross-check the tests run
/// against the closed form and against brute force.
fn check(sys: &FbaSystem, closed_form: bool) -> (IntersectionResult, CheckStats) {
    let mut stats = CheckStats {
        nodes: sys.nodes.len(),
        ..CheckStats::default()
    };
    let idx = IndexedFba::build(sys);
    let all = Bits::full(idx.n);
    let core = idx.max_quorum(&all);
    stats.core_nodes = core.count();
    if core.is_empty() {
        return (IntersectionResult::NoQuorum, stats);
    }

    // Closed-form decision for symmetric configurations: every core node
    // declares the identical quorum set (the `synthesize_all` shape).
    if closed_form {
        if let Some(result) = idx.symmetric_decision(&core, sys) {
            stats.symmetric = true;
            return (result, stats);
        }
    }

    // SCC case elimination: two different SCCs each containing a quorum
    // yield disjoint quorums directly.
    let core_ids = idx.to_node_set(&core);
    let sccs = trust_sccs(sys, &core_ids);
    stats.scc_count = sccs.len();
    let mut quorum_sccs: Vec<(BTreeSet<NodeId>, Bits)> = Vec::new();
    for scc in &sccs {
        let bits = idx.bits_of_set(scc);
        let q = idx.max_quorum(&bits);
        if !q.is_empty() {
            quorum_sccs.push((idx.to_node_set(&q), bits));
        }
    }
    if quorum_sccs.len() >= 2 {
        return (
            IntersectionResult::Disjoint(quorum_sccs[0].0.clone(), quorum_sccs[1].0.clone()),
            stats,
        );
    }
    // `core` is itself a quorum, and its sink SCC (within the core) is a
    // quorum too, so exactly one quorum-bearing SCC remains here.
    let (_, scc_bits) = quorum_sccs
        .pop()
        .expect("non-empty core implies a quorum-bearing SCC");

    // Every minimal quorum is strongly connected (its sink SCC under the
    // trust relation is itself a quorum), so any two disjoint quorums
    // shrink to minimal ones inside this single SCC: the partition search
    // only needs to label the SCC's nodes.
    let mut domain: Vec<usize> = scc_bits.iter_ones().collect();
    stats.domain_nodes = domain.len();

    // The restricted domain is often itself symmetric even when the whole
    // system is not — e.g. a tier-weighted top tier or a scale-free seed
    // clique whose members all declare the same quorum set. Since every
    // minimal quorum lives inside this SCC, the closed-form decision on
    // the shared set (entries restricted to SCC members) settles the
    // whole system without any search.
    if closed_form {
        if let Some(result) = idx.symmetric_decision(&scc_bits, sys) {
            stats.symmetric = true;
            return (result, stats);
        }
    }
    // Branching order: most-trusted first (descending in-degree within
    // the domain), index tie-break. Highly referenced nodes constrain
    // both sides early, so pruning binds near the root of the tree.
    let indeg = idx.in_degrees(&scc_bits);
    domain.sort_by_key(|&i| (std::cmp::Reverse(indeg[i]), i));

    let mut search = SplitSearch {
        idx: &idx,
        domain: &domain,
        memo: HashMap::new(),
        branches: 0,
        prune_checks: 0,
        memo_hits: 0,
    };
    let hit = search.run(0, Bits::empty(idx.n), Bits::empty(idx.n));
    stats.branches = search.branches;
    stats.prune_checks = search.prune_checks;
    stats.memo_hits = search.memo_hits;
    match hit {
        Some((qa, qb)) => (
            IntersectionResult::Disjoint(idx.to_node_set(&qa), idx.to_node_set(&qb)),
            stats,
        ),
        None => (IntersectionResult::Intersecting, stats),
    }
}

// ---------------------------------------------------------------------------
// Bitset machinery
// ---------------------------------------------------------------------------

/// A fixed-width bitset over node indices.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn empty(n: usize) -> Bits {
        Bits {
            words: vec![0; n.div_ceil(64).max(1)],
        }
    }

    fn full(n: usize) -> Bits {
        let mut b = Bits::empty(n);
        for i in 0..n {
            b.insert(i);
        }
        b
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn union(&self, other: &Bits) -> Bits {
        Bits {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
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

/// A quorum set compiled onto node indices; validators outside the known
/// node set are dropped (an unknown node has no known slices, so it can
/// never participate in a quorum — dropping the entry while keeping the
/// threshold preserves semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
struct IdxQSet {
    threshold: u32,
    validators: Vec<u32>,
    inner: Vec<IdxQSet>,
}

impl IdxQSet {
    fn satisfied_by(&self, set: &Bits) -> bool {
        let mut hit = 0u32;
        if hit >= self.threshold {
            return true;
        }
        for v in &self.validators {
            if set.contains(*v as usize) {
                hit += 1;
                if hit >= self.threshold {
                    return true;
                }
            }
        }
        for q in &self.inner {
            if q.satisfied_by(set) {
                hit += 1;
                if hit >= self.threshold {
                    return true;
                }
            }
        }
        false
    }

    /// Greedily collects one satisfying subset of `within`, if any.
    fn satisfying_subset(&self, within: &Bits, out: &mut Bits) -> bool {
        let mut hit = 0u32;
        if hit >= self.threshold {
            return true;
        }
        for v in &self.validators {
            if within.contains(*v as usize) {
                out.insert(*v as usize);
                hit += 1;
                if hit >= self.threshold {
                    return true;
                }
            }
        }
        for q in &self.inner {
            let mut sub = Bits::empty(out.words.len() * 64);
            if q.satisfying_subset(within, &mut sub) {
                *out = out.union(&sub);
                hit += 1;
                if hit >= self.threshold {
                    return true;
                }
            }
        }
        false
    }
}

/// The system reindexed onto `0..n` with bitset-friendly quorum sets.
struct IndexedFba {
    n: usize,
    ids: Vec<NodeId>,
    qsets: Vec<IdxQSet>,
}

impl IndexedFba {
    fn build(sys: &FbaSystem) -> IndexedFba {
        let ids: Vec<NodeId> = sys.nodes.keys().copied().collect();
        let index_of: BTreeMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, i as u32))
            .collect();
        fn compile(q: &QuorumSet, index_of: &BTreeMap<NodeId, u32>) -> IdxQSet {
            IdxQSet {
                threshold: q.threshold,
                validators: q
                    .validators
                    .iter()
                    .filter_map(|v| index_of.get(v).copied())
                    .collect(),
                inner: q.inner.iter().map(|i| compile(i, index_of)).collect(),
            }
        }
        let qsets = sys.nodes.values().map(|q| compile(q, &index_of)).collect();
        IndexedFba {
            n: ids.len(),
            ids,
            qsets,
        }
    }

    fn to_node_set(&self, bits: &Bits) -> BTreeSet<NodeId> {
        bits.iter_ones().map(|i| self.ids[i]).collect()
    }

    fn bits_of_set(&self, set: &BTreeSet<NodeId>) -> Bits {
        let mut b = Bits::empty(self.n);
        for (i, id) in self.ids.iter().enumerate() {
            if set.contains(id) {
                b.insert(i);
            }
        }
        b
    }

    /// The maximal quorum inside `candidates` (greatest fixpoint of slice
    /// pruning), on bitsets.
    fn max_quorum(&self, candidates: &Bits) -> Bits {
        let mut cur = candidates.clone();
        loop {
            let mut next = cur.clone();
            let mut changed = false;
            for i in cur.iter_ones() {
                if !self.qsets[i].satisfied_by(&cur) {
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

    fn contains_quorum(&self, candidates: &Bits) -> bool {
        !self.max_quorum(candidates).is_empty()
    }

    /// Per-node count of domain quorum sets referencing it (any nesting
    /// depth), restricted to `within`.
    fn in_degrees(&self, within: &Bits) -> Vec<u32> {
        let mut deg = vec![0u32; self.n];
        fn walk(q: &IdxQSet, within: &Bits, deg: &mut [u32]) {
            for v in &q.validators {
                if within.contains(*v as usize) {
                    deg[*v as usize] += 1;
                }
            }
            for i in &q.inner {
                walk(i, within, deg);
            }
        }
        for i in within.iter_ones() {
            walk(&self.qsets[i], within, &mut deg);
        }
        deg
    }

    /// Closed-form decision for symmetric cores. Returns `None` when the
    /// core is not symmetric (callers fall through to the search).
    ///
    /// When every core node declares the identical quorum set, a set `S`
    /// is a quorum iff `S` satisfies that shared set, so two disjoint
    /// quorums exist iff the quorum-set tree can be *2-split*: a
    /// `t`-of-`m` set with `s` splittable inner entries splits iff
    /// `2·max(0, t − s) ≤ m − s` (splittable entries serve both sides,
    /// the rest at most one). Validator leaves never split; an inner set
    /// splits by the same rule recursively.
    fn symmetric_decision(&self, core: &Bits, sys: &FbaSystem) -> Option<IntersectionResult> {
        let mut ones = core.iter_ones();
        let first = ones.next()?;
        let reference = &sys.nodes[&self.ids[first]];
        for i in ones {
            if sys.nodes[&self.ids[i]] != *reference {
                return None;
            }
        }
        let shared = &self.qsets[first];
        // Entries only count when they can be satisfied inside the core.
        match split_symmetric(shared, core, self.n) {
            Some((a, b)) => {
                // The constructed sides satisfy the shared set; their
                // maximal quorums are the reported witnesses (non-empty
                // by construction of the split).
                let qa = self.max_quorum(&a);
                let qb = self.max_quorum(&b);
                if qa.is_empty() || qb.is_empty() {
                    // Degenerate tree (threshold-0 entries): fall back to
                    // the search rather than report an unsound witness.
                    return None;
                }
                Some(IntersectionResult::Disjoint(
                    self.to_node_set(&qa),
                    self.to_node_set(&qb),
                ))
            }
            None => Some(IntersectionResult::Intersecting),
        }
    }
}

/// Attempts to split `q` into two disjoint node sets within `core`, each
/// satisfying `q`. Returns the sides if the tree admits a split.
fn split_symmetric(q: &IdxQSet, core: &Bits, n: usize) -> Option<(Bits, Bits)> {
    // Classify entries: usable validators serve exactly one side; inner
    // sets either split (serve both), satisfy one side, or are dead.
    enum Entry {
        Validator(usize),
        Both(Bits, Bits),
        One(Bits),
    }
    let mut entries: Vec<Entry> = Vec::new();
    for v in &q.validators {
        if core.contains(*v as usize) {
            entries.push(Entry::Validator(*v as usize));
        }
    }
    for i in &q.inner {
        if let Some((a, b)) = split_symmetric(i, core, n) {
            entries.push(Entry::Both(a, b));
        } else {
            let mut sub = Bits::empty(n);
            if i.satisfying_subset(core, &mut sub) {
                entries.push(Entry::One(sub));
            }
        }
    }
    let t = q.threshold as usize;
    let s = entries
        .iter()
        .filter(|e| matches!(e, Entry::Both(_, _)))
        .count();
    let m = entries.len();
    let need_each = t.saturating_sub(s);
    if 2 * need_each > m - s {
        return None;
    }
    // Construct: all splittable entries serve both sides; then assign
    // `need_each` single-side entries to A, then to B (deterministic
    // entry order).
    let mut a = Bits::empty(n);
    let mut b = Bits::empty(n);
    let mut a_taken = 0usize;
    let mut b_taken = 0usize;
    for e in &entries {
        match e {
            Entry::Both(ea, eb) => {
                a = a.union(ea);
                b = b.union(eb);
            }
            Entry::Validator(v) => {
                if a_taken < need_each {
                    a.insert(*v);
                    a_taken += 1;
                } else if b_taken < need_each {
                    b.insert(*v);
                    b_taken += 1;
                }
            }
            Entry::One(sub) => {
                if a_taken < need_each {
                    a = a.union(sub);
                    a_taken += 1;
                } else if b_taken < need_each {
                    b = b.union(sub);
                    b_taken += 1;
                }
            }
        }
    }
    Some((a, b))
}

// ---------------------------------------------------------------------------
// Branch-and-bound partition search
// ---------------------------------------------------------------------------

struct SplitSearch<'a> {
    idx: &'a IndexedFba,
    domain: &'a [usize],
    memo: HashMap<Bits, bool>,
    branches: u64,
    prune_checks: u64,
    memo_hits: u64,
}

impl SplitSearch<'_> {
    fn embeds_quorum(&mut self, candidate: Bits) -> bool {
        if let Some(hit) = self.memo.get(&candidate) {
            self.memo_hits += 1;
            return *hit;
        }
        self.prune_checks += 1;
        let v = self.idx.contains_quorum(&candidate);
        self.memo.insert(candidate, v);
        v
    }

    /// Recursive two-way partition search with embedding pruning. Every
    /// domain node is labeled A or B ("neither" is unnecessary: padding a
    /// disjoint pair with extra nodes keeps both maximal quorums
    /// non-empty). The first labeled node always goes to side A
    /// (symmetry breaking).
    fn run(&mut self, at: usize, a: Bits, b: Bits) -> Option<(Bits, Bits)> {
        self.branches += 1;
        // Success test on committed sets.
        if !a.is_empty() && !b.is_empty() {
            let qa = self.idx.max_quorum(&a);
            if !qa.is_empty() {
                let qb = self.idx.max_quorum(&b);
                if !qb.is_empty() {
                    return Some((qa, qb));
                }
            }
        }
        if at == self.domain.len() {
            return None;
        }
        // Pruning: each side plus all undecided nodes must still embed a
        // quorum, otherwise this branch can never succeed.
        let mut undecided = Bits::empty(self.idx.n);
        for &i in &self.domain[at..] {
            undecided.insert(i);
        }
        if !self.embeds_quorum(a.union(&undecided)) {
            return None;
        }
        if !self.embeds_quorum(b.union(&undecided)) {
            return None;
        }

        let node = self.domain[at];
        let mut a2 = a.clone();
        a2.insert(node);
        if let Some(hit) = self.run(at + 1, a2, b.clone()) {
            return Some(hit);
        }
        if at > 0 || !b.is_empty() {
            let mut b2 = b;
            b2.insert(node);
            if let Some(hit) = self.run(at + 1, a, b2) {
                return Some(hit);
            }
        }
        None
    }
}

/// Strongly connected components of the trust digraph restricted to
/// `within` (iterative Tarjan).
pub fn trust_sccs(sys: &FbaSystem, within: &BTreeSet<NodeId>) -> Vec<BTreeSet<NodeId>> {
    // Build adjacency restricted to `within`.
    let idx_of: BTreeMap<NodeId, usize> = within
        .iter()
        .copied()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect();
    let nodes: Vec<NodeId> = within.iter().copied().collect();
    let adj: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            sys.nodes
                .get(n)
                .map(|q| {
                    q.all_validators()
                        .into_iter()
                        .filter_map(|v| idx_of.get(&v).copied())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();

    // Iterative Tarjan's algorithm.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<BTreeSet<NodeId>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // Call stack of (node, next-child-position).
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = BTreeSet::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.insert(nodes[w]);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    fn uniform(qset: QuorumSet, nodes: &[u32]) -> FbaSystem {
        FbaSystem::new(nodes.iter().map(|&n| (NodeId(n), qset.clone())))
    }

    /// Both paths through the checker: the closed form where it
    /// applies, and the forced search.
    const BOTH_PATHS: [bool; 2] = [true, false];

    #[test]
    fn majority_of_four_intersects() {
        let sys = uniform(QuorumSet::majority(ids(&[0, 1, 2, 3])), &[0, 1, 2, 3]);
        for closed_form in BOTH_PATHS {
            let (res, _) = check(&sys, closed_form);
            assert_eq!(res, IntersectionResult::Intersecting, "{closed_form}");
        }
    }

    #[test]
    fn half_threshold_splits() {
        // 2-of-4 slices: {0,1} and {2,3} are disjoint quorums.
        let sys = uniform(
            QuorumSet::threshold_of(2, ids(&[0, 1, 2, 3])),
            &[0, 1, 2, 3],
        );
        for closed_form in BOTH_PATHS {
            match check(&sys, closed_form).0 {
                IntersectionResult::Disjoint(a, b) => {
                    assert!(a.is_disjoint(&b));
                    assert!(sys.contains_quorum(&a));
                    assert!(sys.contains_quorum(&b));
                }
                other => panic!("expected disjoint quorums, got {other:?} ({closed_form})"),
            }
        }
    }

    #[test]
    fn two_islands_split_via_scc_rule() {
        // Two self-contained cliques that never reference each other.
        let mut sys = uniform(QuorumSet::majority(ids(&[0, 1, 2])), &[0, 1, 2]);
        let island2 = uniform(QuorumSet::majority(ids(&[3, 4, 5])), &[3, 4, 5]);
        sys.nodes.extend(island2.nodes);
        match find_disjoint_quorums(&sys) {
            IntersectionResult::Disjoint(a, b) => assert!(a.is_disjoint(&b)),
            other => panic!("expected disjoint, got {other:?}"),
        }
    }

    #[test]
    fn no_quorum_detected() {
        // Node 0 requires node 1, whose qset is unknown.
        let sys = FbaSystem::new([(NodeId(0), QuorumSet::threshold_of(2, ids(&[0, 1])))]);
        assert_eq!(find_disjoint_quorums(&sys), IntersectionResult::NoQuorum);
    }

    #[test]
    fn byzantine_threshold_intersects() {
        for n in [4u32, 7, 10, 13] {
            let nodes: Vec<u32> = (0..n).collect();
            let sys = uniform(QuorumSet::byzantine(ids(&nodes)), &nodes);
            assert!(enjoys_quorum_intersection(&sys), "n = {n}");
        }
    }

    #[test]
    fn tiered_production_like_topology_intersects() {
        // 3 orgs of 3 validators, org slices 2-of-3, top 2-of-3 orgs —
        // the Fig. 6 shape at small scale.
        let orgs: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]];
        let org_sets: Vec<QuorumSet> = orgs
            .iter()
            .map(|o| QuorumSet::threshold_of(2, ids(o)))
            .collect();
        let top = QuorumSet {
            threshold: 2,
            validators: vec![],
            inner: org_sets,
        };
        let all: Vec<u32> = (0..9).collect();
        let sys = uniform(top, &all);
        for closed_form in BOTH_PATHS {
            let (res, _) = check(&sys, closed_form);
            assert_eq!(res, IntersectionResult::Intersecting, "{closed_form}");
        }
    }

    #[test]
    fn lopsided_trust_still_intersects() {
        // Everyone requires node 0 plus a majority: all quorums contain 0.
        let mut sys = FbaSystem::default();
        for n in 0..5u32 {
            let q = QuorumSet::threshold_of(3, ids(&[0, 1, 2, 3, 4]));
            // Node 0 mandatory: wrap as 2-of-{0, majority-set}.
            let wrapped = QuorumSet {
                threshold: 2,
                validators: vec![NodeId(0)],
                inner: vec![q],
            };
            sys.nodes.insert(NodeId(n), wrapped);
        }
        assert!(enjoys_quorum_intersection(&sys));
    }

    #[test]
    fn scc_computation_basic() {
        // 0 → 1 → 2 → 0 cycle plus a dangling 3 → 0.
        let mut sys = FbaSystem::default();
        sys.nodes
            .insert(NodeId(0), QuorumSet::threshold_of(1, ids(&[1])));
        sys.nodes
            .insert(NodeId(1), QuorumSet::threshold_of(1, ids(&[2])));
        sys.nodes
            .insert(NodeId(2), QuorumSet::threshold_of(1, ids(&[0])));
        sys.nodes
            .insert(NodeId(3), QuorumSet::threshold_of(1, ids(&[0])));
        let within: BTreeSet<NodeId> = ids(&[0, 1, 2, 3]).into_iter().collect();
        let sccs = trust_sccs(&sys, &within);
        let sizes: Vec<usize> = {
            let mut s: Vec<usize> = sccs.iter().map(|c| c.len()).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(sizes, vec![1, 3]);
    }

    #[test]
    fn checker_handles_25_node_tiered_closure_quickly() {
        // Production-like scale from §6.2.1: ~25 nodes in the closure.
        let mut org_sets = Vec::new();
        let mut all = Vec::new();
        for org in 0..5u32 {
            let members: Vec<u32> = (org * 5..org * 5 + 5).collect();
            all.extend(members.clone());
            org_sets.push(QuorumSet::threshold_of(3, ids(&members)));
        }
        let top = QuorumSet {
            threshold: 4,
            validators: vec![],
            inner: org_sets,
        };
        let sys = uniform(top, &all);
        let start = std::time::Instant::now();
        assert!(enjoys_quorum_intersection(&sys));
        assert!(
            start.elapsed().as_secs() < 30,
            "checker too slow: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn symmetric_fast_path_engages_on_synthesized_shapes() {
        let org_sets: Vec<QuorumSet> = (0..6)
            .map(|o| QuorumSet::majority(ids(&[o * 3, o * 3 + 1, o * 3 + 2])))
            .collect();
        let top = QuorumSet {
            threshold: 4,
            validators: vec![],
            inner: org_sets,
        };
        let all: Vec<u32> = (0..18).collect();
        let sys = uniform(top, &all);
        let (res, stats) = find_disjoint_quorums_with(&sys);
        assert_eq!(res, IntersectionResult::Intersecting);
        assert!(stats.symmetric, "{stats:?}");
        assert_eq!(stats.branches, 0);
        // The search path agrees.
        let (res2, stats2) = check(&sys, false);
        assert_eq!(res2, IntersectionResult::Intersecting);
        assert!(!stats2.symmetric);
        assert!(stats2.branches > 0);
    }

    #[test]
    fn symmetric_fast_path_finds_splits() {
        // 3-of-6 orgs (below the 2/3 bar): org triples split cleanly.
        let org_sets: Vec<QuorumSet> = (0..6)
            .map(|o| QuorumSet::majority(ids(&[o * 3, o * 3 + 1, o * 3 + 2])))
            .collect();
        let top = QuorumSet {
            threshold: 3,
            validators: vec![],
            inner: org_sets,
        };
        let all: Vec<u32> = (0..18).collect();
        let sys = uniform(top, &all);
        for closed_form in BOTH_PATHS {
            match check(&sys, closed_form).0 {
                IntersectionResult::Disjoint(a, b) => {
                    assert!(a.is_disjoint(&b), "{closed_form}");
                    assert!(sys.contains_quorum(&a), "{closed_form}");
                    assert!(sys.contains_quorum(&b), "{closed_form}");
                }
                other => panic!("expected split, got {other:?} ({closed_form})"),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn ids_vec(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// Brute force: enumerate every subset, collect all quorums, and
    /// test every pair for disjointness. Only viable for n ≤ ~12.
    fn brute_force_has_disjoint(sys: &FbaSystem) -> Option<bool> {
        let ids: Vec<NodeId> = sys.nodes.keys().copied().collect();
        let n = ids.len();
        assert!(n <= 12, "brute force capped at 12 nodes");
        let mut quorums: Vec<u32> = Vec::new();
        for mask in 1u32..(1 << n) {
            let set: BTreeSet<NodeId> = (0..n)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| ids[i])
                .collect();
            let is_quorum = set
                .iter()
                .all(|m| sys.nodes.get(m).is_some_and(|q| q.is_quorum_slice(&set)));
            if is_quorum {
                quorums.push(mask);
            }
        }
        if quorums.is_empty() {
            return None; // NoQuorum
        }
        Some(quorums.iter().any(|a| quorums.iter().any(|b| a & b == 0)))
    }

    fn check_against_brute_force(sys: &FbaSystem) {
        let expected = brute_force_has_disjoint(sys);
        for closed_form in [true, false] {
            let (res, _) = check(sys, closed_form);
            match (expected, &res) {
                (None, IntersectionResult::NoQuorum) => {}
                (Some(true), IntersectionResult::Disjoint(a, b)) => {
                    prop_assert!(a.is_disjoint(b), "{closed_form}");
                    prop_assert!(sys.contains_quorum(a), "{closed_form}");
                    prop_assert!(sys.contains_quorum(b), "{closed_form}");
                }
                (Some(false), IntersectionResult::Intersecting) => {}
                (want, got) => panic!(
                    "checker disagrees with brute force: want {want:?}, got {got:?} \
                     (closed form: {closed_form})"
                ),
            }
        }
    }

    proptest! {
        /// Uniform flat systems with threshold > n/2 always intersect
        /// (two majorities share a node).
        #[test]
        fn majority_thresholds_always_intersect(n in 2u32..9) {
            let t = n / 2 + 1;
            let q = QuorumSet::threshold_of(t, ids_vec(n));
            let sys = FbaSystem::new((0..n).map(|i| (NodeId(i), q.clone())));
            prop_assert!(enjoys_quorum_intersection(&sys));
        }

        /// Uniform flat systems with threshold ≤ n/2 always admit a split
        /// (two disjoint halves each form a quorum).
        #[test]
        fn sub_majority_thresholds_always_split(n in 2u32..9) {
            let t = (n / 2).max(1);
            let q = QuorumSet::threshold_of(t, ids_vec(n));
            let sys = FbaSystem::new((0..n).map(|i| (NodeId(i), q.clone())));
            match find_disjoint_quorums(&sys) {
                IntersectionResult::Disjoint(a, b) => {
                    prop_assert!(a.is_disjoint(&b));
                    prop_assert!(sys.contains_quorum(&a));
                    prop_assert!(sys.contains_quorum(&b));
                }
                other => prop_assert!(false, "expected split, got {:?}", other),
            }
        }

        /// Both checker paths (closed form where it applies, forced
        /// search) agree with brute-force quorum enumeration on random
        /// heterogeneous flat systems.
        #[test]
        fn both_paths_match_brute_force_flat(
            thresholds in proptest::collection::vec(1u32..6, 4..10),
        ) {
            let n = thresholds.len() as u32;
            let all = ids_vec(n);
            let sys = FbaSystem::new(thresholds.iter().enumerate().map(|(i, t)| {
                (NodeId(i as u32), QuorumSet::threshold_of((*t).min(n), all.clone()))
            }));
            check_against_brute_force(&sys);
        }

        /// Same cross-check on random *nested* two-org systems, where
        /// each node's qset is a threshold over two org-majority inner
        /// sets plus direct validators.
        #[test]
        fn both_paths_match_brute_force_nested(
            split in 2usize..5,
            n in 6u32..10,
            top in 1u32..3,
        ) {
            let all = ids_vec(n);
            let (left, right) = all.split_at(split.min(all.len() - 2));
            let q = QuorumSet {
                threshold: top.min(2),
                validators: vec![],
                inner: vec![
                    QuorumSet::majority(left.to_vec()),
                    QuorumSet::majority(right.to_vec()),
                ],
            };
            let sys = FbaSystem::new((0..n).map(|i| (NodeId(i), q.clone())));
            check_against_brute_force(&sys);
        }

        /// Whatever the checker reports as disjoint quorums really are
        /// disjoint quorums (soundness of the counterexample) on random
        /// heterogeneous systems.
        #[test]
        fn counterexamples_are_sound(
            thresholds in proptest::collection::vec(1u32..6, 6..10),
        ) {
            let n = thresholds.len() as u32;
            let all = ids_vec(n);
            let sys = FbaSystem::new(thresholds.iter().enumerate().map(|(i, t)| {
                (NodeId(i as u32), QuorumSet::threshold_of((*t).min(n), all.clone()))
            }));
            match find_disjoint_quorums(&sys) {
                IntersectionResult::Disjoint(a, b) => {
                    prop_assert!(a.is_disjoint(&b));
                    prop_assert!(!a.is_empty() && !b.is_empty());
                    prop_assert!(sys.contains_quorum(&a), "A not a quorum");
                    prop_assert!(sys.contains_quorum(&b), "B not a quorum");
                }
                IntersectionResult::Intersecting | IntersectionResult::NoQuorum => {}
            }
        }

        /// The maximal quorum really is a quorum and contains every other
        /// quorum the system has.
        #[test]
        fn max_quorum_is_maximal(
            thresholds in proptest::collection::vec(1u32..5, 4..8),
        ) {
            let n = thresholds.len() as u32;
            let all = ids_vec(n);
            let sys = FbaSystem::new(thresholds.iter().enumerate().map(|(i, t)| {
                (NodeId(i as u32), QuorumSet::threshold_of((*t).min(n), all.clone()))
            }));
            let everyone: std::collections::BTreeSet<NodeId> = all.iter().copied().collect();
            let maxq = sys.max_quorum_in(&everyone);
            if !maxq.is_empty() {
                prop_assert!(sys.contains_quorum(&maxq));
            }
        }
    }
}
