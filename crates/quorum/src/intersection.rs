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
//!
//! Every quorum question is asked of the one compiled kernel SCP's own
//! federated voting uses, [`stellar_scp::quorum::QuorumKernel`]; this
//! module keeps only what is specific to checking.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use stellar_scp::quorum::{CompiledQSet, NodeBits, QuorumKernel};
use stellar_scp::{NodeId, QuorumSet};

/// An FBA system: every known node's declared quorum set.
#[derive(Clone, Debug, Default)]
pub struct FbaSystem {
    /// Per-node quorum sets.
    pub nodes: BTreeMap<NodeId, QuorumSet>,
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

    /// The system compiled onto one kernel: declaring nodes take bits
    /// `0..n` in `NodeId` order, nodes only named in someone's slices
    /// follow.
    pub fn kernel(&self) -> QuorumKernel {
        let mut kernel = QuorumKernel::default();
        for id in self.nodes.keys() {
            kernel.intern(*id);
        }
        for (id, q) in &self.nodes {
            kernel.declare(*id, q);
        }
        kernel
    }

    /// Whether `set` contains a quorum of this system.
    pub fn contains_quorum(&self, set: &BTreeSet<NodeId>) -> bool {
        !self.max_quorum_in(set).is_empty()
    }

    /// The maximal quorum within `set` (empty if none).
    pub fn max_quorum_in(&self, set: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let kernel = self.kernel();
        kernel.ids_of(&kernel.max_quorum(&kernel.bits_of(set)))
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
    let kernel = sys.kernel();
    let core = kernel.max_quorum(&kernel.declared());
    stats.core_nodes = core.iter_ones().count();
    if core.is_empty() {
        return (IntersectionResult::NoQuorum, stats);
    }

    // Closed-form decision for symmetric configurations: every core node
    // declares the identical quorum set (the `synthesize_all` shape).
    if closed_form {
        if let Some(result) = symmetric_decision(&kernel, &core, sys) {
            stats.symmetric = true;
            return (result, stats);
        }
    }

    // SCC case elimination: two different SCCs each containing a quorum
    // yield disjoint quorums directly.
    let core_ids = kernel.ids_of(&core);
    let sccs = trust_sccs(sys, &core_ids);
    stats.scc_count = sccs.len();
    let mut quorum_sccs: Vec<(BTreeSet<NodeId>, NodeBits)> = Vec::new();
    for scc in &sccs {
        let bits = kernel.bits_of(scc);
        let q = kernel.max_quorum(&bits);
        if !q.is_empty() {
            quorum_sccs.push((kernel.ids_of(&q), bits));
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
        if let Some(result) = symmetric_decision(&kernel, &scc_bits, sys) {
            stats.symmetric = true;
            return (result, stats);
        }
    }
    // Branching order: most-trusted first (descending in-degree within
    // the domain), index tie-break. Highly referenced nodes constrain
    // both sides early, so pruning binds near the root of the tree.
    let indeg = in_degrees(&kernel, &scc_bits);
    domain.sort_by_key(|&i| (std::cmp::Reverse(indeg[i]), i));

    let mut search = SplitSearch {
        kernel: &kernel,
        domain: &domain,
        memo: HashMap::new(),
        branches: 0,
        prune_checks: 0,
        memo_hits: 0,
    };
    let empty = NodeBits::empty(kernel.width());
    let hit = search.run(0, empty.clone(), empty);
    stats.branches = search.branches;
    stats.prune_checks = search.prune_checks;
    stats.memo_hits = search.memo_hits;
    match hit {
        Some((qa, qb)) => (
            IntersectionResult::Disjoint(kernel.ids_of(&qa), kernel.ids_of(&qb)),
            stats,
        ),
        None => (IntersectionResult::Intersecting, stats),
    }
}

/// Per-node count of `within`'s quorum sets referencing it (any nesting
/// depth), restricted to `within`.
fn in_degrees(kernel: &QuorumKernel, within: &NodeBits) -> Vec<u32> {
    let mut deg = vec![0u32; kernel.width()];
    fn walk(q: &CompiledQSet, within: &NodeBits, deg: &mut [u32]) {
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
        walk(kernel.slices(i).expect("declared"), within, &mut deg);
    }
    deg
}

// ---------------------------------------------------------------------------
// Symmetric closed form
// ---------------------------------------------------------------------------

/// Closed-form decision for symmetric cores. Returns `None` when the core
/// is not symmetric (callers fall through to the search).
///
/// When every core node declares the identical quorum set, a set `S` is a
/// quorum iff `S` satisfies that shared set, so two disjoint quorums exist
/// iff the quorum-set tree can be *2-split*: a `t`-of-`m` set with `s`
/// splittable inner entries splits iff `2·max(0, t − s) ≤ m − s`
/// (splittable entries serve both sides, the rest at most one). Validator
/// leaves never split; an inner set splits by the same rule recursively.
fn symmetric_decision(
    kernel: &QuorumKernel,
    core: &NodeBits,
    sys: &FbaSystem,
) -> Option<IntersectionResult> {
    let mut ones = core.iter_ones();
    let first = ones.next()?;
    let reference = &sys.nodes[&kernel.id(first)];
    for i in ones {
        if sys.nodes[&kernel.id(i)] != *reference {
            return None;
        }
    }
    let shared = kernel.slices(first).expect("core nodes are declared");
    // Entries only count when they can be satisfied inside the core.
    match split_symmetric(shared, core, kernel.width()) {
        Some((a, b)) => {
            // The constructed sides satisfy the shared set; their maximal
            // quorums are the reported witnesses (non-empty by
            // construction of the split).
            let qa = kernel.max_quorum(&a);
            let qb = kernel.max_quorum(&b);
            if qa.is_empty() || qb.is_empty() {
                // Degenerate tree (threshold-0 entries): fall back to the
                // search rather than report an unsound witness.
                return None;
            }
            Some(IntersectionResult::Disjoint(
                kernel.ids_of(&qa),
                kernel.ids_of(&qb),
            ))
        }
        None => Some(IntersectionResult::Intersecting),
    }
}

/// Greedily collects one subset of `within` satisfying `q`, if any.
fn satisfying_subset(q: &CompiledQSet, within: &NodeBits, n: usize) -> Option<NodeBits> {
    let mut out = NodeBits::empty(n);
    let mut hit = 0u32;
    if hit >= q.threshold {
        return Some(out);
    }
    for v in &q.validators {
        if within.contains(*v as usize) {
            out.insert(*v as usize);
            hit += 1;
            if hit >= q.threshold {
                return Some(out);
            }
        }
    }
    for i in &q.inner {
        if let Some(sub) = satisfying_subset(i, within, n) {
            out = out.union(&sub);
            hit += 1;
            if hit >= q.threshold {
                return Some(out);
            }
        }
    }
    None
}

/// Attempts to split `q` into two disjoint node sets within `core`, each
/// satisfying `q`. Returns the sides if the tree admits a split.
fn split_symmetric(q: &CompiledQSet, core: &NodeBits, n: usize) -> Option<(NodeBits, NodeBits)> {
    // Classify entries: usable validators serve exactly one side; inner
    // sets either split (serve both), satisfy one side, or are dead.
    enum Entry {
        Validator(usize),
        Both(NodeBits, NodeBits),
        One(NodeBits),
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
        } else if let Some(sub) = satisfying_subset(i, core, n) {
            entries.push(Entry::One(sub));
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
    let mut a = NodeBits::empty(n);
    let mut b = NodeBits::empty(n);
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
    kernel: &'a QuorumKernel,
    domain: &'a [usize],
    memo: HashMap<NodeBits, bool>,
    branches: u64,
    prune_checks: u64,
    memo_hits: u64,
}

impl SplitSearch<'_> {
    fn embeds_quorum(&mut self, candidate: NodeBits) -> bool {
        if let Some(hit) = self.memo.get(&candidate) {
            self.memo_hits += 1;
            return *hit;
        }
        self.prune_checks += 1;
        let v = !self.kernel.max_quorum(&candidate).is_empty();
        self.memo.insert(candidate, v);
        v
    }

    /// Recursive two-way partition search with embedding pruning. Every
    /// domain node is labeled A or B ("neither" is unnecessary: padding a
    /// disjoint pair with extra nodes keeps both maximal quorums
    /// non-empty). The first labeled node always goes to side A
    /// (symmetry breaking).
    fn run(&mut self, at: usize, a: NodeBits, b: NodeBits) -> Option<(NodeBits, NodeBits)> {
        self.branches += 1;
        // Success test on committed sets.
        if !a.is_empty() && !b.is_empty() {
            let qa = self.kernel.max_quorum(&a);
            if !qa.is_empty() {
                let qb = self.kernel.max_quorum(&b);
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
        let mut undecided = NodeBits::empty(self.kernel.width());
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
