//! Ballots and protocol statements, with their vote/accept semantics.
//!
//! SCP's ballot protocol runs federated voting over two families of
//! abstract statements (paper §3.2.1):
//!
//! * `prepare⟨n, x⟩` — "no value other than `x` was or will ever be decided
//!   in any ballot ≤ n";
//! * `commit⟨n, x⟩` — "`x` is decided in ballot `n`".
//!
//! `prepare⟨n, x⟩` contradicts `commit⟨n′, x′⟩` when `n ≥ n′ ∧ x ≠ x′`, and
//! implies `prepare⟨n′, x⟩` for every `n′ ≤ n`.
//!
//! On the wire, a node does not enumerate every statement it has voted for;
//! it broadcasts a compact summary of its current ballot-protocol state
//! ([`StatementKind::Prepare`] / [`Confirm`](StatementKind::Confirm) /
//! [`Externalize`](StatementKind::Externalize), mirroring production
//! `stellar-core`), from which peers *derive* the full set of votes and
//! accepts via the predicate methods on [`StatementKind`]. A later message
//! always subsumes an earlier one, so message loss heals automatically.

use crate::{NodeId, QuorumSet, SlotIndex, Value};
use std::collections::BTreeSet;

/// A ballot `⟨counter, value⟩` (paper §3.2.1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ballot {
    /// The ballot number `n ≥ 1`.
    pub counter: u32,
    /// The candidate value `x`.
    pub value: Value,
}

impl Ballot {
    /// Creates `⟨counter, value⟩`.
    pub fn new(counter: u32, value: Value) -> Ballot {
        Ballot { counter, value }
    }

    /// Two ballots are *compatible* when they carry the same value.
    pub fn compatible(&self, other: &Ballot) -> bool {
        self.value == other.value
    }

    /// `self ⊑ other`: lower-or-equal counter and same value.
    pub fn less_and_compatible(&self, other: &Ballot) -> bool {
        self.counter <= other.counter && self.compatible(other)
    }

    /// `self ⋦ other`: lower-or-equal counter and different value.
    pub fn less_and_incompatible(&self, other: &Ballot) -> bool {
        self.counter <= other.counter && !self.compatible(other)
    }
}

stellar_crypto::impl_codec_struct!(Ballot { counter, value });

/// The four statement kinds a node can broadcast.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StatementKind {
    /// Nomination-protocol state: values voted and accepted as nominees.
    Nominate {
        /// Values this node has voted `nominate x` for.
        voted: BTreeSet<Value>,
        /// Values this node has accepted as nominated.
        accepted: BTreeSet<Value>,
    },
    /// Ballot-protocol prepare phase.
    ///
    /// Semantics (everything this message asserts):
    /// * vote `prepare⟨n, ballot.value⟩` for all `n ≤ ballot.counter`;
    /// * accept `prepare(b)` for all `b ⊑ prepared` and all
    ///   `b ⊑ prepared_prime`;
    /// * if `c_n > 0`: vote `commit⟨n, ballot.value⟩` for `c_n ≤ n ≤ h_n`
    ///   (and `h_n` is the counter of the highest confirmed-prepared
    ///   ballot).
    Prepare {
        /// Current ballot `b` this node is trying to prepare.
        ballot: Ballot,
        /// Highest accepted-prepared ballot, if any.
        prepared: Option<Ballot>,
        /// Highest accepted-prepared ballot incompatible with `prepared`.
        prepared_prime: Option<Ballot>,
        /// Low end of the commit-vote range (0 = not voting commit).
        c_n: u32,
        /// Counter of the highest confirmed-prepared ballot (0 = none).
        h_n: u32,
    },
    /// Ballot-protocol confirm phase: this node accepted `commit⟨n, b.x⟩`
    /// for `c_n ≤ n ≤ h_n`.
    ///
    /// Also asserts: vote `prepare⟨n, b.x⟩` for all `n` (the value is
    /// pinned); accept `prepare⟨n, b.x⟩` for `n ≤ p_n`; vote
    /// `commit⟨n, b.x⟩` for all `n ≥ c_n`.
    Confirm {
        /// Current ballot; its value is the one being committed.
        ballot: Ballot,
        /// Counter of the highest accepted-prepared ballot.
        p_n: u32,
        /// Low end of the accepted-commit range.
        c_n: u32,
        /// High end of the accepted-commit range.
        h_n: u32,
    },
    /// Terminal state: this node confirmed `commit⟨n, commit.value⟩` for
    /// `commit.counter ≤ n ≤ h_n` and has externalized the value.
    ///
    /// Asserts acceptance of `commit⟨n, x⟩` for **all** `n ≥ commit.counter`
    /// and of `prepare⟨∞, x⟩`, so stragglers can still form quorums with
    /// this node at any later ballot.
    Externalize {
        /// The lowest confirmed-committed ballot.
        commit: Ballot,
        /// High end of the confirmed-commit range.
        h_n: u32,
    },
}

impl StatementKind {
    /// True for nomination-protocol statements.
    pub fn is_nomination(&self) -> bool {
        matches!(self, StatementKind::Nominate { .. })
    }

    /// Stable lowercase name of the statement family — the metric key
    /// suffix and flight-recorder label for per-statement-type message
    /// accounting (§7.2).
    pub fn class_name(&self) -> &'static str {
        match self {
            StatementKind::Nominate { .. } => "nominate",
            StatementKind::Prepare { .. } => "prepare",
            StatementKind::Confirm { .. } => "confirm",
            StatementKind::Externalize { .. } => "externalize",
        }
    }

    /// Every distinct value this statement references. Values flood
    /// independently of the payloads they name (transaction sets travel
    /// as separate messages), so a peer relaying or syncing SCP state
    /// uses this to know which payloads the recipient will need.
    pub fn values(&self) -> BTreeSet<Value> {
        match self {
            StatementKind::Nominate { voted, accepted } => {
                voted.iter().chain(accepted.iter()).cloned().collect()
            }
            StatementKind::Prepare {
                ballot,
                prepared,
                prepared_prime,
                ..
            } => [Some(ballot), prepared.as_ref(), prepared_prime.as_ref()]
                .into_iter()
                .flatten()
                .map(|b| b.value.clone())
                .collect(),
            StatementKind::Confirm { ballot, .. } => [ballot.value.clone()].into(),
            StatementKind::Externalize { commit, .. } => [commit.value.clone()].into(),
        }
    }

    /// The ballot counter this statement places its sender at, for ballot
    /// synchronization (§3.2.4). `Externalize` counts as infinity.
    pub fn ballot_counter(&self) -> Option<u32> {
        match self {
            StatementKind::Nominate { .. } => None,
            StatementKind::Prepare { ballot, .. } => Some(ballot.counter),
            StatementKind::Confirm { ballot, .. } => Some(ballot.counter),
            StatementKind::Externalize { .. } => Some(u32::MAX),
        }
    }

    /// Whether the fields are consistent with each other, as an honest
    /// node's ballot summary always is (stellar-core's `isStatementSane`;
    /// one rule per table row). A peer's insane statement is rejected.
    pub fn is_sane(&self) -> bool {
        let rules: &[bool] = match self {
            StatementKind::Nominate { .. } => &[],
            StatementKind::Prepare {
                ballot,
                prepared,
                prepared_prime,
                c_n,
                h_n,
            } => &[
                ballot.counter > 0,
                (prepared_prime.as_ref().zip(prepared.as_ref()))
                    .is_none_or(|(pp, p)| pp.less_and_incompatible(p)),
                *h_n == 0 || prepared.as_ref().is_some_and(|p| *h_n <= p.counter),
                *c_n == 0 || (c_n <= h_n && *h_n <= ballot.counter),
            ],
            StatementKind::Confirm {
                ballot, c_n, h_n, ..
            } => &[ballot.counter > 0, *h_n <= ballot.counter, c_n <= h_n],
            StatementKind::Externalize { commit, h_n } => {
                &[commit.counter > 0, *h_n >= commit.counter]
            }
        };
        rules.iter().all(|holds| *holds)
    }

    /// Whether this statement carries (or implies) a **vote** for
    /// `prepare(b)`.
    pub fn votes_prepare(&self, b: &Ballot) -> bool {
        match self {
            StatementKind::Nominate { .. } => false,
            // Voting prepare⟨n,x⟩ implies prepare⟨n′,x⟩ for n′ ≤ n.
            StatementKind::Prepare { ballot, .. } => b.less_and_compatible(ballot),
            // Confirm pins the value: votes prepare⟨∞, x⟩.
            StatementKind::Confirm { ballot, .. } => b.compatible(ballot),
            StatementKind::Externalize { commit, .. } => b.compatible(commit),
        }
    }

    /// Whether this statement asserts **acceptance** of `prepare(b)`.
    pub fn accepts_prepare(&self, b: &Ballot) -> bool {
        match self {
            StatementKind::Nominate { .. } => false,
            StatementKind::Prepare {
                prepared,
                prepared_prime,
                ..
            } => {
                prepared.as_ref().is_some_and(|p| b.less_and_compatible(p))
                    || prepared_prime
                        .as_ref()
                        .is_some_and(|p| b.less_and_compatible(p))
            }
            StatementKind::Confirm { ballot, p_n, .. } => b.compatible(ballot) && b.counter <= *p_n,
            // Externalize asserts accept prepare⟨∞, x⟩.
            StatementKind::Externalize { commit, .. } => b.compatible(commit),
        }
    }

    /// Whether this statement carries (or implies) a **vote** for
    /// `commit⟨b.counter, b.value⟩`.
    pub fn votes_commit(&self, b: &Ballot) -> bool {
        match self {
            StatementKind::Nominate { .. } => false,
            StatementKind::Prepare {
                ballot, c_n, h_n, ..
            } => *c_n != 0 && b.compatible(ballot) && *c_n <= b.counter && b.counter <= *h_n,
            // Confirm votes commit⟨n,x⟩ for all n ≥ c_n.
            StatementKind::Confirm { ballot, c_n, .. } => b.compatible(ballot) && b.counter >= *c_n,
            StatementKind::Externalize { commit, .. } => {
                b.compatible(commit) && b.counter >= commit.counter
            }
        }
    }

    /// Whether this statement asserts **acceptance** of
    /// `commit⟨b.counter, b.value⟩`.
    pub fn accepts_commit(&self, b: &Ballot) -> bool {
        match self {
            StatementKind::Nominate { .. } | StatementKind::Prepare { .. } => false,
            StatementKind::Confirm {
                ballot, c_n, h_n, ..
            } => b.compatible(ballot) && *c_n <= b.counter && b.counter <= *h_n,
            StatementKind::Externalize { commit, .. } => {
                b.compatible(commit) && b.counter >= commit.counter
            }
        }
    }

    /// Whether this nomination statement votes to nominate `v`.
    pub fn nominates_vote(&self, v: &Value) -> bool {
        match self {
            StatementKind::Nominate { voted, .. } => voted.contains(v),
            _ => false,
        }
    }

    /// Whether this nomination statement accepts `v` as nominated.
    pub fn nominates_accept(&self, v: &Value) -> bool {
        match self {
            StatementKind::Nominate { accepted, .. } => accepted.contains(v),
            _ => false,
        }
    }

    /// Whether a statement supersedes an older one from the same node.
    ///
    /// SCP statements are monotone: nomination sets only grow, and ballot
    /// state only advances (`Prepare < Confirm < Externalize`, then by
    /// ballot/prepared/confirmed fields). A node keeps only the newest
    /// statement per peer per protocol.
    pub fn is_newer_than(&self, old: &StatementKind) -> bool {
        use StatementKind::*;
        match (old, self) {
            (
                Nominate {
                    voted: ov,
                    accepted: oa,
                },
                Nominate {
                    voted: nv,
                    accepted: na,
                },
            ) => {
                // Grown vote/accept sets.
                ov.is_subset(nv) && oa.is_subset(na) && (ov.len() < nv.len() || oa.len() < na.len())
            }
            (Nominate { .. }, _) | (_, Nominate { .. }) => false,
            (
                Prepare {
                    ballot: ob,
                    prepared: op,
                    prepared_prime: opp,
                    c_n: oc,
                    h_n: oh,
                },
                Prepare {
                    ballot: nb,
                    prepared: np,
                    prepared_prime: npp,
                    c_n: nc,
                    h_n: nh,
                },
            ) => {
                let old_key = (ob, op, opp, oh, oc);
                let new_key = (nb, np, npp, nh, nc);
                new_key > old_key
            }
            (
                Confirm {
                    ballot: ob,
                    p_n: op,
                    c_n: oc,
                    h_n: oh,
                },
                Confirm {
                    ballot: nb,
                    p_n: np,
                    c_n: nc,
                    h_n: nh,
                },
            ) => (nb, np, nh, nc) > (ob, op, oh, oc),
            (Externalize { h_n: oh, .. }, Externalize { h_n: nh, .. }) => nh > oh,
            // Phase advance.
            (o, n) => n.tag() > o.tag(),
        }
    }
}

// Tags order the ballot phases, `Prepare < Confirm < Externalize`, for
// `is_newer_than`.
stellar_crypto::impl_codec_enum!(StatementKind: u32 {
    0 => Nominate { voted, accepted },
    1 => Prepare { ballot, prepared, prepared_prime, c_n, h_n },
    2 => Confirm { ballot, p_n, c_n, h_n },
    3 => Externalize { commit, h_n },
});

/// A statement attributed to a node at a slot, carrying the node's quorum
/// set (every message advertises the sender's slices, paper §3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Statement {
    /// The node making this statement.
    pub node: NodeId,
    /// The consensus slot (ledger number).
    pub slot: SlotIndex,
    /// The sender's current quorum-set declaration.
    pub quorum_set: QuorumSet,
    /// The protocol statement itself.
    pub kind: StatementKind,
}

stellar_crypto::impl_codec_struct!(Statement {
    node,
    slot,
    quorum_set,
    kind
});

#[cfg(test)]
mod tests {
    use super::*;

    fn val(b: &[u8]) -> Value {
        Value::new(b.to_vec())
    }

    fn ballot(n: u32, v: &[u8]) -> Ballot {
        Ballot::new(n, val(v))
    }

    #[test]
    fn ballot_relations() {
        let b1 = ballot(1, b"x");
        let b2 = ballot(2, b"x");
        let b2y = ballot(2, b"y");
        assert!(b1.less_and_compatible(&b2));
        assert!(!b2.less_and_compatible(&b1));
        assert!(b1.less_and_incompatible(&b2y));
        assert!(b2.compatible(&b1));
        assert!(!b2.compatible(&b2y));
    }

    #[test]
    fn prepare_statement_vote_semantics() {
        let st = StatementKind::Prepare {
            ballot: ballot(5, b"x"),
            prepared: Some(ballot(3, b"x")),
            prepared_prime: Some(ballot(2, b"y")),
            c_n: 0,
            h_n: 0,
        };
        // Votes prepare for any ⟨n ≤ 5, x⟩.
        assert!(st.votes_prepare(&ballot(5, b"x")));
        assert!(st.votes_prepare(&ballot(1, b"x")));
        assert!(!st.votes_prepare(&ballot(6, b"x")));
        assert!(!st.votes_prepare(&ballot(4, b"y")));
        // Accepts prepared up to 3 for x and up to 2 for y.
        assert!(st.accepts_prepare(&ballot(3, b"x")));
        assert!(st.accepts_prepare(&ballot(2, b"y")));
        assert!(!st.accepts_prepare(&ballot(4, b"x")));
        assert!(!st.accepts_prepare(&ballot(3, b"y")));
        // No commit votes with c_n = 0.
        assert!(!st.votes_commit(&ballot(3, b"x")));
        assert!(!st.accepts_commit(&ballot(3, b"x")));
    }

    #[test]
    fn prepare_statement_commit_votes() {
        let st = StatementKind::Prepare {
            ballot: ballot(5, b"x"),
            prepared: Some(ballot(5, b"x")),
            prepared_prime: None,
            c_n: 3,
            h_n: 5,
        };
        assert!(st.votes_commit(&ballot(3, b"x")));
        assert!(st.votes_commit(&ballot(5, b"x")));
        assert!(!st.votes_commit(&ballot(2, b"x")));
        assert!(!st.votes_commit(&ballot(6, b"x")));
        assert!(!st.votes_commit(&ballot(4, b"y")));
    }

    #[test]
    fn confirm_statement_semantics() {
        let st = StatementKind::Confirm {
            ballot: ballot(7, b"x"),
            p_n: 7,
            c_n: 4,
            h_n: 6,
        };
        // Pinned value: votes prepare⟨∞, x⟩.
        assert!(st.votes_prepare(&ballot(1000, b"x")));
        assert!(!st.votes_prepare(&ballot(1, b"y")));
        assert!(st.accepts_prepare(&ballot(7, b"x")));
        assert!(!st.accepts_prepare(&ballot(8, b"x")));
        // Commit: accepts [4,6], votes everything ≥ 4.
        assert!(st.accepts_commit(&ballot(4, b"x")));
        assert!(st.accepts_commit(&ballot(6, b"x")));
        assert!(!st.accepts_commit(&ballot(7, b"x")));
        assert!(st.votes_commit(&ballot(100, b"x")));
        assert!(!st.votes_commit(&ballot(3, b"x")));
    }

    #[test]
    fn externalize_statement_semantics() {
        let st = StatementKind::Externalize {
            commit: ballot(4, b"x"),
            h_n: 6,
        };
        assert!(st.votes_prepare(&ballot(u32::MAX, b"x")));
        assert!(st.accepts_prepare(&ballot(u32::MAX, b"x")));
        assert!(st.accepts_commit(&ballot(4, b"x")));
        assert!(st.accepts_commit(&ballot(1000, b"x")));
        assert!(!st.accepts_commit(&ballot(3, b"x")));
        assert!(!st.accepts_commit(&ballot(5, b"y")));
        assert_eq!(st.ballot_counter(), Some(u32::MAX));
    }

    #[test]
    fn newer_statement_ordering() {
        let p1 = StatementKind::Prepare {
            ballot: ballot(1, b"x"),
            prepared: None,
            prepared_prime: None,
            c_n: 0,
            h_n: 0,
        };
        let p2 = StatementKind::Prepare {
            ballot: ballot(1, b"x"),
            prepared: Some(ballot(1, b"x")),
            prepared_prime: None,
            c_n: 0,
            h_n: 0,
        };
        assert!(p2.is_newer_than(&p1));
        assert!(!p1.is_newer_than(&p2));
        assert!(!p1.is_newer_than(&p1));

        let c = StatementKind::Confirm {
            ballot: ballot(1, b"x"),
            p_n: 1,
            c_n: 1,
            h_n: 1,
        };
        assert!(c.is_newer_than(&p2));
        assert!(!p2.is_newer_than(&c));

        let e = StatementKind::Externalize {
            commit: ballot(1, b"x"),
            h_n: 1,
        };
        assert!(e.is_newer_than(&c));
    }

    #[test]
    fn newer_nomination_requires_growth() {
        let n1 = StatementKind::Nominate {
            voted: [val(b"a")].into(),
            accepted: BTreeSet::new(),
        };
        let n2 = StatementKind::Nominate {
            voted: [val(b"a"), val(b"b")].into(),
            accepted: BTreeSet::new(),
        };
        let n3 = StatementKind::Nominate {
            voted: [val(b"a"), val(b"b")].into(),
            accepted: [val(b"a")].into(),
        };
        assert!(n2.is_newer_than(&n1));
        assert!(n3.is_newer_than(&n2));
        assert!(!n1.is_newer_than(&n2));
        // Disjoint sets are not "newer" (would lose information).
        let other = StatementKind::Nominate {
            voted: [val(b"z")].into(),
            accepted: BTreeSet::new(),
        };
        assert!(!other.is_newer_than(&n1));
    }

    #[test]
    fn sanity_table_one_row_per_rule() {
        let prepare = |b: u32, p: Option<Ballot>, pp: Option<Ballot>, c_n: u32, h_n: u32| {
            StatementKind::Prepare {
                ballot: ballot(b, b"x"),
                prepared: p,
                prepared_prime: pp,
                c_n,
                h_n,
            }
        };
        let confirm = |b: u32, c_n: u32, h_n: u32| StatementKind::Confirm {
            ballot: ballot(b, b"x"),
            p_n: b,
            c_n,
            h_n,
        };
        let externalize = |c: u32, h_n: u32| StatementKind::Externalize {
            commit: ballot(c, b"x"),
            h_n,
        };
        let p = |n: u32, v: &[u8]| Some(ballot(n, v));
        let rows: Vec<(&str, StatementKind, bool)> = vec![
            (
                "nominate",
                StatementKind::Nominate {
                    voted: BTreeSet::new(),
                    accepted: BTreeSet::new(),
                },
                true,
            ),
            (
                "prepare: sane",
                prepare(5, p(4, b"x"), p(3, b"y"), 2, 4),
                true,
            ),
            (
                "prepare: b.counter > 0",
                prepare(0, None, None, 0, 0),
                false,
            ),
            (
                "prepare: p′ compatible with p",
                prepare(5, p(4, b"x"), p(3, b"x"), 0, 0),
                false,
            ),
            (
                "prepare: p′ above p",
                prepare(5, p(3, b"x"), p(4, b"y"), 0, 0),
                false,
            ),
            (
                "prepare: h_n without p",
                prepare(5, None, None, 0, 2),
                false,
            ),
            (
                "prepare: h_n above p",
                prepare(5, p(2, b"x"), None, 0, 3),
                false,
            ),
            (
                "prepare: c_n above h_n",
                prepare(5, p(4, b"x"), None, 4, 3),
                false,
            ),
            (
                "prepare: h_n above b",
                prepare(3, p(4, b"x"), None, 2, 4),
                false,
            ),
            ("confirm: sane", confirm(5, 2, 4), true),
            ("confirm: b.counter > 0", confirm(0, 0, 0), false),
            ("confirm: h_n above b", confirm(3, 2, 4), false),
            ("confirm: c_n above h_n", confirm(5, 4, 3), false),
            ("externalize: sane", externalize(2, 4), true),
            ("externalize: commit.counter > 0", externalize(0, 4), false),
            ("externalize: h_n below commit", externalize(4, 3), false),
        ];
        for (rule, kind, sane) in rows {
            assert_eq!(kind.is_sane(), sane, "{rule}: {kind:?}");
        }
    }

    #[test]
    fn codec_roundtrip_all_kinds() {
        use stellar_crypto::codec::{Decode, Encode};
        let kinds = vec![
            StatementKind::Nominate {
                voted: [val(b"a"), val(b"b")].into(),
                accepted: [val(b"a")].into(),
            },
            StatementKind::Prepare {
                ballot: ballot(5, b"x"),
                prepared: Some(ballot(3, b"x")),
                prepared_prime: Some(ballot(2, b"y")),
                c_n: 1,
                h_n: 3,
            },
            StatementKind::Confirm {
                ballot: ballot(7, b"x"),
                p_n: 7,
                c_n: 4,
                h_n: 6,
            },
            StatementKind::Externalize {
                commit: ballot(4, b"x"),
                h_n: 6,
            },
        ];
        for k in kinds {
            assert_eq!(StatementKind::from_bytes(&k.to_bytes()).unwrap(), k);
        }
    }
}
