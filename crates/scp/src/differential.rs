//! The incremental evaluator against the one it replaced.
//!
//! A `LatestStatements` with `oracle` set answers every question from
//! scratch and never skips an evaluation, as the evaluator before the
//! vote memo did. Over random federated Byzantine agreement systems (the
//! kernel proptests' generator) and random streams of sane statements,
//! the two must reach the same accept, confirm and v-blocking verdicts,
//! and drive the ballot and nomination protocols to the same emitted
//! statements, events, timers and driver calls.

#[path = "../../../tests/support/fbas.rs"]
mod fbas;

use crate::ballot::BallotProtocol;
use crate::driver::{Driver, ScpEvent, TimerKind, Validity};
use crate::nomination::NominationProtocol;
use crate::quorum::{LatestStatements, Question, ACCEPT, CONFIRM, V_BLOCKING};
use crate::slot::Ctx;
use crate::statement::{Ballot, Statement, StatementKind};
use crate::{Envelope, NodeId, QuorumSet, SlotIndex, Value};
use fbas::{random_fbas, random_qset, Fbas};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;
use stellar_crypto::sign::{KeyPair, PublicKey};

/// Steps per stream.
const STEPS: usize = 60;

fn val(i: u8) -> Value {
    Value::new(vec![i])
}

/// A driver that logs every call, with `late` invalid until step
/// `valid_from` (a transaction set that arrives late).
struct Recorder {
    log: Vec<String>,
    late: Value,
    valid_from: usize,
    step: usize,
}

impl Recorder {
    fn new(late: Value, valid_from: usize) -> Recorder {
        Recorder {
            log: Vec::new(),
            late,
            valid_from,
            step: 0,
        }
    }
}

impl Driver for Recorder {
    fn validate_value(&mut self, _: SlotIndex, v: &Value, nomination: bool) -> Validity {
        self.log.push(format!("validate {v:?} {nomination}"));
        if *v == self.late && self.step < self.valid_from {
            Validity::Invalid
        } else {
            Validity::FullyValidated
        }
    }
    fn combine_candidates(&mut self, _: SlotIndex, c: &BTreeSet<Value>) -> Option<Value> {
        c.iter().next_back().cloned()
    }
    fn emit_envelope(&mut self, envelope: &Envelope) {
        self.log.push(format!("emit {:?}", envelope.statement));
    }
    fn set_timer(&mut self, _: SlotIndex, kind: TimerKind, delay: Option<Duration>) {
        self.log.push(format!("timer {kind:?} {delay:?}"));
    }
    fn externalized(&mut self, _: SlotIndex, value: &Value) {
        self.log.push(format!("externalized {value:?}"));
    }
    fn public_key(&self, node: NodeId) -> Option<PublicKey> {
        Some(KeyPair::from_seed(u64::from(node.0)).public())
    }
    fn on_event(&mut self, event: ScpEvent) {
        self.log.push(format!("{event:?}"));
    }
}

/// One random system: the local node, its slices, and every other node's.
struct System {
    me: NodeId,
    qset: QuorumSet,
    peers: Vec<(NodeId, QuorumSet)>,
    universe: u32,
}

impl System {
    /// A system from the kernel proptests' generator; it has at least two
    /// nodes, so the local node has a peer.
    fn random(rng: &mut StdRng) -> System {
        let (fbas, universe): (Fbas, u32) = random_fbas(rng);
        let me = NodeId(rng.gen_range(0..fbas.len() as u32));
        let peers: Vec<(NodeId, QuorumSet)> = (0..universe)
            .map(NodeId)
            .filter(|n| *n != me)
            .map(|n| {
                let q = fbas.get(&n).cloned();
                (n, q.unwrap_or_else(|| random_qset(rng, universe, 1)))
            })
            .collect();
        System {
            qset: fbas[&me].clone(),
            me,
            peers,
            universe,
        }
    }

    /// A peer's statement of `kind`, now and then under retuned slices.
    fn peer_statement(&self, rng: &mut StdRng, kind: StatementKind) -> Statement {
        let (node, qset) = &self.peers[rng.gen_range(0..self.peers.len())];
        let quorum_set = if rng.gen_range(0..20) == 0 {
            random_qset(rng, self.universe, 1)
        } else {
            qset.clone()
        };
        Statement {
            node: *node,
            slot: 1,
            quorum_set,
            kind,
        }
    }
}

/// A ballot on one of three values.
fn random_ballot(rng: &mut StdRng, counter_max: u32) -> Ballot {
    let counter = if rng.gen_range(0..8) == 0 {
        u32::MAX
    } else {
        rng.gen_range(1..=counter_max)
    };
    Ballot::new(counter, val(rng.gen_range(0..3)))
}

/// A random sane ballot statement over three values and small counters.
fn random_ballot_kind(rng: &mut StdRng) -> StatementKind {
    loop {
        let n = |rng: &mut StdRng| rng.gen_range(0..=4u32);
        let kind = match rng.gen_range(0..5) {
            0..=2 => StatementKind::Prepare {
                ballot: random_ballot(rng, 4),
                prepared: rng.gen_bool(0.6).then(|| random_ballot(rng, 4)),
                prepared_prime: rng.gen_bool(0.2).then(|| random_ballot(rng, 4)),
                c_n: if rng.gen_bool(0.5) { 0 } else { n(rng) },
                h_n: n(rng),
            },
            3 => StatementKind::Confirm {
                ballot: random_ballot(rng, 4),
                p_n: n(rng),
                c_n: n(rng),
                h_n: n(rng),
            },
            _ => StatementKind::Externalize {
                commit: random_ballot(rng, 3),
                h_n: n(rng),
            },
        };
        if kind.is_sane() {
            return kind;
        }
    }
}

/// Every question the protocols could ask about three values and small
/// counters.
fn questions() -> Vec<Question> {
    let mut out = Vec::new();
    for v in 0..3 {
        out.push(Question::Nominate(val(v)));
        for n in [0, 1, 2, 3, 4, u32::MAX] {
            out.push(Question::Prepare(Ballot::new(n, val(v))));
            out.push(Question::Commit(Ballot::new(n, val(v))));
        }
    }
    out.extend([0, 1, 2, 3, 4, 5, u32::MAX].map(Question::AtLeast));
    out
}

/// A protocol pair, one per evaluator, stepped in lockstep.
struct Twin<P> {
    incremental: (P, Recorder),
    oracle: (P, Recorder),
}

impl<P> Twin<P> {
    fn step(
        &mut self,
        system: &System,
        keys: &KeyPair,
        step: usize,
        f: impl Fn(&mut P, &mut Ctx<'_, Recorder>),
    ) {
        for (protocol, driver) in [&mut self.incremental, &mut self.oracle] {
            driver.step = step;
            let mut ctx = Ctx {
                node: system.me,
                slot: 1,
                qset: &system.qset,
                keys,
                driver,
            };
            f(protocol, &mut ctx);
        }
    }

    fn logs(&self) -> (&[String], &[String]) {
        (&self.incremental.1.log, &self.oracle.1.log)
    }
}

proptest! {
    /// After every statement stored, each question's memoized verdicts
    /// equal the ones rebuilt from scratch — whether the question was
    /// asked before (its memo kept current by re-testing the sender) or
    /// is asked for the first time.
    #[test]
    fn memoized_verdicts_match_the_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = System::random(&mut rng);
        let all = questions();
        let mut latest = LatestStatements::default();
        latest.begin(system.me, &system.qset);
        let mut voted: Vec<BTreeSet<Value>> = vec![BTreeSet::new(); system.peers.len()];
        for _ in 0..STEPS {
            let kind = if rng.gen_bool(0.3) {
                let i = rng.gen_range(0..voted.len());
                voted[i].insert(val(rng.gen_range(0..3)));
                let accepted = voted[i].iter().filter(|_| rng.gen_bool(0.5)).cloned().collect();
                StatementKind::Nominate { voted: voted[i].clone(), accepted }
            } else {
                random_ballot_kind(&mut rng)
            };
            latest.record(&system.peer_statement(&mut rng, kind));
            if rng.gen_bool(0.2) {
                latest.end(true);
                latest.begin(system.me, &system.qset);
            }
            for q in all.iter().filter(|_| rng.gen_bool(0.3)) {
                let memo = (latest.verdict(q, ACCEPT), latest.verdict(q, CONFIRM), latest.verdict(q, V_BLOCKING));
                prop_assert_eq!(memo, latest.scratch(q), "{:?}", q);
            }
        }
    }

    /// The ballot protocol on either evaluator, fed the same peer
    /// statements, composites and timeouts, does exactly the same things.
    #[test]
    fn ballot_protocol_matches_the_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = System::random(&mut rng);
        let keys = KeyPair::from_seed(u64::from(system.me.0));
        let fresh = || (BallotProtocol::new(), Recorder::new(val(9), 0));
        let mut twin = Twin { incremental: fresh(), oracle: fresh() };
        twin.oracle.0.latest.oracle = true;
        for step in 0..STEPS {
            match rng.gen_range(0..12) {
                0 => {
                    let v = val(rng.gen_range(0..3));
                    twin.step(&system, &keys, step, |bp, ctx| bp.on_composite(ctx, v.clone()));
                }
                1 => twin.step(&system, &keys, step, |bp, ctx| bp.on_timeout(ctx)),
                _ => {
                    let kind = random_ballot_kind(&mut rng);
                    let st = system.peer_statement(&mut rng, kind);
                    twin.step(&system, &keys, step, |bp, ctx| bp.process(ctx, &st));
                }
            }
            let (incremental, oracle) = twin.logs();
            prop_assert_eq!(incremental, oracle, "step {}", step);
        }
    }

    /// The nomination protocol on either evaluator, fed the same peer
    /// statements and round timeouts, with one value invalid until a
    /// random step, does exactly the same things.
    #[test]
    fn nomination_protocol_matches_the_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = System::random(&mut rng);
        let keys = KeyPair::from_seed(u64::from(system.me.0));
        let valid_from = rng.gen_range(0..STEPS);
        let fresh = || (NominationProtocol::new(), Recorder::new(val(2), valid_from));
        let mut twin = Twin { incremental: fresh(), oracle: fresh() };
        twin.oracle.0.latest.oracle = true;
        let mut sent: Vec<(BTreeSet<Value>, BTreeSet<Value>)> = vec![Default::default(); system.peers.len()];
        let start = rng.gen_range(0..STEPS / 2);
        for step in 0..STEPS {
            if step == start {
                let v = val(rng.gen_range(0..3));
                twin.step(&system, &keys, step, |np, ctx| { np.start(ctx, v.clone()); });
            } else if rng.gen_range(0..10) == 0 {
                twin.step(&system, &keys, step, |np, ctx| { np.on_timeout(ctx); });
            } else {
                // Peers' statements only grow, as honest ones do.
                let peer = rng.gen_range(0..sent.len());
                let (voted, accepted) = &mut sent[peer];
                let v = val(rng.gen_range(0..3));
                if rng.gen_bool(0.6) { voted.insert(v) } else { accepted.insert(v) };
                let kind = StatementKind::Nominate { voted: voted.clone(), accepted: accepted.clone() };
                let (node, qset) = system.peers[peer].clone();
                let st = Statement { node, slot: 1, quorum_set: qset, kind };
                twin.step(&system, &keys, step, |np, ctx| { np.process(ctx, &st); });
            }
            let (incremental, oracle) = twin.logs();
            prop_assert_eq!(incremental, oracle, "step {}", step);
        }
    }
}
