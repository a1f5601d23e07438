//! Byzantine adversary nodes: scripted attacks against live SCP.
//!
//! An adversary drives a *puppet* validator inside the simulation (see
//! `Node::make_puppet`): the puppet holds real keys and sits in
//! honest nodes' quorum sets, but runs no protocol logic. Between
//! simulation steps the chaos runner hands the adversary everything the
//! puppet received and injects whatever the adversary wants to say — at
//! the envelope level, so honest nodes exercise their full signature
//! verification, statement processing, and federated-voting paths on
//! well-formed malicious input.
//!
//! The strategies here map to the paper's §3 threat model: Byzantine
//! nodes may say arbitrary, contradictory things to different peers, but
//! cannot forge other nodes' signatures. SCP guarantees safety for
//! *intact* nodes as long as befouled sets stay below the quorum
//! intersection threshold — which is exactly what the
//! [`crate::monitor::InvariantMonitor`] checks while these adversaries
//! run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use stellar_crypto::sign::KeyPair;
use stellar_overlay::FloodMessage;
use stellar_scp::{forge, Ballot, Envelope, NodeId, QuorumSet, SlotIndex, StatementKind, Value};
use stellar_sim::events::Flooded;

/// What an adversary wants the network layer to do after its turn.
#[derive(Clone, Debug)]
pub enum Injection {
    /// Send `msg` from the puppet to exactly one peer (the equivocation
    /// path: different peers get different payloads).
    Direct {
        /// The targeted peer.
        to: NodeId,
        /// The payload.
        msg: FloodMessage,
    },
    /// Flood `msg` from the puppet to all its overlay peers.
    Broadcast {
        /// The payload.
        msg: FloodMessage,
    },
}

/// The attack an adversary runs. All strategies are deterministic given
/// the adversary's seed and the traffic it observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Vote for different nomination values toward different peers: half
    /// the network hears `voted {a}`, the other half `voted {b}`.
    EquivocateNomination,
    /// Claim to have confirmed commit for different ballot values toward
    /// different peers — the classic safety attack on ballot protocols.
    SplitConfirm,
    /// Re-flood stale envelopes recorded from earlier slots, stressing
    /// flood de-duplication and old-slot handling.
    ReplayStale,
    /// Say nothing at all while staying subscribed: honest nodes must
    /// reach agreement treating the node as failed, even though it still
    /// occupies their quorum slices.
    Silent,
}

/// A Byzantine driver for one puppet node.
pub struct Adversary {
    id: NodeId,
    keys: KeyPair,
    qset: QuorumSet,
    strategy: Strategy,
    rng: StdRng,
    /// Honest peers this adversary targets with direct sends.
    targets: Vec<NodeId>,
    /// Highest slot observed in incoming envelopes.
    max_slot: SlotIndex,
    /// Last slot this adversary attacked.
    acted_slot: SlotIndex,
    /// Values seen nominated for `max_slot`.
    nominated: BTreeSet<Value>,
    /// Ballot values seen for `max_slot`.
    balloted: BTreeSet<Value>,
    /// Envelopes recorded for replay (bounded).
    archive: Vec<Envelope>,
    /// Count of injections made (metric for experiments).
    injected: u64,
}

/// Cap on the replay archive; old slots dominate, which is the point.
const ARCHIVE_CAP: usize = 512;

impl Adversary {
    /// Creates an adversary driving puppet `id`. `keys` and `qset` must
    /// match what the simulation built for that node so forged envelopes
    /// verify; `targets` are the honest nodes to attack.
    pub fn new(
        id: NodeId,
        keys: KeyPair,
        qset: QuorumSet,
        strategy: Strategy,
        targets: Vec<NodeId>,
        seed: u64,
    ) -> Adversary {
        Adversary {
            id,
            keys,
            qset,
            strategy,
            // Distinct stream per puppet so multi-adversary runs stay
            // reproducible regardless of turn interleaving.
            rng: StdRng::seed_from_u64(seed ^ 0xBAD ^ u64::from(id.0) << 32),
            targets,
            max_slot: 0,
            acted_slot: 0,
            nominated: BTreeSet::new(),
            balloted: BTreeSet::new(),
            archive: Vec::new(),
            injected: 0,
        }
    }

    /// The puppet this adversary drives.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The attack being run.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Total envelopes injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// One adversary turn: digest the puppet's freshly drained inbox,
    /// then decide what (if anything) to say. Called by the chaos runner
    /// after every simulation step.
    pub fn turn(&mut self, inbox: &[(NodeId, Flooded)]) -> Vec<Injection> {
        for (_, flooded) in inbox {
            if let FloodMessage::Scp(env) = &flooded.msg {
                self.observe(env);
            }
        }
        let out = self.act();
        self.injected += out.len() as u64;
        out
    }

    fn observe(&mut self, env: &Envelope) {
        let st = &env.statement;
        if st.slot > self.max_slot {
            self.max_slot = st.slot;
            self.nominated.clear();
            self.balloted.clear();
        }
        if st.slot == self.max_slot {
            match &st.kind {
                StatementKind::Nominate { voted, accepted } => {
                    self.nominated.extend(voted.iter().cloned());
                    self.nominated.extend(accepted.iter().cloned());
                }
                StatementKind::Prepare { ballot, .. } | StatementKind::Confirm { ballot, .. } => {
                    self.balloted.insert(ballot.value.clone());
                }
                StatementKind::Externalize { commit, .. } => {
                    self.balloted.insert(commit.value.clone());
                }
            }
        }
        if self.archive.len() < ARCHIVE_CAP {
            self.archive.push(env.clone());
        }
    }

    /// A value no honest node proposed — contradiction material when the
    /// adversary has seen fewer than two real candidates.
    fn fabricated(&self, slot: SlotIndex) -> Value {
        Value::new(format!("byz-{}-slot-{slot}", self.id.0).into_bytes())
    }

    /// Two conflicting values for `slot`: real candidates when observed,
    /// fabricated otherwise.
    fn conflicting_pair(&self, pool: &BTreeSet<Value>, slot: SlotIndex) -> (Value, Value) {
        let mut it = pool.iter();
        let a = it.next().cloned().unwrap_or_else(|| self.fabricated(slot));
        let b = it
            .next()
            .cloned()
            .unwrap_or_else(|| self.fabricated(slot + 1_000_000));
        (a, b)
    }

    fn act(&mut self) -> Vec<Injection> {
        if self.strategy == Strategy::Silent {
            return Vec::new();
        }
        // Attack each slot once, as soon as honest traffic reveals it.
        if self.max_slot == 0 || self.max_slot <= self.acted_slot {
            return Vec::new();
        }
        let slot = self.max_slot;
        self.acted_slot = slot;
        match self.strategy {
            Strategy::EquivocateNomination => {
                let (a, b) = self.conflicting_pair(&self.nominated.clone(), slot);
                self.split_send(
                    slot,
                    |this, v, side| {
                        let voted: BTreeSet<Value> = [v.clone()].into();
                        // One side also hears a bogus "accepted" claim, so
                        // honest nodes exercise the accept-vs-vote paths.
                        let accepted = if side { voted.clone() } else { BTreeSet::new() };
                        FloodMessage::Scp(forge::nominate(
                            &this.keys,
                            this.id,
                            slot,
                            this.qset.clone(),
                            voted,
                            accepted,
                        ))
                    },
                    a,
                    b,
                )
            }
            Strategy::SplitConfirm => {
                // Prefer real ballot values; fall back to nominated ones
                // early in the slot.
                let pool = if self.balloted.is_empty() {
                    self.nominated.clone()
                } else {
                    self.balloted.clone()
                };
                let (a, b) = self.conflicting_pair(&pool, slot);
                self.split_send(
                    slot,
                    |this, v, _| {
                        FloodMessage::Scp(forge::confirm(
                            &this.keys,
                            this.id,
                            slot,
                            this.qset.clone(),
                            Ballot::new(1, v.clone()),
                            1,
                            1,
                        ))
                    },
                    a,
                    b,
                )
            }
            Strategy::ReplayStale => {
                let stale: Vec<usize> = self
                    .archive
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.statement.slot < slot)
                    .map(|(i, _)| i)
                    .collect();
                let mut out = Vec::new();
                for _ in 0..3usize.min(stale.len()) {
                    let pick = stale[self.rng.gen_range(0usize..stale.len())];
                    out.push(Injection::Broadcast {
                        msg: FloodMessage::Scp(self.archive[pick].clone()),
                    });
                }
                out
            }
            Strategy::Silent => unreachable!("handled above"),
        }
    }

    /// Sends `make(value_a)` to even-indexed targets and `make(value_b)`
    /// to odd-indexed ones — the two halves of the network hear
    /// contradictory statements from the same signer.
    fn split_send(
        &mut self,
        _slot: SlotIndex,
        make: impl Fn(&Adversary, &Value, bool) -> FloodMessage,
        a: Value,
        b: Value,
    ) -> Vec<Injection> {
        let targets = self.targets.clone();
        targets
            .iter()
            .enumerate()
            .map(|(i, to)| {
                let side = i % 2 == 0;
                let v = if side { &a } else { &b };
                Injection::Direct {
                    to: *to,
                    msg: make(self, v, side),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_scp::Statement;

    fn qset() -> QuorumSet {
        QuorumSet::majority((0..4).map(NodeId).collect())
    }

    fn adversary(strategy: Strategy) -> Adversary {
        Adversary::new(
            NodeId(3),
            KeyPair::from_seed(3),
            qset(),
            strategy,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            7,
        )
    }

    fn honest_nominate(slot: SlotIndex, value: &[u8]) -> (NodeId, Flooded) {
        let keys = KeyPair::from_seed(0);
        let env = forge::nominate(
            &keys,
            NodeId(0),
            slot,
            qset(),
            [Value::new(value.to_vec())].into(),
            BTreeSet::new(),
        );
        (NodeId(0), Flooded::new(FloodMessage::Scp(env)))
    }

    fn scp_statement(inj: &Injection) -> &Statement {
        let msg = match inj {
            Injection::Direct { msg, .. } | Injection::Broadcast { msg } => msg,
        };
        match msg {
            FloodMessage::Scp(env) => &env.statement,
            other => panic!("expected SCP injection, got {other:?}"),
        }
    }

    #[test]
    fn equivocator_tells_peers_different_values() {
        let mut adv = adversary(Strategy::EquivocateNomination);
        let out = adv.turn(&[honest_nominate(2, b"real")]);
        assert_eq!(out.len(), 3, "one direct send per target");
        let mut voted_sets = BTreeSet::new();
        for inj in &out {
            match &scp_statement(inj).kind {
                StatementKind::Nominate { voted, .. } => {
                    voted_sets.insert(voted.clone());
                }
                k => panic!("expected nominate, got {k:?}"),
            }
        }
        assert!(
            voted_sets.len() >= 2,
            "peers must hear contradictory nomination votes"
        );
        // One attack per slot: a second turn with no new slot is quiet.
        assert!(adv.turn(&[]).is_empty());
    }

    #[test]
    fn split_confirm_signs_conflicting_ballots() {
        let mut adv = adversary(Strategy::SplitConfirm);
        let out = adv.turn(&[honest_nominate(5, b"x")]);
        let mut values = BTreeSet::new();
        for inj in &out {
            match &scp_statement(inj).kind {
                StatementKind::Confirm { ballot, .. } => {
                    values.insert(ballot.value.clone());
                }
                k => panic!("expected confirm, got {k:?}"),
            }
        }
        assert_eq!(values.len(), 2, "two conflicting confirmed ballots");
    }

    #[test]
    fn replay_rebroadcasts_only_stale_slots() {
        let mut adv = adversary(Strategy::ReplayStale);
        assert!(
            adv.turn(&[honest_nominate(1, b"a")]).is_empty(),
            "nothing stale yet"
        );
        let out = adv.turn(&[honest_nominate(2, b"b")]);
        assert!(!out.is_empty());
        for inj in &out {
            assert!(scp_statement(inj).slot < 2);
            assert!(matches!(inj, Injection::Broadcast { .. }));
        }
    }

    #[test]
    fn silent_adversary_never_speaks() {
        let mut adv = adversary(Strategy::Silent);
        for slot in 1..5 {
            assert!(adv.turn(&[honest_nominate(slot, b"v")]).is_empty());
        }
        assert_eq!(adv.injected(), 0);
    }
}
