//! The nomination protocol (paper §3.2.2).
//!
//! Nomination runs federated voting on `nominate x` statements. Unlike
//! ballot statements, nominations never contradict each other — any number
//! of values can be (and usually are) confirmed nominated. The guarantees
//! that matter:
//!
//! * once a node confirms any nominate statement it **stops voting for new
//!   values**, so the confirmed set stays finite;
//! * confirmed statements spread through intact sets (cascade theorem), so
//!   intact nodes eventually converge on the same candidate set and hence
//!   the same composite value.
//!
//! To keep the number of distinct nominated values small, only *leaders*
//! (chosen by [`crate::leader`]) introduce new values; everyone else echoes
//! their leaders' votes. Leader-set growth on timeout tolerates leader
//! failure.
//!
//! What survives a restart is the node's own latest NOMINATE, i.e. its
//! `voted` and `accepted` sets ([`NominationProtocol::restore`]); round,
//! leaders and candidates are re-derived when the slot is next triggered.

use crate::driver::{Driver, ScpEvent, TimerKind, Validity};
use crate::leader;
use crate::quorum::{LatestStatements, Question, ACCEPT, CONFIRM};
use crate::slot::Ctx;
use crate::statement::{Statement, StatementKind};
use crate::{Envelope, NodeId, QuorumSet, SlotIndex, Value};
use std::collections::BTreeSet;

/// Per-slot nomination state machine.
#[derive(Debug, Default)]
pub struct NominationProtocol {
    started: bool,
    stopped: bool,
    round: u32,
    leaders: BTreeSet<NodeId>,
    /// Values this node voted `nominate x` for.
    voted: BTreeSet<Value>,
    /// Values accepted as nominated.
    accepted: BTreeSet<Value>,
    /// Values confirmed nominated — the candidate set fed to balloting.
    candidates: BTreeSet<Value>,
    /// Latest nominate statement per node (including our own).
    pub(crate) latest: LatestStatements,
    /// The locally proposed value (from the application), if we lead.
    proposed: Option<Value>,
}

impl NominationProtocol {
    /// Heap bytes the protocol state holds.
    pub(crate) fn resident_bytes(&self) -> u64 {
        stellar_crypto::heap::btree(self.leaders.len(), std::mem::size_of::<NodeId>())
            + crate::value_set_bytes(&self.voted)
            + crate::value_set_bytes(&self.accepted)
            + crate::value_set_bytes(&self.candidates)
            + self.latest.resident_bytes()
            + self.proposed.as_ref().map_or(0, Value::resident_bytes)
    }

    /// Creates an idle nomination protocol.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current confirmed-nominated candidate set.
    pub fn candidates(&self) -> &BTreeSet<Value> {
        &self.candidates
    }

    #[cfg(test)]
    /// Current leader set (grows with rounds).
    pub fn leaders(&self) -> &BTreeSet<NodeId> {
        &self.leaders
    }

    /// Whether nomination has begun.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The latest nomination statement seen from `node`.
    pub fn latest_statement(&self, node: NodeId) -> Option<&Statement> {
        self.latest.get(&node)
    }

    /// Rebuilds the votes from this node's own latest NOMINATE after a
    /// restart: `voted` and `accepted` are what it says, and it is
    /// recorded as our latest. The slot is left unstarted — round,
    /// leaders and candidates are re-derived when it is next triggered
    /// ([`NominationProtocol::start`]) from peers' statements, which come
    /// back through the reconnect exchange.
    pub fn restore(&mut self, own: &Statement) {
        if let StatementKind::Nominate { voted, accepted } = &own.kind {
            self.voted = voted.clone();
            self.accepted = accepted.clone();
            let st = self.own_statement(own.node, own.slot, &own.quorum_set);
            self.latest.insert(st);
        }
    }

    /// Begins nominating `proposed` (round 1).
    ///
    /// Returns `true` if the candidate set changed (it can, if statements
    /// from peers arrived before we started).
    pub fn start<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, proposed: Value) -> bool {
        if self.started {
            // A fresh proposal can still be adopted if we lead and haven't
            // confirmed candidates yet.
            self.proposed = Some(proposed);
            let changed = self.add_leader_votes(ctx);
            if changed {
                self.emit(ctx);
            }
            return self.run_federated_voting(ctx);
        }
        self.started = true;
        self.round = 1;
        self.proposed = Some(proposed);
        self.leaders.insert(leader::round_leader(
            ctx.node, ctx.qset, ctx.slot, self.round,
        ));
        ctx.driver
            .on_event(ScpEvent::NominationStarted { slot: ctx.slot });
        ctx.driver.on_event(ScpEvent::NominationRoundStarted {
            slot: ctx.slot,
            round: self.round,
        });
        self.add_leader_votes(ctx);
        self.emit(ctx);
        let delay = ctx.driver.nomination_timeout(self.round);
        ctx.driver
            .set_timer(ctx.slot, TimerKind::Nomination, Some(delay));
        self.run_federated_voting(ctx)
    }

    /// Handles a nomination round timeout: widen the leader set and re-arm.
    ///
    /// Returns `true` if the candidate set changed.
    pub fn on_timeout<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if !self.started || self.stopped {
            return false;
        }
        ctx.driver.on_event(ScpEvent::TimeoutFired {
            slot: ctx.slot,
            kind: TimerKind::Nomination,
        });
        self.round += 1;
        ctx.driver.on_event(ScpEvent::NominationRoundStarted {
            slot: ctx.slot,
            round: self.round,
        });
        self.leaders.insert(leader::round_leader(
            ctx.node, ctx.qset, ctx.slot, self.round,
        ));
        if self.add_leader_votes(ctx) {
            self.emit(ctx);
        }
        let delay = ctx.driver.nomination_timeout(self.round);
        ctx.driver
            .set_timer(ctx.slot, TimerKind::Nomination, Some(delay));
        self.run_federated_voting(ctx)
    }

    /// Re-evaluates leader votes and federated voting after the embedder
    /// learned new application state (e.g. a transaction set arrived and a
    /// previously unvalidatable value can now be voted for).
    ///
    /// Returns `true` if the candidate set changed.
    pub fn retry<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if !self.started || self.stopped {
            return false;
        }
        if self.add_leader_votes(ctx) {
            self.emit(ctx);
        }
        self.run_federated_voting(ctx)
    }

    /// Stops nominating (called once balloting decides); cancels the round
    /// timer and suppresses further votes.
    pub fn stop<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if !self.stopped {
            self.stopped = true;
            ctx.driver.set_timer(ctx.slot, TimerKind::Nomination, None);
        }
    }

    /// Processes a peer's nomination statement. Federated voting runs only
    /// when the statement changed one of its inputs (see
    /// [`crate::ballot::BallotProtocol::process`]).
    ///
    /// Returns `true` if the candidate set changed (the slot then rebuilds
    /// the composite value).
    pub fn process<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, st: &Statement) -> bool {
        debug_assert!(st.kind.is_nomination());
        if !self.latest.record(st) {
            return false;
        }
        let mut emitted_change = false;
        if self.started && self.leaders.contains(&st.node) {
            emitted_change = self.add_leader_votes(ctx);
        }
        if emitted_change {
            self.emit(ctx);
        }
        if self.started && self.latest.unsettled(ctx.node, ctx.qset) {
            self.run_federated_voting(ctx)
        } else {
            false
        }
    }

    /// Votes for our own value (if we lead) and echoes leaders' votes.
    ///
    /// Per §3.2.2, no new votes once a candidate is confirmed. Returns
    /// whether the vote set grew.
    fn add_leader_votes<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if !self.candidates.is_empty() || self.stopped {
            return false;
        }
        let mut new_votes: Vec<Value> = Vec::new();
        if self.leaders.contains(&ctx.node) {
            if let Some(v) = self.proposed.clone() {
                if !self.voted.contains(&v) {
                    new_votes.push(v);
                }
            }
        }
        for l in &self.leaders {
            if *l == ctx.node {
                continue;
            }
            if let Some(st) = self.latest.get(l) {
                if let StatementKind::Nominate { voted, accepted } = &st.kind {
                    for v in voted.iter().chain(accepted.iter()) {
                        if !self.voted.contains(v) {
                            new_votes.push(v.clone());
                        }
                    }
                }
            }
        }
        let mut grew = false;
        for v in new_votes {
            if ctx.driver.validate_value(ctx.slot, &v, true) == Validity::FullyValidated
                && self.voted.insert(v)
            {
                grew = true;
            }
        }
        grew
    }

    /// Runs federated voting over every value mentioned by anyone, to a
    /// fixpoint. Returns `true` if the candidate set changed.
    ///
    /// A value the quorum accepts but the driver calls invalid may turn
    /// valid later (its transaction set arrives), so a run that vetoed one
    /// does not settle.
    fn run_federated_voting<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        self.latest.begin(ctx.node, ctx.qset);
        let mut candidates_changed = false;
        let mut state_changed = false;
        let mut vetoed = false;
        loop {
            let mut progressed = false;
            let mentioned = self.latest.mentions();
            let mentioned: Vec<Value> = mentioned
                .filter_map(|q| match q {
                    Question::Nominate(v) => Some(v.clone()),
                    _ => None,
                })
                .collect();

            for v in &mentioned {
                let q = Question::Nominate(v.clone());
                if !self.accepted.contains(v) && self.latest.verdict(&q, ACCEPT) {
                    if ctx.driver.validate_value(ctx.slot, v, false) != Validity::Invalid {
                        self.accepted.insert(v.clone());
                        (progressed, state_changed) = (true, true);
                    } else {
                        vetoed = true;
                    }
                }
                if self.accepted.contains(v)
                    && !self.candidates.contains(v)
                    && self.latest.verdict(&q, CONFIRM)
                {
                    self.candidates.insert(v.clone());
                    progressed = true;
                    state_changed = true;
                    candidates_changed = true;
                    ctx.driver.on_event(ScpEvent::NewCandidate {
                        slot: ctx.slot,
                        value: v.clone(),
                    });
                }
            }
            if !progressed {
                break;
            }
            // Publish our new accepts immediately so they count toward the
            // confirmation quorum evaluated on the next pass.
            self.emit(ctx);
        }
        if state_changed {
            self.emit(ctx);
        }
        self.latest.end(!vetoed);
        candidates_changed
    }

    /// Re-broadcasts our latest nomination statement under the node's
    /// *current* quorum set even though the vote sets are unchanged.
    /// Counterpart of the ballot-side refresh: after a runtime slice
    /// retune the new configuration only takes effect once a statement
    /// advertising it circulates.
    pub fn refresh_qset<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if self.voted.is_empty() && self.accepted.is_empty() {
            return;
        }
        let st = self.own_statement(ctx.node, ctx.slot, ctx.qset);
        if self
            .latest
            .get(&ctx.node)
            .is_some_and(|old| old.quorum_set == st.quorum_set)
        {
            return;
        }
        self.latest.insert(st.clone());
        let env = Envelope::sign(st, ctx.keys);
        ctx.driver.emit_envelope(&env);
    }

    /// Broadcasts our current nomination statement if it carries anything,
    /// recording it in `latest` so our own votes count toward quorums.
    fn emit<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if self.voted.is_empty() && self.accepted.is_empty() {
            return;
        }
        let st = self.own_statement(ctx.node, ctx.slot, ctx.qset);
        // Skip if identical to what we last sent.
        if self.latest.get(&ctx.node).map(|s| &s.kind) == Some(&st.kind) {
            return;
        }
        self.latest.insert(st.clone());
        let env = Envelope::sign(st, ctx.keys);
        ctx.driver.emit_envelope(&env);
    }

    /// Our nomination statement: the current vote and accept sets.
    fn own_statement(&self, node: NodeId, slot: SlotIndex, qset: &QuorumSet) -> Statement {
        Statement {
            node,
            slot,
            quorum_set: qset.clone(),
            kind: StatementKind::Nominate {
                voted: self.voted.clone(),
                accepted: self.accepted.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Validity;
    use crate::slot::Ctx;
    use crate::{QuorumSet, SlotIndex};
    use std::time::Duration;
    use stellar_crypto::sign::KeyPair;

    /// Driver that can mark chosen values invalid.
    #[derive(Default)]
    struct TestDriver {
        emitted: Vec<Envelope>,
        events: Vec<ScpEvent>,
        timers: Vec<(SlotIndex, TimerKind, Option<Duration>)>,
        invalid: BTreeSet<Value>,
    }

    impl Driver for TestDriver {
        fn validate_value(&mut self, _: SlotIndex, v: &Value, _: bool) -> Validity {
            if self.invalid.contains(v) {
                Validity::Invalid
            } else {
                Validity::FullyValidated
            }
        }
        fn combine_candidates(&mut self, _: SlotIndex, c: &BTreeSet<Value>) -> Option<Value> {
            c.iter().next_back().cloned()
        }
        fn emit_envelope(&mut self, envelope: &Envelope) {
            self.emitted.push(envelope.clone());
        }
        fn set_timer(&mut self, slot: SlotIndex, kind: TimerKind, delay: Option<Duration>) {
            self.timers.push((slot, kind, delay));
        }
        fn externalized(&mut self, _: SlotIndex, _: &Value) {}
        fn public_key(&self, node: NodeId) -> Option<stellar_crypto::sign::PublicKey> {
            Some(KeyPair::from_seed(u64::from(node.0)).public())
        }
        fn on_event(&mut self, event: ScpEvent) {
            self.events.push(event);
        }
    }

    fn val(s: &str) -> Value {
        Value::new(s.as_bytes().to_vec())
    }

    fn qset4() -> QuorumSet {
        QuorumSet::majority((0..4).map(NodeId).collect())
    }

    fn nominate_stmt(node: u32, voted: &[Value], accepted: &[Value]) -> Statement {
        Statement {
            node: NodeId(node),
            slot: 1,
            quorum_set: qset4(),
            kind: StatementKind::Nominate {
                voted: voted.iter().cloned().collect(),
                accepted: accepted.iter().cloned().collect(),
            },
        }
    }

    struct Fixture {
        np: NominationProtocol,
        driver: TestDriver,
        keys: KeyPair,
        qset: QuorumSet,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                np: NominationProtocol::new(),
                driver: TestDriver::default(),
                keys: KeyPair::from_seed(0),
                qset: qset4(),
            }
        }
        fn with_ctx<R>(
            &mut self,
            f: impl FnOnce(&mut NominationProtocol, &mut Ctx<'_, TestDriver>) -> R,
        ) -> R {
            let mut ctx = Ctx {
                node: NodeId(0),
                slot: 1,
                qset: &self.qset,
                keys: &self.keys,
                driver: &mut self.driver,
            };
            f(&mut self.np, &mut ctx)
        }
    }

    #[test]
    fn start_arms_round_timer_and_reports_event() {
        let mut fx = Fixture::new();
        fx.with_ctx(|np, ctx| np.start(ctx, val("v")));
        assert!(fx.np.started());
        assert!(fx
            .driver
            .events
            .iter()
            .any(|e| matches!(e, ScpEvent::NominationStarted { slot: 1 })));
        assert!(fx
            .driver
            .timers
            .iter()
            .any(|(_, k, d)| *k == TimerKind::Nomination && d.is_some()));
    }

    #[test]
    fn quorum_of_votes_confirms_candidate() {
        let mut fx = Fixture::new();
        let v = val("x");
        fx.with_ctx(|np, ctx| np.start(ctx, v.clone()));
        // Peers vote then accept; confirmation follows the quorum.
        fx.with_ctx(|np, ctx| {
            np.process(ctx, &nominate_stmt(1, std::slice::from_ref(&v), &[]));
            np.process(ctx, &nominate_stmt(2, std::slice::from_ref(&v), &[]));
            np.process(
                ctx,
                &nominate_stmt(1, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
            np.process(
                ctx,
                &nominate_stmt(2, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
        });
        assert!(
            fx.np.candidates().contains(&v),
            "candidates: {:?}",
            fx.np.candidates()
        );
        assert!(fx
            .driver
            .events
            .iter()
            .any(|e| matches!(e, ScpEvent::NewCandidate { .. })));
    }

    #[test]
    fn no_new_votes_after_first_candidate() {
        let mut fx = Fixture::new();
        let v = val("x");
        fx.with_ctx(|np, ctx| np.start(ctx, v.clone()));
        fx.with_ctx(|np, ctx| {
            np.process(
                ctx,
                &nominate_stmt(1, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
            np.process(
                ctx,
                &nominate_stmt(2, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
        });
        assert!(fx.np.candidates().contains(&v));
        // A leaderless new value arrives; even a retry must not vote it.
        let fresh = val("late");
        fx.with_ctx(|np, ctx| {
            np.process(ctx, &nominate_stmt(1, std::slice::from_ref(&fresh), &[]));
            np.retry(ctx);
        });
        let own = fx.np.latest_statement(NodeId(0)).unwrap().clone();
        match own.kind {
            StatementKind::Nominate { voted, .. } => {
                assert!(
                    !voted.contains(&fresh),
                    "must not vote new values after confirming"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_values_never_voted_or_accepted() {
        let mut fx = Fixture::new();
        let bad = val("bad");
        fx.driver.invalid.insert(bad.clone());
        fx.with_ctx(|np, ctx| np.start(ctx, val("ok")));
        fx.with_ctx(|np, ctx| {
            np.process(ctx, &nominate_stmt(1, std::slice::from_ref(&bad), &[]));
            np.process(ctx, &nominate_stmt(2, std::slice::from_ref(&bad), &[]));
            np.process(ctx, &nominate_stmt(3, std::slice::from_ref(&bad), &[]));
        });
        let own = fx.np.latest_statement(NodeId(0)).cloned();
        if let Some(st) = own {
            match st.kind {
                StatementKind::Nominate { voted, accepted } => {
                    assert!(!voted.contains(&bad));
                    assert!(!accepted.contains(&bad));
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(!fx.np.candidates().contains(&bad));
    }

    #[test]
    fn round_timeout_grows_leader_set() {
        let mut fx = Fixture::new();
        fx.with_ctx(|np, ctx| np.start(ctx, val("v")));
        let l1 = fx.np.leaders().len();
        for _ in 0..6 {
            fx.with_ctx(|np, ctx| np.on_timeout(ctx));
        }
        assert!(fx.np.leaders().len() >= l1, "leader set only grows");
        assert_eq!(
            fx.driver
                .events
                .iter()
                .filter(|e| matches!(
                    e,
                    ScpEvent::TimeoutFired {
                        kind: TimerKind::Nomination,
                        ..
                    }
                ))
                .count(),
            6
        );
    }

    #[test]
    fn stop_cancels_timer_and_freezes_votes() {
        let mut fx = Fixture::new();
        fx.with_ctx(|np, ctx| np.start(ctx, val("v")));
        fx.with_ctx(|np, ctx| np.stop(ctx));
        assert!(fx
            .driver
            .timers
            .iter()
            .any(|(_, k, d)| *k == TimerKind::Nomination && d.is_none()));
        let before = fx.np.latest_statement(NodeId(0)).cloned();
        fx.with_ctx(|np, ctx| {
            assert!(!np.on_timeout(ctx));
            np.retry(ctx);
        });
        let after = fx.np.latest_statement(NodeId(0)).cloned();
        assert_eq!(before.map(|s| s.kind), after.map(|s| s.kind));
    }

    #[test]
    fn v_blocking_accept_pulls_in_unvoted_value() {
        let mut fx = Fixture::new();
        fx.with_ctx(|np, ctx| np.start(ctx, val("mine")));
        let v = val("theirs");
        // {1,2} accepting is v-blocking for 3-of-4 slices.
        fx.with_ctx(|np, ctx| {
            np.process(
                ctx,
                &nominate_stmt(1, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
            np.process(
                ctx,
                &nominate_stmt(2, std::slice::from_ref(&v), std::slice::from_ref(&v)),
            );
        });
        let own = fx.np.latest_statement(NodeId(0)).unwrap().clone();
        match own.kind {
            StatementKind::Nominate { accepted, .. } => {
                assert!(accepted.contains(&v), "v-blocking accept must pull us in");
            }
            other => panic!("{other:?}"),
        }
    }
}
