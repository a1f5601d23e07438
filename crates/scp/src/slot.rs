//! A consensus slot: one instance of SCP (one ledger).
//!
//! The slot owns a [`NominationProtocol`] and a [`BallotProtocol`] and
//! routes envelopes, timeouts, and nomination output between them:
//! confirmed-nominated candidates are combined by the application
//! ([`Driver::combine_candidates`]) into the composite value balloting
//! proposes, and a decision shuts nomination down. A slot's durable
//! image is its own latest statements ([`Slot::own_statements`]); a
//! restarted node rebuilds the slot by replaying them ([`Slot::restore`]).

use crate::ballot::{BallotPhase, BallotProtocol};
use crate::driver::{Driver, TimerKind};
use crate::nomination::NominationProtocol;
use crate::quorum::Work;
use crate::statement::Statement;
use crate::{NodeId, QuorumSet, SlotIndex, Value};
use stellar_crypto::sign::KeyPair;

/// Shared context threaded through protocol methods: identity, slices,
/// signing key, and the application driver.
pub struct Ctx<'a, D: Driver> {
    /// This node's id.
    pub node: NodeId,
    /// The slot being decided.
    pub slot: SlotIndex,
    /// This node's current quorum set.
    pub qset: &'a QuorumSet,
    /// Signing key for outgoing envelopes.
    pub keys: &'a KeyPair,
    /// The application driver.
    pub driver: &'a mut D,
}

/// One consensus instance.
pub struct Slot {
    index: SlotIndex,
    nomination: NominationProtocol,
    ballot: BallotProtocol,
}

impl Slot {
    /// Creates an idle slot.
    pub fn new(index: SlotIndex) -> Slot {
        Slot {
            index,
            nomination: NominationProtocol::new(),
            ballot: BallotProtocol::new(),
        }
    }

    /// The slot index.
    pub fn index(&self) -> SlotIndex {
        self.index
    }

    /// Read access to the nomination protocol (for metrics/tests).
    pub fn nomination(&self) -> &NominationProtocol {
        &self.nomination
    }

    /// Read access to the ballot protocol (for metrics/tests).
    pub fn ballot(&self) -> &BallotProtocol {
        &self.ballot
    }

    /// The decided value, if this slot has externalized.
    pub fn decision(&self) -> Option<&Value> {
        self.ballot.decision()
    }

    /// Proposes `value` for this slot, starting nomination.
    pub fn propose<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, value: Value) {
        let candidates_changed = self.nomination.start(ctx, value);
        if candidates_changed {
            self.push_composite(ctx);
        }
    }

    /// Handles an incoming envelope (assumed signature-verified by the
    /// node layer).
    pub fn process<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, st: &Statement) {
        if st.kind.is_nomination() {
            let candidates_changed = self.nomination.process(ctx, st);
            if candidates_changed {
                self.push_composite(ctx);
            }
        } else {
            self.ballot.process(ctx, st);
            self.after_ballot_step(ctx);
        }
    }

    /// Re-runs nomination voting after application state changed (new
    /// transaction sets may make values validatable).
    pub fn retry_nomination<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if self.nomination.retry(ctx) {
            self.push_composite(ctx);
        }
    }

    /// Re-runs both protocols' federated-voting evaluation without any
    /// new input. Needed after a runtime quorum-set change (§3.1.1):
    /// statements already on file may satisfy thresholds under the new
    /// slices even though no further envelope or timeout will arrive to
    /// trigger the usual evaluation (a stalled slot generates neither).
    pub fn reevaluate<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        // Quorum discovery reads slices out of latest statements, so the
        // new configuration is inert until statements carrying it replace
        // the ones on file — ours locally and, via broadcast, at peers.
        self.nomination.refresh_qset(ctx);
        self.ballot.refresh_qset(ctx);
        if self.nomination.retry(ctx) {
            self.push_composite(ctx);
        }
        self.ballot.advance(ctx);
        self.after_ballot_step(ctx);
    }

    /// Handles a timer expiry.
    pub fn on_timeout<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, kind: TimerKind) {
        match kind {
            TimerKind::Nomination => {
                let candidates_changed = self.nomination.on_timeout(ctx);
                if candidates_changed {
                    self.push_composite(ctx);
                }
            }
            TimerKind::Ballot => {
                self.ballot.on_timeout(ctx);
                self.after_ballot_step(ctx);
            }
        }
    }

    /// Recombines candidates and feeds the ballot protocol.
    fn push_composite<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        let candidates = self.nomination.candidates().clone();
        if candidates.is_empty() {
            return;
        }
        if let Some(composite) = ctx.driver.combine_candidates(ctx.slot, &candidates) {
            self.ballot.on_composite(ctx, composite);
        }
        self.after_ballot_step(ctx);
    }

    /// Post-processing after any ballot activity: once decided, stop
    /// nominating.
    fn after_ballot_step<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if self.ballot.phase() == BallotPhase::Externalize {
            self.nomination.stop(ctx);
        }
    }

    /// Replays one of this node's own latest statements into the slot
    /// after a restart: a NOMINATE restores the votes, a ballot statement
    /// the ballot state (see [`NominationProtocol::restore`] and
    /// [`BallotProtocol::restore`]).
    pub fn restore<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, own: &Statement) {
        if own.kind.is_nomination() {
            self.nomination.restore(own);
        } else {
            self.ballot.restore(ctx, own);
            self.after_ballot_step(ctx);
        }
    }

    /// The federated-voting work both protocols did since the last call.
    pub fn take_work(&mut self) -> Work {
        let mut work = self.nomination.latest.take_work();
        work += self.ballot.latest.take_work();
        work
    }

    /// Our latest own statements on this slot — nomination first, then
    /// ballot. What the write-ahead records hold, what a restore rebuilds
    /// and what the reconnect exchange re-sends to peers.
    pub fn own_statements(&self, node: NodeId) -> Vec<Statement> {
        let mut out = Vec::new();
        if let Some(st) = self.nomination.latest_statement(node) {
            out.push(st.clone());
        }
        if let Some(st) = self.ballot.latest_statement(node) {
            out.push(st.clone());
        }
        out
    }
}
