//! The ballot protocol (paper §3.2.1, §3.2.4).
//!
//! SCP decides through a series of numbered ballots `⟨n, x⟩`. Each ballot
//! runs federated voting on two statements:
//!
//! * `prepare⟨n, x⟩` — nothing other than `x` was or will be decided in any
//!   ballot ≤ n (confirming this makes `x` safe to commit);
//! * `commit⟨n, x⟩` — `x` is decided in ballot `n` (confirming this *is*
//!   the decision).
//!
//! The node tracks the classic five-ballot summary (mirroring production
//! `stellar-core`):
//!
//! * `b` — the current ballot it is trying to prepare and commit;
//! * `p`, `p′` — the two highest accepted-prepared ballots (at most one per
//!   value class);
//! * `h` — the highest *confirmed*-prepared ballot (prepare phase) or the
//!   high end of the accepted-commit range (confirm phase);
//! * `c` — the low end of the commit range it is voting for / has accepted.
//!
//! Ballot synchronization (§3.2.4): the ballot-`n` timeout only arms once
//! the node sees a quorum at counter ≥ n, slowing early starters; a
//! v-blocking set at higher counters forces an immediate jump forward. Both
//! rules together keep intact nodes within one ballot of each other once
//! the network turns synchronous, which is exactly what termination needs.
//!
//! The node's own latest statement carries its phase and all five
//! ballots, so it is the whole durable state: a restarted node rebuilds
//! the protocol from it ([`BallotProtocol::restore`]) and can only emit
//! newer statements afterwards.

use crate::driver::{Driver, ScpEvent, TimerKind};
use crate::quorum::{LatestStatements, Question, ACCEPT, CONFIRM, V_BLOCKING};
use crate::slot::Ctx;
use crate::statement::{Ballot, Statement, StatementKind};
use crate::{Envelope, NodeId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Phase of the ballot protocol, advancing monotonically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BallotPhase {
    /// Preparing a ballot: seeking a confirmed `prepare⟨n, x⟩`.
    Prepare,
    /// Accepted `commit`: seeking quorum confirmation of the commit range.
    Confirm,
    /// Decided; the slot value is final.
    Externalize,
}

/// Per-slot ballot-protocol state machine.
#[derive(Debug)]
pub struct BallotProtocol {
    phase: BallotPhase,
    /// Current ballot `b` (None until balloting starts).
    current: Option<Ballot>,
    /// Highest accepted-prepared ballot `p`.
    prepared: Option<Ballot>,
    /// Highest accepted-prepared ballot incompatible with `p`.
    prepared_prime: Option<Ballot>,
    /// `h`: highest confirmed-prepared (Prepare) / accepted-commit high
    /// (Confirm) / confirmed-commit high (Externalize).
    high: Option<Ballot>,
    /// `c`: commit-vote low (Prepare, None = not voting commit) /
    /// accepted-commit low (Confirm) / confirmed-commit low (Externalize).
    commit: Option<Ballot>,
    /// Latest ballot statement per node (including our own).
    pub(crate) latest: LatestStatements,
    /// Latest composite candidate from nomination.
    composite: Option<Value>,
    /// Counter value for which the ballot timer is currently armed.
    timer_armed_for: Option<u32>,
    /// Set once `externalized` was delivered, to guarantee exactly-once.
    decided: Option<Value>,
}

impl Default for BallotProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl BallotProtocol {
    /// Heap bytes the protocol state holds.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let ballots = [
            &self.current,
            &self.prepared,
            &self.prepared_prime,
            &self.high,
            &self.commit,
        ];
        let ballots = ballots.into_iter().flatten().map(|b| &b.value);
        let values = ballots.chain(&self.composite).chain(&self.decided);
        values.map(Value::resident_bytes).sum::<u64>() + self.latest.resident_bytes()
    }

    /// Creates an idle ballot protocol.
    pub fn new() -> Self {
        BallotProtocol {
            phase: BallotPhase::Prepare,
            current: None,
            prepared: None,
            prepared_prime: None,
            high: None,
            commit: None,
            latest: LatestStatements::default(),
            composite: None,
            timer_armed_for: None,
            decided: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BallotPhase {
        self.phase
    }

    #[cfg(test)]
    /// The current ballot, if balloting has started.
    pub fn current_ballot(&self) -> Option<&Ballot> {
        self.current.as_ref()
    }

    /// The decided value, if externalized.
    pub fn decision(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    /// The latest ballot statement seen from `node`.
    pub fn latest_statement(&self, node: NodeId) -> Option<&Statement> {
        self.latest.get(&node)
    }

    /// Rebuilds the ballot state from this node's own latest ballot
    /// statement after a restart, as stellar-core's
    /// `setStateFromEnvelope` does: the phase and `b, p, p′, h, c` are
    /// what the statement says. The statement rebuilt from that state is
    /// recorded as our latest, so the next one we emit can only be newer.
    /// Peers' statements come back through the reconnect exchange; until
    /// a quorum of them arrives the ballot timer stays unarmed. A decided
    /// slot re-notifies the driver (the embedder deduplicates by ledger
    /// sequence, so redelivery across a crash is safe — losing the
    /// notification would not be).
    pub fn restore<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, own: &Statement) {
        let at = |n: u32, value: &Value| (n > 0).then(|| Ballot::new(n, value.clone()));
        match &own.kind {
            StatementKind::Prepare {
                ballot,
                prepared,
                prepared_prime,
                c_n,
                h_n,
            } => {
                self.phase = BallotPhase::Prepare;
                self.current = Some(ballot.clone());
                self.prepared = prepared.clone();
                self.prepared_prime = prepared_prime.clone();
                self.high = at(*h_n, &ballot.value);
                self.commit = at(*c_n, &ballot.value);
            }
            StatementKind::Confirm {
                ballot,
                p_n,
                c_n,
                h_n,
            } => {
                self.phase = BallotPhase::Confirm;
                self.current = Some(ballot.clone());
                self.prepared = at(*p_n, &ballot.value);
                self.high = at(*h_n, &ballot.value);
                self.commit = at(*c_n, &ballot.value);
            }
            StatementKind::Externalize { commit, h_n } => {
                self.phase = BallotPhase::Externalize;
                self.current = at(u32::MAX, &commit.value);
                self.prepared = at(u32::MAX, &commit.value);
                self.high = at(*h_n, &commit.value);
                self.commit = Some(commit.clone());
                self.decided = Some(commit.value.clone());
            }
            StatementKind::Nominate { .. } => return,
        }
        if let Some(st) = self.build_statement(own.node, own.slot, &own.quorum_set) {
            self.latest.insert(st);
        }
        self.latest.begin(ctx.node, ctx.qset);
        self.check_heard_from_quorum(ctx);
        self.latest.end(false);
        if let Some(v) = self.decided.clone() {
            ctx.driver.externalized(ctx.slot, &v);
        }
    }

    /// Feeds a new composite candidate value from nomination.
    ///
    /// Starts balloting at ballot 1 if it hasn't started; otherwise the
    /// value is picked up at the next ballot bump (if nothing is confirmed
    /// prepared by then).
    pub fn on_composite<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, value: Value) {
        self.composite = Some(value.clone());
        if self.current.is_none() && self.phase == BallotPhase::Prepare {
            self.bump_to(ctx, Ballot::new(1, value));
        }
        self.advance(ctx);
    }

    /// Handles the ballot timeout: abandon the current ballot and try the
    /// next counter (§3.2.4: "nodes time out and try again in ballot n+1").
    pub fn on_timeout<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        self.timer_armed_for = None;
        if self.phase == BallotPhase::Externalize {
            return;
        }
        let Some(cur) = self.current.clone() else {
            return;
        };
        ctx.driver.on_event(ScpEvent::TimeoutFired {
            slot: ctx.slot,
            kind: TimerKind::Ballot,
        });
        // Peers that externalized can pull us to counter u32::MAX, which
        // has no next ballot.
        if let Some(next) = cur.counter.checked_add(1) {
            self.bump_to(ctx, Ballot::new(next, self.value_for_new_ballot(&cur)));
        }
        self.advance(ctx);
    }

    /// Processes a peer's ballot statement. One that changes no input of
    /// the last evaluation cannot move it off its fixpoint, so it is only
    /// stored.
    pub fn process<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, st: &Statement) {
        debug_assert!(!st.kind.is_nomination());
        if self.latest.record(st) && self.latest.unsettled(ctx.node, ctx.qset) {
            self.advance(ctx);
        }
    }

    /// The value a fresh ballot should carry: the highest
    /// confirmed-prepared value if any, else the nomination composite,
    /// else the abandoned ballot's value.
    fn value_for_new_ballot(&self, abandoned: &Ballot) -> Value {
        if let Some(h) = &self.high {
            h.value.clone()
        } else if let Some(c) = &self.composite {
            c.clone()
        } else {
            abandoned.value.clone()
        }
    }

    /// Moves to ballot `b`, emitting a `BallotBumped` event.
    ///
    /// In the Confirm phase the value is pinned: only the counter moves.
    fn bump_to<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>, mut b: Ballot) {
        if self.phase != BallotPhase::Prepare {
            // Value is pinned to the commit value after accepting commit.
            if let Some(c) = &self.commit {
                b.value = c.value.clone();
            }
        }
        let moved = match &self.current {
            Some(cur) => {
                b.counter > cur.counter || (b.counter == cur.counter && b.value != cur.value)
            }
            None => true,
        };
        if !moved {
            return;
        }
        self.current = Some(b.clone());
        ctx.driver.on_event(ScpEvent::BallotBumped {
            slot: ctx.slot,
            counter: b.counter,
        });
        // A new counter invalidates the previous timer arming.
        if self.timer_armed_for.is_some_and(|n| n < b.counter) {
            self.timer_armed_for = None;
            ctx.driver.set_timer(ctx.slot, TimerKind::Ballot, None);
        }
    }

    /// Main protocol step: runs all federated-voting attempts to a
    /// fixpoint, then handles ballot synchronization and emits our updated
    /// statement.
    pub fn advance<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        self.latest.begin(ctx.node, ctx.qset);
        loop {
            let mut progressed = false;
            progressed |= self.attempt_accept_prepared(ctx);
            progressed |= self.attempt_confirm_prepared(ctx);
            progressed |= self.attempt_accept_commit(ctx);
            progressed |= self.attempt_confirm_commit(ctx);
            progressed |= self.check_v_blocking_bump(ctx);
            if !progressed {
                break;
            }
        }
        self.check_heard_from_quorum(ctx);
        // A state moved after emitting has not been through the v-blocking
        // check; the next evaluation must run whatever arrives.
        let moved = self.emit_if_changed(ctx);
        self.latest.end(!moved);
    }

    // ---- federated-voting attempts -------------------------------------

    /// All ballots that any statement suggests might be accepted
    /// prepared, highest first.
    fn prepare_candidates(&self) -> Vec<Ballot> {
        let mentioned = self.latest.mentions().filter_map(|q| match q {
            Question::Prepare(b) => Some(b.clone()),
            _ => None,
        });
        mentioned.rev().collect()
    }

    /// Tries to accept `prepare(b)` for the best candidate ballot.
    fn attempt_accept_prepared<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if self.phase == BallotPhase::Externalize {
            return false;
        }
        for b in self.prepare_candidates() {
            // Nothing new to learn if already covered.
            if self.any_prepared(|p| b.less_and_compatible(p)) {
                continue;
            }
            // In Confirm phase, only the pinned value can still be prepared
            // (accepting an incompatible prepare would contradict our
            // accepted commit).
            if self.phase == BallotPhase::Confirm {
                let pinned_ok = self
                    .commit
                    .as_ref()
                    .is_some_and(|c| b.compatible(c) && b.counter >= c.counter);
                if !pinned_ok {
                    continue;
                }
            }
            if self.latest.verdict(&Question::Prepare(b.clone()), ACCEPT) {
                // A `b` below and incompatible with both `p` and `p′` has
                // no slot to go in; reporting progress would loop forever.
                if !self.set_prepared(b.clone()) {
                    return false;
                }
                // Abort a commit *vote* overruled by a higher incompatible
                // accepted-prepared (votes may be overruled; accepts not).
                if self.phase == BallotPhase::Prepare
                    && self
                        .high
                        .as_ref()
                        .is_some_and(|h| self.any_prepared(|p| h.less_and_incompatible(p)))
                {
                    self.commit = None;
                }
                ctx.driver.on_event(ScpEvent::AcceptedPrepared {
                    slot: ctx.slot,
                    counter: b.counter,
                });
                return true;
            }
        }
        false
    }

    /// Whether `rel` holds of `p` or of `p′`.
    fn any_prepared(&self, rel: impl Fn(&Ballot) -> bool) -> bool {
        self.prepared.iter().chain(&self.prepared_prime).any(rel)
    }

    /// Records `b` as accepted prepared, maintaining `p`/`p′`; returns
    /// whether either changed.
    fn set_prepared(&mut self, b: Ballot) -> bool {
        match &self.prepared {
            None => self.prepared = Some(b),
            Some(p) if &b > p => {
                if !b.compatible(p) {
                    self.prepared_prime = self.prepared.take();
                }
                self.prepared = Some(b);
            }
            Some(p)
                if !b.compatible(p) && self.prepared_prime.as_ref().is_none_or(|pp| &b > pp) =>
            {
                self.prepared_prime = Some(b);
            }
            _ => return false,
        }
        true
    }

    /// Tries to confirm `prepare(b)`: sets `h` and starts voting `commit`.
    fn attempt_confirm_prepared<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if self.phase != BallotPhase::Prepare || self.prepared.is_none() {
            return false;
        }
        for b in self.prepare_candidates() {
            if self.high.as_ref().is_some_and(|h| b.less_and_compatible(h)) {
                continue; // no improvement
            }
            // Only ballots we ourselves accepted prepared can be confirmed
            // by us (confirm = quorum accepts, and we are in that quorum).
            if !self.any_prepared(|p| b.less_and_compatible(p)) {
                continue;
            }
            if self.latest.verdict(&Question::Prepare(b.clone()), CONFIRM) {
                let improved = match &self.high {
                    None => true,
                    Some(h) => b > *h,
                };
                if !improved {
                    continue;
                }
                self.high = Some(b.clone());
                ctx.driver.on_event(ScpEvent::ConfirmedPrepared {
                    slot: ctx.slot,
                    counter: b.counter,
                });
                // Track h with the current ballot (the ballot we try to
                // commit must carry the confirmed-prepared value).
                let need_track = match &self.current {
                    None => true,
                    Some(cur) => !cur.compatible(&b) || cur.counter < b.counter,
                };
                if need_track {
                    let counter = self
                        .current
                        .as_ref()
                        .map_or(b.counter, |c| c.counter.max(b.counter));
                    self.bump_to(ctx, Ballot::new(counter, b.value.clone()));
                }
                // Begin voting commit⟨n, x⟩ for c ≤ n ≤ h unless an
                // incompatible accepted-prepared above h forbids it.
                if self.commit.is_none() {
                    let blocked = self.any_prepared(|p| b.less_and_incompatible(p));
                    let cur_ok = self
                        .current
                        .as_ref()
                        .is_some_and(|cur| cur.compatible(&b) && cur.counter <= b.counter);
                    if !blocked && cur_ok {
                        self.commit = Some(b.clone());
                    }
                }
                return true;
            }
        }
        false
    }

    /// Commit-range hints per value: every counter mentioned as a commit
    /// boundary by some statement.
    fn commit_boundaries(&self) -> BTreeMap<Value, BTreeSet<u32>> {
        let mut out: BTreeMap<Value, BTreeSet<u32>> = BTreeMap::new();
        for q in self.latest.mentions() {
            if let Question::Commit(b) = q {
                out.entry(b.value.clone()).or_default().insert(b.counter);
            }
        }
        out
    }

    /// Finds the widest boundary interval `[lo, hi]` around some accepted
    /// counter for which `pred` holds on every probed boundary.
    fn find_interval(
        boundaries: &BTreeSet<u32>,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Option<(u32, u32)> {
        // Scan from the highest boundary down for the first satisfying
        // counter, then extend downward while contiguous boundaries hold.
        let mut found: Option<(u32, u32)> = None;
        for &n in boundaries.iter().rev() {
            match found {
                None => {
                    if pred(n) {
                        found = Some((n, n));
                    }
                }
                Some((lo, hi)) => {
                    if pred(n) {
                        found = Some((n, hi));
                    } else {
                        return Some((lo, hi));
                    }
                }
            }
        }
        found
    }

    /// Tries to accept `commit⟨n, x⟩` for a range of counters.
    fn attempt_accept_commit<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if self.phase == BallotPhase::Externalize {
            return false;
        }
        for (value, boundaries) in self.commit_boundaries() {
            // Once in Confirm phase the value is pinned.
            if self.phase == BallotPhase::Confirm
                && self.commit.as_ref().is_some_and(|c| c.value != value)
            {
                continue;
            }
            let pred = |n: u32| {
                let b = Ballot::new(n, value.clone());
                self.latest.verdict(&Question::Commit(b), ACCEPT)
            };
            if let Some((lo, hi)) = Self::find_interval(&boundaries, pred) {
                let improved = match (&self.commit, &self.high, self.phase) {
                    (_, _, BallotPhase::Prepare) => true,
                    (Some(c), Some(h), BallotPhase::Confirm) => lo < c.counter || hi > h.counter,
                    _ => true,
                };
                if !improved {
                    continue;
                }
                let was_prepare = self.phase == BallotPhase::Prepare;
                self.phase = BallotPhase::Confirm;
                self.commit = Some(Ballot::new(lo, value.clone()));
                self.high = Some(Ballot::new(hi, value.clone()));
                // Accepted commit implies accepted prepare up to hi.
                self.set_prepared(Ballot::new(hi, value.clone()));
                // Current ballot tracks the commit value at counter ≥ hi.
                let counter = self.current.as_ref().map_or(hi, |c| c.counter.max(hi));
                self.bump_to(ctx, Ballot::new(counter, value.clone()));
                if was_prepare {
                    ctx.driver.on_event(ScpEvent::AcceptedCommit {
                        slot: ctx.slot,
                        counter: lo,
                    });
                }
                return true;
            }
        }
        false
    }

    /// Tries to confirm the commit: quorum of accepts ⇒ externalize.
    fn attempt_confirm_commit<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if self.phase != BallotPhase::Confirm {
            return false;
        }
        let Some(commit) = self.commit.clone() else {
            return false;
        };
        let boundaries = self
            .commit_boundaries()
            .remove(&commit.value)
            .unwrap_or_default();
        let pred = |n: u32| {
            let b = Ballot::new(n, commit.value.clone());
            self.latest.verdict(&Question::Commit(b), CONFIRM)
        };
        if let Some((lo, hi)) = Self::find_interval(&boundaries, pred) {
            self.phase = BallotPhase::Externalize;
            self.commit = Some(Ballot::new(lo, commit.value.clone()));
            self.high = Some(Ballot::new(hi, commit.value.clone()));
            self.timer_armed_for = None;
            ctx.driver.set_timer(ctx.slot, TimerKind::Ballot, None);
            let value = commit.value.clone();
            self.decided = Some(value.clone());
            ctx.driver.on_event(ScpEvent::Externalized {
                slot: ctx.slot,
                value: value.clone(),
            });
            ctx.driver.externalized(ctx.slot, &value);
            return true;
        }
        false
    }

    // ---- ballot synchronization (§3.2.4) --------------------------------

    /// "If a node v ever notices a v-blocking set at a later ballot, it
    /// immediately skips to the lowest ballot such that this is no longer
    /// the case."
    fn check_v_blocking_bump<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        if self.phase == BallotPhase::Externalize {
            return false;
        }
        // Our own statement never sits above our current counter, so only
        // peers are ever counted above it.
        let my_counter = self.current.as_ref().map_or(0, |b| b.counter);
        let mentioned = self.latest.mentions();
        let higher: Vec<u32> = mentioned
            .filter_map(|q| match q {
                Question::AtLeast(c) if *c > my_counter => Some(*c),
                _ => None,
            })
            .collect();
        if higher.is_empty() {
            return false;
        }
        let mut blocking = |threshold: u32| {
            (threshold.checked_add(1))
                .is_some_and(|n| self.latest.verdict(&Question::AtLeast(n), V_BLOCKING))
        };
        if !blocking(my_counter) {
            return false;
        }
        // Jump to the smallest counter where the above-set stops blocking.
        let mut target = my_counter;
        for c in higher {
            target = c;
            if !blocking(c) {
                break;
            }
        }
        if target <= my_counter {
            return false;
        }
        let value = match &self.current {
            Some(cur) => self.value_for_new_ballot(&cur.clone()),
            None => match (&self.high, &self.composite) {
                (Some(h), _) => h.value.clone(),
                (None, Some(v)) => v.clone(),
                // Without any value we cannot vote; adopt the value the
                // blocking set is working on (any statement's value).
                (None, None) => match self.any_peer_value() {
                    Some(v) => v,
                    None => return false,
                },
            },
        };
        self.bump_to(ctx, Ballot::new(target, value));
        true
    }

    /// A value claimed by some peer's current ballot, for joining late
    /// without a local composite.
    fn any_peer_value(&self) -> Option<Value> {
        self.latest.values().find_map(|st| match &st.kind {
            StatementKind::Prepare { ballot, .. } | StatementKind::Confirm { ballot, .. } => {
                Some(ballot.value.clone())
            }
            StatementKind::Externalize { commit, .. } => Some(commit.value.clone()),
            StatementKind::Nominate { .. } => None,
        })
    }

    /// Arms the ballot timer once a quorum sits at our counter or later
    /// (§3.2.4: "nodes start the timer only once they are part of a quorum
    /// that is all at the current (or a later) ballot").
    fn check_heard_from_quorum<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        if self.phase == BallotPhase::Externalize {
            return;
        }
        let Some(cur) = &self.current else { return };
        let n = cur.counter;
        if self.timer_armed_for == Some(n) {
            return;
        }
        let heard = self.latest.verdict(&Question::AtLeast(n), CONFIRM);
        if heard {
            self.timer_armed_for = Some(n);
            let delay = ctx.driver.ballot_timeout(n);
            ctx.driver
                .set_timer(ctx.slot, TimerKind::Ballot, Some(delay));
        }
    }

    // ---- statement emission ---------------------------------------------

    /// Our current statement, derived from protocol state.
    fn build_statement(
        &self,
        ctx_node: NodeId,
        slot: u64,
        qset: &crate::QuorumSet,
    ) -> Option<Statement> {
        let kind = match self.phase {
            BallotPhase::Prepare => {
                let ballot = self.current.clone()?;
                StatementKind::Prepare {
                    ballot,
                    prepared: self.prepared.clone(),
                    prepared_prime: self.prepared_prime.clone(),
                    c_n: self.commit.as_ref().map_or(0, |c| c.counter),
                    h_n: self.high.as_ref().map_or(0, |h| h.counter),
                }
            }
            BallotPhase::Confirm => {
                let ballot = self.current.clone()?;
                let h_n = self.high.as_ref().map_or(0, |h| h.counter);
                // `p_n` must describe an accepted prepare for the pinned
                // value; fall back to the commit high (implied accepted).
                let p_n = self
                    .prepared
                    .as_ref()
                    .filter(|p| p.compatible(&ballot))
                    .map_or(h_n, |p| p.counter);
                StatementKind::Confirm {
                    ballot,
                    p_n,
                    c_n: self.commit.as_ref().map_or(0, |c| c.counter),
                    h_n,
                }
            }
            BallotPhase::Externalize => StatementKind::Externalize {
                commit: self.commit.clone()?,
                h_n: self.high.as_ref().map_or(0, |h| h.counter),
            },
        };
        debug_assert!(kind.is_sane(), "own statement is insane: {kind:?}");
        Some(Statement {
            node: ctx_node,
            slot,
            quorum_set: qset.clone(),
            kind,
        })
    }

    /// Re-broadcasts our latest statement under the node's *current*
    /// quorum set, even though the statement kind is unchanged. Quorum
    /// evaluation reads slices out of latest statements, so after a
    /// runtime reconfiguration the new slices are inert until a statement
    /// carrying them circulates — and `emit_if_changed` alone never
    /// resends an unchanged kind.
    pub fn refresh_qset<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) {
        let Some(st) = self.build_statement(ctx.node, ctx.slot, ctx.qset) else {
            return;
        };
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

    /// Signs and broadcasts our statement when it changed, recording it in
    /// `latest` so our own votes count toward quorums we evaluate. Returns
    /// whether the state moved after emitting.
    fn emit_if_changed<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        let Some(st) = self.build_statement(ctx.node, ctx.slot, ctx.qset) else {
            return false;
        };
        match self.latest.get(&ctx.node) {
            Some(old) if old.kind == st.kind => return false,
            Some(old) if !st.kind.is_newer_than(&old.kind) => return false,
            _ => {}
        }
        self.latest.insert(st.clone());
        let env = Envelope::sign(st, ctx.keys);
        ctx.driver.emit_envelope(&env);
        // Our own statement may complete a quorum for ourselves.
        self.advance_once_after_emit(ctx)
    }

    /// One additional fixpoint pass after emitting, then emit again if
    /// that changed our statement (state is monotone, so the mutual
    /// recursion with `emit_if_changed` terminates). Returns whether the
    /// state moved.
    fn advance_once_after_emit<D: Driver>(&mut self, ctx: &mut Ctx<'_, D>) -> bool {
        let mut moved = false;
        loop {
            let mut progressed = false;
            progressed |= self.attempt_accept_prepared(ctx);
            progressed |= self.attempt_confirm_prepared(ctx);
            progressed |= self.attempt_accept_commit(ctx);
            progressed |= self.attempt_confirm_commit(ctx);
            if !progressed {
                break;
            }
            moved = true;
        }
        self.check_heard_from_quorum(ctx);
        self.emit_if_changed(ctx) || moved
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

    /// Minimal driver recording everything.
    #[derive(Default)]
    struct TestDriver {
        emitted: Vec<Envelope>,
        timers: Vec<(SlotIndex, TimerKind, Option<Duration>)>,
        decided: Vec<(SlotIndex, Value)>,
        events: Vec<ScpEvent>,
    }

    impl Driver for TestDriver {
        fn validate_value(&mut self, _: SlotIndex, _: &Value, _: bool) -> Validity {
            Validity::FullyValidated
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
        fn externalized(&mut self, slot: SlotIndex, value: &Value) {
            self.decided.push((slot, value.clone()));
        }
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

    /// Builds a peer's ballot statement.
    fn peer_stmt(node: u32, kind: StatementKind) -> Statement {
        Statement {
            node: NodeId(node),
            slot: 1,
            quorum_set: qset4(),
            kind,
        }
    }

    fn prepare_stmt(
        node: u32,
        b: Ballot,
        prepared: Option<Ballot>,
        c_n: u32,
        h_n: u32,
    ) -> Statement {
        peer_stmt(
            node,
            StatementKind::Prepare {
                ballot: b,
                prepared,
                prepared_prime: None,
                c_n,
                h_n,
            },
        )
    }

    struct Fixture {
        bp: BallotProtocol,
        driver: TestDriver,
        keys: KeyPair,
        qset: QuorumSet,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                bp: BallotProtocol::new(),
                driver: TestDriver::default(),
                keys: KeyPair::from_seed(0),
                qset: qset4(),
            }
        }

        fn with_ctx<R>(
            &mut self,
            f: impl FnOnce(&mut BallotProtocol, &mut Ctx<'_, TestDriver>) -> R,
        ) -> R {
            let mut ctx = Ctx {
                node: NodeId(0),
                slot: 1,
                qset: &self.qset,
                keys: &self.keys,
                driver: &mut self.driver,
            };
            f(&mut self.bp, &mut ctx)
        }
    }

    #[test]
    fn composite_starts_ballot_one_and_emits_prepare() {
        let mut fx = Fixture::new();
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        assert_eq!(fx.bp.phase(), BallotPhase::Prepare);
        assert_eq!(fx.bp.current_ballot().unwrap().counter, 1);
        assert_eq!(fx.bp.current_ballot().unwrap().value, val("x"));
        assert_eq!(fx.driver.emitted.len(), 1);
        match &fx.driver.emitted[0].statement.kind {
            StatementKind::Prepare {
                ballot,
                prepared,
                c_n,
                h_n,
                ..
            } => {
                assert_eq!(ballot.counter, 1);
                assert!(prepared.is_none());
                assert_eq!((*c_n, *h_n), (0, 0));
            }
            other => panic!("expected Prepare, got {other:?}"),
        }
    }

    #[test]
    fn quorum_of_votes_leads_to_accept_confirm_and_commit_vote() {
        let mut fx = Fixture::new();
        let b = Ballot::new(1, val("x"));
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        // Two peers vote prepare b (with us: a 3-of-4 quorum).
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &prepare_stmt(1, b.clone(), None, 0, 0));
            bp.process(ctx, &prepare_stmt(2, b.clone(), None, 0, 0));
        });
        // We accepted prepared (p = b) but cannot confirm yet (peers have
        // not accepted).
        let own = fx.bp.latest_statement(NodeId(0)).unwrap().clone();
        match own.kind {
            StatementKind::Prepare { prepared, .. } => assert_eq!(prepared, Some(b.clone())),
            other => panic!("{other:?}"),
        }
        // Peers now accept prepared too: we confirm and start voting commit.
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &prepare_stmt(1, b.clone(), Some(b.clone()), 0, 0));
            bp.process(ctx, &prepare_stmt(2, b.clone(), Some(b.clone()), 0, 0));
        });
        let own = fx.bp.latest_statement(NodeId(0)).unwrap().clone();
        match own.kind {
            StatementKind::Prepare { c_n, h_n, .. } => {
                assert_eq!(h_n, 1, "confirmed prepared at counter 1");
                assert_eq!(c_n, 1, "voting commit from counter 1");
            }
            other => panic!("{other:?}"),
        }
        assert!(fx
            .driver
            .events
            .iter()
            .any(|e| matches!(e, ScpEvent::ConfirmedPrepared { counter: 1, .. })));
    }

    #[test]
    fn full_round_externalizes() {
        let mut fx = Fixture::new();
        let b = Ballot::new(1, val("x"));
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        // Peers move straight to Confirm (accepted commit [1,1]).
        let confirm = |n: u32| {
            peer_stmt(
                n,
                StatementKind::Confirm {
                    ballot: b.clone(),
                    p_n: 1,
                    c_n: 1,
                    h_n: 1,
                },
            )
        };
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &confirm(1));
            bp.process(ctx, &confirm(2));
        });
        // v-blocking {1,2} pushed us to accept commit; with our own accept
        // the quorum {0,1,2} confirms it.
        assert_eq!(fx.bp.phase(), BallotPhase::Externalize);
        assert_eq!(fx.bp.decision(), Some(&val("x")));
        assert_eq!(fx.driver.decided, vec![(1, val("x"))]);
        // Terminal statement is Externalize.
        let own = fx.bp.latest_statement(NodeId(0)).unwrap().clone();
        assert!(matches!(own.kind, StatementKind::Externalize { .. }));
    }

    #[test]
    fn v_blocking_accept_overrules_own_vote() {
        let mut fx = Fixture::new();
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("mine")));
        let other = Ballot::new(2, val("theirs"));
        // Two peers (v-blocking for 3-of-4) accepted prepared ⟨2,theirs⟩.
        fx.with_ctx(|bp, ctx| {
            bp.process(
                ctx,
                &prepare_stmt(1, other.clone(), Some(other.clone()), 0, 0),
            );
            bp.process(
                ctx,
                &prepare_stmt(2, other.clone(), Some(other.clone()), 0, 0),
            );
        });
        let own = fx.bp.latest_statement(NodeId(0)).unwrap().clone();
        match own.kind {
            StatementKind::Prepare { prepared, .. } => {
                assert_eq!(
                    prepared,
                    Some(other),
                    "v-blocking accept must overrule our vote"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn accepting_a_ballot_below_both_prepared_is_not_progress() {
        let mut fx = Fixture::new();
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        // Every peer votes ⟨1,x⟩ but has accepted ⟨3,z⟩ and ⟨2,y⟩: we
        // accept all three, and ⟨1,x⟩ sits below and incompatible with
        // both `p` and `p′`, so recording it changes nothing.
        let (p, pp) = (Ballot::new(3, val("z")), Ballot::new(2, val("y")));
        let peer = |n: u32| {
            peer_stmt(
                n,
                StatementKind::Prepare {
                    ballot: Ballot::new(1, val("x")),
                    prepared: Some(p.clone()),
                    prepared_prime: Some(pp.clone()),
                    c_n: 0,
                    h_n: 0,
                },
            )
        };
        fx.with_ctx(|bp, ctx| {
            for n in 1..=3 {
                bp.process(ctx, &peer(n));
            }
        });
        match fx.bp.latest_statement(NodeId(0)).unwrap().clone().kind {
            StatementKind::Prepare {
                prepared,
                prepared_prime,
                ..
            } => assert_eq!((prepared, prepared_prime), (Some(p), Some(pp))),
            other => panic!("{other:?}"),
        }
        let accepted = fx.driver.events.iter();
        let accepted = accepted.filter(|e| matches!(e, ScpEvent::AcceptedPrepared { .. }));
        assert_eq!(accepted.count(), 2, "only changes of p/p′ are reported");
    }

    #[test]
    fn v_blocking_higher_counters_force_jump() {
        let mut fx = Fixture::new();
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        assert_eq!(fx.bp.current_ballot().unwrap().counter, 1);
        // Peers 1 and 2 sit at counters 5 and 7: v-blocking at >1, >2, …
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &prepare_stmt(1, Ballot::new(5, val("x")), None, 0, 0));
            bp.process(ctx, &prepare_stmt(2, Ballot::new(7, val("x")), None, 0, 0));
        });
        // Lowest counter where {nodes above} is no longer v-blocking: 5
        // (above 5 sits only node 2, not blocking for 3-of-4).
        assert_eq!(fx.bp.current_ballot().unwrap().counter, 5);
    }

    #[test]
    fn timer_arms_only_with_quorum_at_counter() {
        let mut fx = Fixture::new();
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        assert!(
            !fx.driver
                .timers
                .iter()
                .any(|(_, k, d)| *k == TimerKind::Ballot && d.is_some()),
            "no quorum yet: no ballot timer"
        );
        let b = Ballot::new(1, val("x"));
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &prepare_stmt(1, b.clone(), None, 0, 0));
            bp.process(ctx, &prepare_stmt(2, b.clone(), None, 0, 0));
        });
        assert!(
            fx.driver
                .timers
                .iter()
                .any(|(_, k, d)| *k == TimerKind::Ballot && d.is_some()),
            "quorum at counter ≥ 1: timer armed"
        );
    }

    #[test]
    fn timeout_bumps_counter_and_keeps_confirmed_value() {
        let mut fx = Fixture::new();
        let b = Ballot::new(1, val("x"));
        fx.with_ctx(|bp, ctx| bp.on_composite(ctx, val("x")));
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &prepare_stmt(1, b.clone(), Some(b.clone()), 0, 0));
            bp.process(ctx, &prepare_stmt(2, b.clone(), Some(b.clone()), 0, 0));
        });
        fx.with_ctx(|bp, ctx| bp.on_timeout(ctx));
        let cur = fx.bp.current_ballot().unwrap().clone();
        assert_eq!(cur.counter, 2);
        assert_eq!(cur.value, val("x"), "confirmed-prepared value carries over");
        let timeouts = fx.driver.events.iter().filter(|e| {
            matches!(
                e,
                ScpEvent::TimeoutFired {
                    kind: TimerKind::Ballot,
                    ..
                }
            )
        });
        assert_eq!(timeouts.count(), 1);
    }

    #[test]
    fn late_joiner_adopts_externalize_via_v_blocking() {
        // A node with no composite value catches up purely from peers'
        // Externalize statements (the §3.2 catch-up path).
        let mut fx = Fixture::new();
        let ext = |n: u32| {
            peer_stmt(
                n,
                StatementKind::Externalize {
                    commit: Ballot::new(1, val("x")),
                    h_n: 1,
                },
            )
        };
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &ext(1));
            bp.process(ctx, &ext(2));
        });
        assert_eq!(fx.bp.phase(), BallotPhase::Externalize);
        assert_eq!(fx.bp.decision(), Some(&val("x")));
    }

    #[test]
    fn decided_slot_ignores_further_noise() {
        let mut fx = Fixture::new();
        let ext = |n: u32| {
            peer_stmt(
                n,
                StatementKind::Externalize {
                    commit: Ballot::new(1, val("x")),
                    h_n: 1,
                },
            )
        };
        fx.with_ctx(|bp, ctx| {
            bp.process(ctx, &ext(1));
            bp.process(ctx, &ext(2));
        });
        assert_eq!(fx.driver.decided.len(), 1);
        // Conflicting (Byzantine) confirm afterwards changes nothing.
        fx.with_ctx(|bp, ctx| {
            bp.process(
                ctx,
                &peer_stmt(
                    3,
                    StatementKind::Confirm {
                        ballot: Ballot::new(9, val("evil")),
                        p_n: 9,
                        c_n: 9,
                        h_n: 9,
                    },
                ),
            );
            bp.on_timeout(ctx);
        });
        assert_eq!(fx.bp.decision(), Some(&val("x")));
        assert_eq!(fx.driver.decided.len(), 1, "externalized exactly once");
    }

    #[test]
    fn stale_statements_ignored() {
        let mut fx = Fixture::new();
        let b2 = Ballot::new(2, val("x"));
        let b1 = Ballot::new(1, val("x"));
        fx.with_ctx(|bp, ctx| {
            bp.on_composite(ctx, val("x"));
            bp.process(ctx, &prepare_stmt(1, b2.clone(), None, 0, 0));
            // Older statement from the same node must not regress state.
            bp.process(ctx, &prepare_stmt(1, b1, None, 0, 0));
        });
        match &fx.bp.latest_statement(NodeId(1)).unwrap().kind {
            StatementKind::Prepare { ballot, .. } => assert_eq!(*ballot, b2),
            other => panic!("{other:?}"),
        }
    }
}
