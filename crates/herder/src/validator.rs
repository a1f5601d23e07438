//! A complete validator: SCP node + herder (Fig. 5's `stellar-core`).
//!
//! The [`Validator`] orchestrates one node's life:
//!
//! 1. clients submit transactions ([`Validator::submit_transaction`]);
//! 2. at each ledger trigger, the validator assembles a proposal and
//!    starts nomination ([`Validator::trigger_next_ledger`]);
//! 3. SCP envelopes and timer expiries flow in
//!    ([`Validator::receive_envelope`], [`Validator::on_timer`]);
//! 4. externalized values close the ledger and the cycle repeats.
//!
//! All outputs (envelopes to flood, timers to arm) are buffered in the
//! herder, so the embedding simulator stays fully deterministic. Every
//! step ends in [`Validator::drain_outputs`], the write-ahead gate: the
//! envelopes it releases are first written to the node disk as that
//! slot's nomination or ballot record and fsynced, so the disk always
//! holds what the node said, and a crash-restarted node replays those
//! records ([`Validator::recover_scp_state`]) instead of contradicting a
//! vote it sent (§3, §5.4).
//!
//! An SCP value names its transaction set by hash (§5.3). The embedder,
//! which owns the overlay, ships and fetches sets: it asks which held sets
//! released envelopes name ([`Validator::sets_to_ship`]) and which sets a
//! taken envelope names ([`Outputs::taken`], [`named_tx_sets`]).

use crate::herder::{named_tx_sets, Herder, LEDGER_VALIDITY_BRACKET, SLOT_WINDOW};
use crate::queue::QueueError;
use std::collections::BTreeMap;
use stellar_crypto::sign::KeyPair;
use stellar_crypto::Hash256;
use stellar_ledger::store::LedgerStore;
use stellar_ledger::tx::TransactionEnvelope;
use stellar_ledger::txset::TransactionSet;
use stellar_scp::driver::TimerKind;
use stellar_scp::{Envelope, NodeId, QuorumSet, ScpNode, SlotIndex, Statement};
use stellar_telemetry::SpanPhase;

/// Everything a validator wants the network layer to do after a step.
#[derive(Debug, Default)]
pub struct Outputs {
    /// SCP envelopes to flood.
    pub envelopes: Vec<Envelope>,
    /// SCP took the envelope [`Validator::receive_envelope`] handled: its
    /// sender can be asked for the sets it names ([`named_tx_sets`]).
    pub taken: bool,
    /// Timers to fire: call [`Validator::on_timer`] with this slot, kind
    /// and deadline once the clock reaches the deadline (ms). Replacing
    /// and cancelling are the validator's own business: a deadline it no
    /// longer holds armed is ignored when it fires.
    pub timers: Vec<(SlotIndex, TimerKind, u64)>,
}

/// A full Stellar validator node.
pub struct Validator {
    /// The consensus engine.
    pub scp: ScpNode,
    /// The application half.
    pub herder: Herder,
}

impl Validator {
    /// Creates a validator with the given identity, slices, and genesis
    /// ledger state.
    pub fn new(
        id: NodeId,
        keys: KeyPair,
        qset: QuorumSet,
        store: LedgerStore,
        key_registry: BTreeMap<NodeId, stellar_crypto::sign::PublicKey>,
    ) -> Validator {
        Validator {
            scp: ScpNode::new(id, keys, qset),
            herder: Herder::new(id, store, key_registry),
        }
    }

    /// Creates a validator whose ledger state was recovered from a
    /// durable data disk ([`stellar_ledger::LedgerBackend`] recovery)
    /// rather than rebuilt from genesis: the store, bucket list, and
    /// header resume at the last durable close. SCP state starts fresh —
    /// the caller restores it from the write-ahead records
    /// ([`Self::recover_scp_state`]).
    pub fn from_recovered(
        id: NodeId,
        keys: KeyPair,
        qset: QuorumSet,
        store: LedgerStore,
        buckets: stellar_buckets::BucketList,
        header: stellar_ledger::header::LedgerHeader,
        key_registry: BTreeMap<NodeId, stellar_crypto::sign::PublicKey>,
    ) -> Validator {
        Validator {
            scp: ScpNode::new(id, keys, qset),
            herder: Herder::from_recovered(id, store, buckets, header, key_registry),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.scp.id()
    }

    /// Updates the clock: whole seconds drive close-time proposals and
    /// validation, milliseconds stamp metrics and spans.
    pub fn set_time_ms(&mut self, now_ms: u64) {
        self.herder.now = now_ms / 1000;
        self.herder.clock_ms = now_ms;
    }

    /// Submits a client transaction to the pending queue, recording the
    /// admit/reject lifecycle span (every node runs admission — the
    /// originating one at submit time, relaying ones on flood receipt).
    pub fn submit_transaction(&mut self, env: TransactionEnvelope) -> Result<(), QueueError> {
        let trace = if self.herder.telemetry.spans.enabled() {
            Some(env.hash().prefix_u64())
        } else {
            None
        };
        let result = self
            .herder
            .queue
            .submit(&self.herder.store, env, &mut self.herder.sig_cache);
        if let Some(trace) = trace {
            let t = self.herder.clock_ms;
            let phase = match &result {
                Ok(()) => SpanPhase::QueueAdmit,
                Err(e) => SpanPhase::QueueReject { reason: e.label() },
            };
            self.herder.telemetry.span(trace, t, phase);
        }
        result
    }

    /// Kicks off consensus for the next ledger: assembles the proposal
    /// and starts nomination. The proposal's set crosses the network only
    /// if, now or in a later round it leads, this node votes for it.
    pub fn trigger_next_ledger(&mut self) -> Outputs {
        let slot = self.herder.current_slot();
        let (value, _) = self.herder.make_proposal();
        self.scp.propose(&mut self.herder, slot, value.to_scp());
        self.drain_outputs()
    }

    /// Replaces this node's quorum slices at runtime and re-evaluates
    /// the slot in flight (§3.1.1 allows unilateral retuning at any
    /// time). A node stalled on an unsatisfiable configuration emits no
    /// envelopes and arms no timers, so the re-step here is what lets a
    /// halt-and-reconfigure heal actually resume consensus.
    pub fn reconfigure_quorum_set(&mut self, qset: QuorumSet) -> Outputs {
        let slot = self.herder.current_slot();
        self.scp
            .set_quorum_set_and_reevaluate(&mut self.herder, qset, slot);
        self.process_externalized();
        self.drain_outputs()
    }

    /// Handles an incoming SCP envelope; one for a slot more than
    /// [`LEDGER_VALIDITY_BRACKET`] above the current one, or below the
    /// [`SLOT_WINDOW`] of slots this validator keeps, is dropped
    /// unverified. Whether SCP took it is [`Outputs::taken`].
    pub fn receive_envelope(&mut self, env: &Envelope) -> Outputs {
        let current = self.herder.current_slot();
        let mut taken = false;
        if env.statement.slot > current + LEDGER_VALIDITY_BRACKET {
            self.herder.telemetry.registry.inc("scp.far_future_dropped");
        } else if env.statement.slot < current.saturating_sub(SLOT_WINDOW) {
            self.herder.telemetry.registry.inc("scp.stale_slot_dropped");
        } else {
            taken = self.scp.receive(&mut self.herder, env);
            self.process_externalized();
        }
        Outputs {
            taken,
            ..self.drain_outputs()
        }
    }

    /// Handles an incoming transaction set from a peer.
    pub fn receive_tx_set(&mut self, set: TransactionSet) -> Outputs {
        self.herder.learn_tx_set(set);
        // A nominated value referencing this set may now be votable.
        let slot = self.herder.current_slot();
        self.scp.retry_nomination(&mut self.herder, slot);
        self.process_externalized();
        self.drain_outputs()
    }

    /// The `kind` timer of `slot` fires at `deadline`. `None`, and
    /// nothing changes, unless that exact deadline is still armed: a
    /// timer the validator replaced, cancelled or already fired — or that
    /// an earlier process armed — is ignored.
    pub fn on_timer(&mut self, slot: SlotIndex, kind: TimerKind, deadline: u64) -> Option<Outputs> {
        if self.herder.armed.get(&(slot, kind)) != Some(&deadline) {
            return None;
        }
        self.herder.armed.remove(&(slot, kind));
        self.scp.on_timeout(&mut self.herder, slot, kind);
        self.process_externalized();
        Some(self.drain_outputs())
    }

    /// Closes what SCP decided ([`Herder::close_decided`]).
    fn process_externalized(&mut self) {
        self.herder.close_decided();
        // Old slots' SCP state is only useful for stragglers; keep a
        // short window.
        let keep_from = self.herder.current_slot().saturating_sub(SLOT_WINDOW);
        self.scp.prune_slots_below(keep_from);
    }

    /// The latest closed ledger sequence.
    pub fn ledger_seq(&self) -> u64 {
        self.herder.header.ledger_seq
    }

    /// Rebuilds in-memory SCP state from the durable store after a crash
    /// restart: every slot at or above the current one that has records
    /// is replayed from our own latest envelopes (decided values
    /// re-notify), then any decided-but-unapplied value is pushed through
    /// the close path. Peers' statements come back through the reconnect
    /// exchange ([`ScpNode::own_latest_envelopes`]). Returns the number of
    /// slots restored.
    pub fn recover_scp_state(&mut self) -> usize {
        let current = self.herder.current_slot();
        let own: Vec<Statement> = self
            .herder
            .recover_scp_envelopes(current)
            .into_iter()
            .map(|env| env.statement)
            .collect();
        let restored = self.scp.restore(&mut self.herder, &own);
        self.process_externalized();
        restored
    }

    /// Drains buffered outputs through the write-ahead gate. Every step
    /// above ends here; an embedder calls it after an out-of-band step
    /// (crash recovery) so restored timers reach its event loop.
    pub fn drain_outputs(&mut self) -> Outputs {
        let envelopes = self.herder.take_outbox();
        let timers = self.herder.take_timer_requests();
        let work = self.scp.take_work();
        if work.slice_checks > 0 {
            let reg = &mut self.herder.telemetry.registry;
            reg.add("scp.quorum_evals", work.quorum_evals);
            reg.add("scp.slice_checks", work.slice_checks);
        }
        // Write-ahead discipline (§5.4): what we say must be durable
        // before it reaches the network — a crash between emitting and
        // persisting would let the restarted node contradict votes peers
        // already hold. The records are the envelopes themselves. On a
        // failed fsync the envelopes stay queued; a later drain stages
        // them again and retries the sync.
        let envelopes = if envelopes.is_empty() || self.herder.persist_scp(&envelopes) {
            envelopes
        } else {
            self.herder.outbox.splice(0..0, envelopes);
            Vec::new()
        };
        Outputs {
            envelopes,
            taken: false,
            timers,
        }
    }

    /// The sets `envelopes` name that this validator holds and `seen`
    /// has not, each once, in the order first named: what to flood with
    /// them, so a set ships only when SCP names it.
    pub fn sets_to_ship(
        &self,
        envelopes: &[Envelope],
        seen: impl Fn(&Hash256) -> bool,
    ) -> Vec<TransactionSet> {
        let mut ship: Vec<TransactionSet> = Vec::new();
        for hash in envelopes.iter().flat_map(named_tx_sets) {
            if !seen(&hash) && ship.iter().all(|set| set.hash() != hash) {
                ship.extend(self.herder.known_tx_sets.get(&hash).cloned());
            }
        }
        ship
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::herder::scp_record_key;
    use std::collections::BTreeSet;
    use std::time::Duration;
    use stellar_crypto::sign::PublicKey;
    use stellar_ledger::amount::{xlm, BASE_FEE};
    use stellar_ledger::asset::Asset;
    use stellar_ledger::entry::{AccountEntry, AccountId};
    use stellar_ledger::tx::{Memo, Operation, SourcedOperation, Transaction};

    /// A tiny 4-validator network driven synchronously, asserting the
    /// full pipeline: submit → nominate → ballot → externalize → close.
    struct MiniNet {
        validators: Vec<Validator>,
        /// Every timer handed out, `(deadline, node, slot, kind)`.
        timers: BTreeSet<(u64, usize, SlotIndex, TimerKind)>,
        /// Sets shipped so far. A shipped set reaches every validator at
        /// once, so this is each one's record of what crossed the network.
        shipped: BTreeSet<Hash256>,
        now_ms: u64,
    }

    fn produced_nothing(out: &Outputs) -> bool {
        out.envelopes.is_empty() && !out.taken && out.timers.is_empty()
    }

    fn user_keys(n: u64) -> KeyPair {
        KeyPair::from_seed(1000 + n)
    }

    fn user(n: u64) -> AccountId {
        AccountId(user_keys(n).public())
    }

    fn genesis() -> LedgerStore {
        let mut s = LedgerStore::new();
        for n in 0..4 {
            s.put_account(AccountEntry::new(user(n), xlm(1000)));
        }
        s
    }

    impl MiniNet {
        fn new(n: u32) -> MiniNet {
            let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
            let qset = QuorumSet::majority(ids.clone());
            let registry: BTreeMap<NodeId, PublicKey> = ids
                .iter()
                .map(|id| (*id, KeyPair::from_seed(u64::from(id.0)).public()))
                .collect();
            let validators = ids
                .iter()
                .map(|id| {
                    Validator::new(
                        *id,
                        KeyPair::from_seed(u64::from(id.0)),
                        qset.clone(),
                        genesis(),
                        registry.clone(),
                    )
                })
                .collect();
            MiniNet {
                validators,
                timers: BTreeSet::new(),
                shipped: BTreeSet::new(),
                now_ms: 1000,
            }
        }

        fn route(&mut self, from: usize, out: Outputs) {
            let mut queue = vec![(from, out)];
            while let Some((src, out)) = queue.pop() {
                let timers = out.timers.into_iter();
                self.timers
                    .extend(timers.map(|(slot, kind, at)| (at, src, slot, kind)));
                let sets =
                    self.validators[src].sets_to_ship(&out.envelopes, |h| self.shipped.contains(h));
                self.shipped.extend(sets.iter().map(TransactionSet::hash));
                for env in out.envelopes {
                    for i in 0..self.validators.len() {
                        if i != src {
                            self.validators[i].set_time_ms(self.now_ms);
                            let o = self.validators[i].receive_envelope(&env);
                            queue.push((i, o));
                        }
                    }
                }
                for set in sets {
                    for i in 0..self.validators.len() {
                        if i != src {
                            self.validators[i].set_time_ms(self.now_ms);
                            let o = self.validators[i].receive_tx_set(set.clone());
                            queue.push((i, o));
                        }
                    }
                }
            }
        }

        fn run_ledger(&mut self) {
            let slot = self.validators[0].herder.current_slot();
            for i in 0..self.validators.len() {
                self.validators[i].set_time_ms(self.now_ms);
                let out = self.validators[i].trigger_next_ledger();
                self.route(i, out);
            }
            // Fire timers until everyone closed the slot.
            for _ in 0..200 {
                if self.validators.iter().all(|v| v.ledger_seq() >= slot) {
                    return;
                }
                let Some((deadline, i, s, k)) = self.timers.pop_first() else {
                    break;
                };
                self.now_ms = self.now_ms.max(deadline);
                self.validators[i].set_time_ms(self.now_ms);
                if let Some(out) = self.validators[i].on_timer(s, k, deadline) {
                    self.route(i, out);
                }
            }
            panic!("ledger {slot} did not close");
        }
    }

    #[test]
    fn empty_ledgers_close() {
        let mut net = MiniNet::new(4);
        net.now_ms = 5000;
        net.run_ledger();
        for v in &net.validators {
            assert_eq!(v.ledger_seq(), 2);
        }
        // All headers identical.
        let h0 = net.validators[0].herder.header.hash();
        for v in &net.validators[1..] {
            assert_eq!(v.herder.header.hash(), h0);
        }
    }

    #[test]
    fn payment_flows_through_consensus() {
        let mut net = MiniNet::new(4);
        net.now_ms = 5000;
        let k = user_keys(0);
        let tx = Transaction {
            source: user(0),
            seq_num: 1,
            fee: BASE_FEE,
            time_bounds: None,
            memo: Memo::Text("hello".into()),
            operations: vec![SourcedOperation {
                source: None,
                op: Operation::Payment {
                    destination: user(1),
                    asset: Asset::Native,
                    amount: xlm(7),
                },
            }],
        };
        let env = TransactionEnvelope::sign(tx, &[&k]);
        // Transactions flood to every validator before nomination (the
        // overlay's job); submit everywhere so any leader proposes it.
        for v in &mut net.validators {
            v.submit_transaction(env.clone()).unwrap();
        }
        net.run_ledger();
        for v in &net.validators {
            assert_eq!(
                v.herder.store.account(user(1)).unwrap().balance,
                xlm(1007),
                "node {} must apply the payment",
                v.id()
            );
            assert_eq!(v.herder.close_stats.last().unwrap().tx_count, 1);
        }
    }

    #[test]
    fn successive_ledgers_chain() {
        let mut net = MiniNet::new(4);
        net.now_ms = 5000;
        net.run_ledger();
        let h2 = net.validators[0].herder.header.clone();
        net.now_ms += 5000;
        net.run_ledger();
        let h3 = net.validators[0].herder.header.clone();
        assert_eq!(h3.ledger_seq, h2.ledger_seq + 1);
        assert_eq!(h3.prev_header_hash, h2.hash());
        assert!(h3.close_time > h2.close_time);
    }

    #[test]
    fn on_timer_fires_only_the_deadline_still_armed() {
        use stellar_scp::driver::Driver;
        let mut v = MiniNet::new(4).validators.remove(0);
        v.set_time_ms(5_000);
        let out = v.trigger_next_ledger();
        let slot = v.herder.current_slot();
        let nomination = TimerKind::Nomination;
        assert_eq!(out.timers, vec![(slot, nomination, 6_000)]);
        // What a timer that fires could change.
        let state = |v: &Validator| {
            let timeouts = v
                .herder
                .telemetry
                .registry
                .counter("scp.timeout.nomination");
            let own = v.scp.slot(slot).map(|s| s.own_statements(v.id()));
            let records = v.herder.slot_records.clone();
            let registry = v.herder.telemetry.registry.snapshot();
            (v.herder.armed.clone(), records, registry, timeouts, own)
        };
        let ignored = |v: &mut Validator, kind, deadline| {
            let before = state(v);
            assert!(v.on_timer(slot, kind, deadline).is_none());
            assert_eq!(
                state(v),
                before,
                "{kind:?} at {deadline} changed the validator"
            );
        };
        // Never armed: another kind, another deadline.
        ignored(&mut v, TimerKind::Ballot, 6_000);
        ignored(&mut v, nomination, 6_001);
        // Replaced: the same timer re-armed for two seconds.
        Driver::set_timer(
            &mut v.herder,
            slot,
            nomination,
            Some(Duration::from_secs(2)),
        );
        ignored(&mut v, nomination, 6_000);
        // The deadline it holds fires once, and the round re-arms.
        v.set_time_ms(7_000);
        assert!(v.on_timer(slot, nomination, 7_000).is_some());
        let reg = &v.herder.telemetry.registry;
        assert_eq!(reg.counter("scp.timeout.nomination"), 1);
        assert_eq!(v.herder.armed.get(&(slot, nomination)), Some(&9_000));
        ignored(&mut v, nomination, 7_000);
        // Cancelled.
        Driver::set_timer(&mut v.herder, slot, nomination, None);
        ignored(&mut v, nomination, 9_000);
        assert!(v.herder.armed.is_empty());
    }

    #[test]
    fn rejected_envelopes_are_counted_and_leave_no_trace() {
        use stellar_scp::{Ballot, Statement, StatementKind, Value};
        let mut net = MiniNet::new(4);
        let qset = net.validators[0].scp.quorum_set().clone();
        // A PREPARE claiming h = 2 with no accepted-prepared ballot,
        // signed with node 1's registered key.
        let insane = Statement {
            node: NodeId(1),
            slot: 2,
            quorum_set: qset,
            kind: StatementKind::Prepare {
                ballot: Ballot::new(1, Value::new(b"x".to_vec())),
                prepared: None,
                prepared_prime: None,
                c_n: 0,
                h_n: 2,
            },
        };
        let forged = Envelope::sign(insane.clone(), &KeyPair::from_seed(99));
        let insane = Envelope::sign(insane, &KeyPair::from_seed(1));
        let v = &mut net.validators[0];
        assert!(produced_nothing(&v.receive_envelope(&insane)));
        assert!(produced_nothing(&v.receive_envelope(&forged)));
        let reg = &v.herder.telemetry.registry;
        assert_eq!(reg.counter("scp.insane_statements"), 1);
        assert_eq!(reg.counter("scp.bad_signatures"), 1);
        assert_eq!(v.scp.live_slots(), 0, "no slot for a rejected statement");
        assert_eq!(
            v.herder.persist.stats().bytes_written,
            0,
            "nothing in the WAL"
        );
    }

    /// Delivers node 1's validly signed statement of `kind` for slot 2,
    /// under `qset` (node 1's own when `None`), to a fresh validator: it
    /// must be rejected and counted under `counter` alone, creating no
    /// slot and writing nothing.
    fn assert_rejected(qset: Option<QuorumSet>, kind: stellar_scp::StatementKind, counter: &str) {
        let mut net = MiniNet::new(4);
        let v = &mut net.validators[0];
        let statement = Statement {
            node: NodeId(1),
            slot: 2,
            quorum_set: qset.unwrap_or_else(|| v.scp.quorum_set().clone()),
            kind,
        };
        let env = Envelope::sign(statement, &KeyPair::from_seed(1));
        assert!(produced_nothing(&v.receive_envelope(&env)));
        let reg = &v.herder.telemetry.registry;
        for key in [
            "scp.bad_signatures",
            "scp.malformed_qsets",
            "scp.insane_statements",
        ] {
            assert_eq!(reg.counter(key), u64::from(key == counter), "{key}");
        }
        assert_eq!(v.scp.live_slots(), 0, "no slot for a rejected statement");
        assert_eq!(
            v.herder.persist.stats().bytes_written,
            0,
            "nothing in the WAL"
        );
    }

    #[test]
    fn far_future_envelopes_are_dropped_and_counted() {
        use stellar_scp::{StatementKind, Value};
        let mut net = MiniNet::new(4);
        let v = &mut net.validators[0];
        let bracket_top = v.herder.current_slot() + LEDGER_VALIDITY_BRACKET;
        for slot in bracket_top + 1..=bracket_top + 1000 {
            let kind = StatementKind::Nominate {
                voted: [Value::new(b"x".to_vec())].into(),
                accepted: Default::default(),
            };
            assert!(kind.is_sane());
            let statement = Statement {
                node: NodeId(1),
                slot,
                quorum_set: v.scp.quorum_set().clone(),
                kind,
            };
            v.receive_envelope(&Envelope::sign(statement, &KeyPair::from_seed(1)));
        }
        assert_eq!(v.scp.live_slots(), 0, "no state for a far-future slot");
        let reg = &v.herder.telemetry.registry;
        assert_eq!(reg.counter("scp.far_future_dropped"), 1000);
        assert_eq!(reg.counter("scp.insane_statements"), 0);
    }

    #[test]
    fn stale_slot_envelopes_are_dropped_and_counted() {
        use stellar_scp::{StatementKind, Value};
        let mut net = MiniNet::new(4);
        for _ in 0..SLOT_WINDOW + 2 {
            net.now_ms += 5000;
            net.run_ledger();
        }
        let v = &mut net.validators[0];
        let stale_below = v.herder.current_slot() - SLOT_WINDOW;
        let before = v
            .herder
            .telemetry
            .registry
            .counter("scp.envelope_in.nominate");
        let live = v.scp.live_slots();
        for i in 0..1000 {
            let kind = StatementKind::Nominate {
                voted: [Value::new(i.to_string().into_bytes())].into(),
                accepted: Default::default(),
            };
            assert!(kind.is_sane());
            let statement = Statement {
                node: NodeId(1),
                slot: 1 + i % (stale_below - 1),
                quorum_set: v.scp.quorum_set().clone(),
                kind,
            };
            let env = Envelope::sign(statement, &KeyPair::from_seed(1));
            assert!(produced_nothing(&v.receive_envelope(&env)));
        }
        let reg = &v.herder.telemetry.registry;
        assert_eq!(reg.counter("scp.envelope_in.nominate"), before);
        assert_eq!(reg.counter("scp.stale_slot_dropped"), 1000);
        assert_eq!(v.scp.live_slots(), live, "no state for a stale slot");
    }

    fn x(counter: u32) -> stellar_scp::Ballot {
        stellar_scp::Ballot::new(counter, stellar_scp::Value::new(b"x".to_vec()))
    }

    #[test]
    fn malformed_quorum_sets_are_counted_and_leave_no_trace() {
        let zero_threshold = QuorumSet {
            threshold: 0,
            validators: vec![NodeId(0), NodeId(1)],
            inner: Vec::new(),
        };
        let prepare = stellar_scp::StatementKind::Prepare {
            ballot: x(1),
            prepared: None,
            prepared_prime: None,
            c_n: 0,
            h_n: 0,
        };
        assert_rejected(Some(zero_threshold), prepare, "scp.malformed_qsets");
    }

    /// One test per rule of `StatementKind::is_sane`: node 1's validly
    /// signed statement breaking that rule, and only that one, is
    /// rejected and counted as insane.
    macro_rules! insane {
        ($($name:ident: $kind:expr;)*) => {$(
            #[test]
            fn $name() {
                use stellar_scp::StatementKind::*;
                let kind = $kind;
                assert!(!kind.is_sane(), "{kind:?}");
                assert_rejected(None, kind, "scp.insane_statements");
            }
        )*};
    }

    insane! {
        insane_prepare_at_counter_zero: Prepare {
            ballot: x(0), prepared: None, prepared_prime: None, c_n: 0, h_n: 0,
        };
        insane_prepare_with_p_prime_compatible_with_p: Prepare {
            ballot: x(5), prepared: Some(x(4)), prepared_prime: Some(x(3)), c_n: 0, h_n: 0,
        };
        insane_prepare_with_h_above_p: Prepare {
            ballot: x(5), prepared: Some(x(2)), prepared_prime: None, c_n: 0, h_n: 3,
        };
        insane_prepare_with_c_above_h: Prepare {
            ballot: x(5), prepared: Some(x(4)), prepared_prime: None, c_n: 4, h_n: 3,
        };
        insane_confirm_at_counter_zero: Confirm { ballot: x(0), p_n: 0, c_n: 0, h_n: 0 };
        insane_confirm_with_h_above_b: Confirm { ballot: x(3), p_n: 3, c_n: 2, h_n: 4 };
        insane_confirm_with_c_above_h: Confirm { ballot: x(5), p_n: 5, c_n: 4, h_n: 3 };
        insane_externalize_at_counter_zero: Externalize { commit: x(0), h_n: 4 };
        insane_externalize_with_h_below_commit: Externalize { commit: x(4), h_n: 3 };
    }

    #[test]
    fn torn_record_loses_that_record_only() {
        let mut net = MiniNet::new(4);
        net.now_ms = 5000;
        for _ in 0..3 {
            net.run_ledger();
            net.now_ms += 5000;
        }
        let v = &mut net.validators[0];
        let on_disk = |v: &mut Validator| -> Vec<String> {
            let envelopes = v.herder.recover_scp_envelopes(0);
            envelopes
                .iter()
                .map(|env| scp_record_key(env.statement.slot, env.statement.kind.is_nomination()))
                .collect()
        };
        let before = on_disk(v);
        assert_eq!(
            before.len(),
            6,
            "nominate + ballot for slots 2-4: {before:?}"
        );
        // The fsync behind slot 5's first nomination fails, and the crash
        // tears that staged write.
        v.herder.persist.fail_next_fsyncs(1);
        let held = v.trigger_next_ledger();
        assert!(held.envelopes.is_empty() && !v.herder.outbox.is_empty());
        v.herder.persist.tear_next_crash();
        v.herder.persist.crash();
        assert!(
            v.herder.persist.raw("scp/5/nominate").is_some(),
            "garbage on disk"
        );
        assert_eq!(on_disk(v), before, "one torn record, not the whole window");
        // Recovery staged the unreadable record's removal.
        assert!(v.herder.persist.sync());
        assert_eq!(v.herder.persist.raw("scp/5/nominate"), None);
    }
}
