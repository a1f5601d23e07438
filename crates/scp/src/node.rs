//! A multi-slot SCP node: the crate's main entry point.
//!
//! [`ScpNode`] owns one [`crate::slot::Slot`] per consensus instance
//! and handles envelope verification, slot routing, quorum-set updates
//! (nodes may retune slices at any time, §3.1.1), and old-slot pruning.
//! It knows nothing of persistence: the embedder writes the envelopes the
//! node emits before releasing them, and after a crash hands them back to
//! [`ScpNode::restore`], which replays them into fresh slots.

use crate::driver::{Driver, Rejection, ScpEvent, TimerKind};
use crate::quorum::Work;
use crate::slot::{Ctx, Slot};
use crate::{Envelope, NodeId, QuorumSet, SlotIndex, Statement, Value};
use std::collections::{BTreeMap, BTreeSet};
use stellar_crypto::sign::KeyPair;

/// A validator participating in SCP across many slots.
pub struct ScpNode {
    id: NodeId,
    keys: KeyPair,
    qset: QuorumSet,
    slots: BTreeMap<SlotIndex, Slot>,
    /// Federated-voting work not yet collected by [`ScpNode::take_work`].
    work: Work,
}

impl ScpNode {
    /// Creates a node with the given identity, signing keys, and slices.
    ///
    /// # Panics
    ///
    /// Panics if `qset` is not well-formed (zero or unsatisfiable
    /// thresholds) — such configurations are always bugs.
    pub fn new(id: NodeId, keys: KeyPair, qset: QuorumSet) -> ScpNode {
        assert!(qset.is_well_formed(), "malformed quorum set for {id}");
        ScpNode {
            id,
            keys,
            qset,
            slots: BTreeMap::new(),
            work: Work::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's current quorum set.
    pub fn quorum_set(&self) -> &QuorumSet {
        &self.qset
    }

    /// Replaces this node's quorum slices (takes effect for subsequent
    /// messages; "any node can unilaterally adjust its quorum slices at
    /// any time", §3.1.1).
    ///
    /// # Panics
    ///
    /// Panics if `qset` is malformed.
    pub fn set_quorum_set(&mut self, qset: QuorumSet) {
        assert!(
            qset.is_well_formed(),
            "malformed quorum set for {}",
            self.id
        );
        self.qset = qset;
    }

    /// The federated-voting work done across all slots since the last
    /// call (exact counters for the embedder's metrics).
    pub fn take_work(&mut self) -> Work {
        std::mem::take(&mut self.work)
    }

    /// Access a slot's state (for metrics and tests).
    pub fn slot(&self, index: SlotIndex) -> Option<&Slot> {
        self.slots.get(&index)
    }

    /// The decided value for `index`, if externalized.
    pub fn decision(&self, index: SlotIndex) -> Option<&Value> {
        self.slots.get(&index).and_then(Slot::decision)
    }

    /// Runs `f` on slot `index` under a context for it, creating the slot
    /// first when `create` is set; without it a missing slot is a no-op.
    fn with_slot<D: Driver>(
        &mut self,
        driver: &mut D,
        index: SlotIndex,
        create: bool,
        f: impl FnOnce(&mut Slot, &mut Ctx<'_, D>),
    ) {
        let slot = if create {
            self.slots.entry(index).or_insert_with(|| Slot::new(index))
        } else {
            match self.slots.get_mut(&index) {
                Some(slot) => slot,
                None => return,
            }
        };
        let mut ctx = Ctx {
            node: self.id,
            slot: index,
            qset: &self.qset,
            keys: &self.keys,
            driver,
        };
        f(slot, &mut ctx);
        self.work += slot.take_work();
    }

    /// Proposes `value` for slot `index`, starting nomination there.
    pub fn propose<D: Driver>(&mut self, driver: &mut D, index: SlotIndex, value: Value) {
        self.with_slot(driver, index, true, |slot, ctx| slot.propose(ctx, value));
    }

    /// Handles an incoming envelope: verifies the signature and routes it
    /// to its slot. Returns `false` if the envelope was rejected.
    pub fn receive<D: Driver>(&mut self, driver: &mut D, envelope: &Envelope) -> bool {
        let st = &envelope.statement;
        if st.node == self.id {
            return false; // our own flooding echo
        }
        let verified = match driver.public_key(st.node) {
            Some(pk) => envelope.verify(pk),
            None => false,
        };
        let rejected = if !verified {
            Some(Rejection::BadSignature)
        } else if !st.quorum_set.is_well_formed() {
            Some(Rejection::MalformedQset)
        } else if !st.kind.is_sane() {
            Some(Rejection::Insane)
        } else {
            None
        };
        if let Some(reason) = rejected {
            let from = st.node;
            driver.on_event(ScpEvent::EnvelopeRejected { from, reason });
            return false;
        }
        driver.on_event(ScpEvent::EnvelopeProcessed {
            slot: st.slot,
            from: st.node,
            kind: st.kind.class_name(),
        });
        self.with_slot(driver, st.slot, true, |slot, ctx| slot.process(ctx, st));
        true
    }

    /// This node's own latest statements for slot `index`
    /// ([`Slot::own_statements`]), re-signed into envelopes. Peers
    /// exchange these when a connection is (re)established — naïve
    /// flooding has no retransmission, so without this state exchange two
    /// healed partitions would never learn what the other side voted while
    /// the link was down, and a restarted node would never relearn its
    /// peers' votes (stellar-core's `GET_SCP_STATE` serves the same
    /// purpose).
    pub fn own_latest_envelopes(&self, index: SlotIndex) -> Vec<Envelope> {
        self.slots.get(&index).map_or_else(Vec::new, |slot| {
            slot.own_statements(self.id)
                .into_iter()
                .map(|st| Envelope::sign(st, &self.keys))
                .collect()
        })
    }

    /// Replaces this node's quorum slices and re-evaluates the given
    /// slot against them. A slot stalled for want of a satisfiable slice
    /// produces no further envelopes or timeouts, so without this
    /// explicit re-step a runtime reconfiguration (the halt-and-
    /// reconfigure healing path) would never be acted upon.
    pub fn set_quorum_set_and_reevaluate<D: Driver>(
        &mut self,
        driver: &mut D,
        qset: QuorumSet,
        index: SlotIndex,
    ) {
        self.set_quorum_set(qset);
        self.with_slot(driver, index, false, |slot, ctx| slot.reevaluate(ctx));
    }

    /// Re-runs nomination for `index` after the application learned state
    /// that may unblock value validation (e.g. a tx set arrived).
    pub fn retry_nomination<D: Driver>(&mut self, driver: &mut D, index: SlotIndex) {
        self.with_slot(driver, index, false, |slot, ctx| slot.retry_nomination(ctx));
    }

    /// Handles a timer expiry previously requested through the driver.
    pub fn on_timeout<D: Driver>(&mut self, driver: &mut D, index: SlotIndex, kind: TimerKind) {
        self.with_slot(driver, index, false, |slot, ctx| slot.on_timeout(ctx, kind));
    }

    /// Rebuilds slots from this node's own latest statements — what the
    /// embedder's write-ahead records hold — after a crash restart. Every
    /// slot they name is replaced by a fresh one that replays them
    /// ([`Slot::restore`]); statements signed by another node are
    /// ignored. Returns the number of slots restored.
    pub fn restore<D: Driver>(&mut self, driver: &mut D, own: &[Statement]) -> usize {
        let (id, mut restored) = (self.id, BTreeSet::new());
        for st in own.iter().filter(|st| st.node == id) {
            if restored.insert(st.slot) {
                self.slots.insert(st.slot, Slot::new(st.slot));
            }
            self.with_slot(driver, st.slot, false, |slot, ctx| slot.restore(ctx, st));
        }
        restored.len()
    }

    /// Drops state for slots below `keep_from` (ledger history is the
    /// application's job; old SCP state is only needed to help stragglers,
    /// which Stellar bounds to a small window).
    pub fn prune_slots_below(&mut self, keep_from: SlotIndex) {
        // Called after every step; almost always nothing is below.
        if self.slots.range(..keep_from).next().is_some() {
            self.slots = self.slots.split_off(&keep_from);
        }
    }

    /// Number of live slots.
    pub fn live_slots(&self) -> usize {
        self.slots.len()
    }
}
