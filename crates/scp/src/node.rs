//! A multi-slot SCP node: the crate's main entry point.
//!
//! [`ScpNode`] owns one [`crate::slot::Slot`] per consensus instance
//! and handles envelope verification, slot routing, quorum-set updates
//! (nodes may retune slices at any time, §3.1.1), and old-slot pruning.

use crate::driver::{Driver, ScpEvent, TimerKind};
use crate::slot::{Ctx, Slot, SlotSnapshot};
use crate::{Envelope, NodeId, QuorumSet, SlotIndex, Value};
use std::collections::{BTreeMap, BTreeSet};
use stellar_crypto::sign::KeyPair;

/// A validator participating in SCP across many slots.
pub struct ScpNode {
    id: NodeId,
    keys: KeyPair,
    qset: QuorumSet,
    slots: BTreeMap<SlotIndex, Slot>,
    /// Live slots that may have changed since the embedder last made
    /// them durable ([`ScpNode::mark_saved`]).
    unsaved: BTreeSet<SlotIndex>,
    /// Slots pruned since then: their durable records are now garbage.
    pruned: BTreeSet<SlotIndex>,
    /// Envelopes dropped due to bad signatures (metric / test hook).
    bad_signatures: u64,
    /// Envelopes dropped for failing [`crate::StatementKind::is_sane`].
    insane_statements: u64,
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
            unsaved: BTreeSet::new(),
            pruned: BTreeSet::new(),
            bad_signatures: 0,
            insane_statements: 0,
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

    /// Count of envelopes rejected for bad signatures.
    pub fn bad_signature_count(&self) -> u64 {
        self.bad_signatures
    }

    /// Count of envelopes rejected for an inconsistent statement.
    pub fn insane_statement_count(&self) -> u64 {
        self.insane_statements
    }

    /// Access a slot's state (for metrics and tests).
    pub fn slot(&self, index: SlotIndex) -> Option<&Slot> {
        self.slots.get(&index)
    }

    /// The decided value for `index`, if externalized.
    pub fn decision(&self, index: SlotIndex) -> Option<&Value> {
        self.slots.get(&index).and_then(Slot::decision)
    }

    /// Proposes `value` for slot `index`, starting nomination there.
    pub fn propose<D: Driver>(&mut self, driver: &mut D, index: SlotIndex, value: Value) {
        let slot = self.slots.entry(index).or_insert_with(|| Slot::new(index));
        self.unsaved.insert(index);
        let mut ctx = Ctx {
            node: self.id,
            slot: index,
            qset: &self.qset,
            keys: &self.keys,
            driver,
        };
        slot.propose(&mut ctx, value);
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
        if !verified {
            self.bad_signatures += 1;
            return false;
        }
        if !st.quorum_set.is_well_formed() {
            return false;
        }
        if !st.kind.is_sane() {
            self.insane_statements += 1;
            return false;
        }
        driver.on_event(ScpEvent::EnvelopeProcessed {
            slot: st.slot,
            from: st.node,
            kind: st.kind.class_name(),
        });
        let slot = self
            .slots
            .entry(st.slot)
            .or_insert_with(|| Slot::new(st.slot));
        self.unsaved.insert(st.slot);
        let mut ctx = Ctx {
            node: self.id,
            slot: st.slot,
            qset: &self.qset,
            keys: &self.keys,
            driver,
        };
        slot.process(&mut ctx, st);
        true
    }

    /// This node's own latest statements for slot `index`, re-signed into
    /// envelopes. Peers exchange these when a connection is (re)established
    /// — naïve flooding has no retransmission, so without this state
    /// exchange two healed partitions would never learn what the other
    /// side voted while the link was down (stellar-core's `GET_SCP_STATE`
    /// serves the same purpose).
    pub fn own_latest_envelopes(&self, index: SlotIndex) -> Vec<Envelope> {
        let Some(slot) = self.slots.get(&index) else {
            return Vec::new();
        };
        let mut envelopes = Vec::new();
        if let Some(st) = slot.nomination().latest_statement(self.id) {
            envelopes.push(Envelope::sign(st.clone(), &self.keys));
        }
        if let Some(st) = slot.ballot().latest_statement(self.id) {
            envelopes.push(Envelope::sign(st.clone(), &self.keys));
        }
        envelopes
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
        if let Some(slot) = self.slots.get_mut(&index) {
            self.unsaved.insert(index);
            let mut ctx = Ctx {
                node: self.id,
                slot: index,
                qset: &self.qset,
                keys: &self.keys,
                driver,
            };
            slot.reevaluate(&mut ctx);
        }
    }

    /// Re-runs nomination for `index` after the application learned state
    /// that may unblock value validation (e.g. a tx set arrived).
    pub fn retry_nomination<D: Driver>(&mut self, driver: &mut D, index: SlotIndex) {
        if let Some(slot) = self.slots.get_mut(&index) {
            self.unsaved.insert(index);
            let mut ctx = Ctx {
                node: self.id,
                slot: index,
                qset: &self.qset,
                keys: &self.keys,
                driver,
            };
            slot.retry_nomination(&mut ctx);
        }
    }

    /// Handles a timer expiry previously requested through the driver.
    pub fn on_timeout<D: Driver>(&mut self, driver: &mut D, index: SlotIndex, kind: TimerKind) {
        if let Some(slot) = self.slots.get_mut(&index) {
            self.unsaved.insert(index);
            let mut ctx = Ctx {
                node: self.id,
                slot: index,
                qset: &self.qset,
                keys: &self.keys,
                driver,
            };
            slot.on_timeout(&mut ctx, kind);
        }
    }

    /// Snapshots every live slot: the information the embedder's durable
    /// store must hold after each successful write-ahead sync.
    pub fn snapshot_slots(&self) -> Vec<SlotSnapshot> {
        self.slots.values().map(Slot::snapshot).collect()
    }

    /// What changed since the last [`ScpNode::mark_saved`], for
    /// write-ahead persistence: snapshots of the live slots touched
    /// since then, and the indices of the slots pruned since then. The
    /// embedder makes exactly this durable (one record per slot) *before*
    /// releasing any outbound envelope, so a crash-restarted node can
    /// never contradict a vote it already published (§3, §5.4).
    pub fn unsaved_slots(&self) -> (Vec<SlotSnapshot>, Vec<SlotIndex>) {
        let touched = self
            .unsaved
            .iter()
            .filter_map(|index| self.slots.get(index))
            .map(Slot::snapshot)
            .collect();
        (touched, self.pruned.iter().copied().collect())
    }

    /// Records that everything [`ScpNode::unsaved_slots`] last reported
    /// is durable. Call only after a sync that covered it succeeded, with
    /// no step in between — a slot stays unsaved until then.
    pub fn mark_saved(&mut self) {
        self.unsaved.clear();
        self.pruned.clear();
    }

    /// Restores one slot from a durable snapshot (crash recovery),
    /// replacing any in-memory state for that index. Timers are re-armed
    /// through the driver and a decided slot re-notifies
    /// [`Driver::externalized`].
    pub fn restore_slot<D: Driver>(&mut self, driver: &mut D, snap: SlotSnapshot) {
        let index = snap.index;
        let mut ctx = Ctx {
            node: self.id,
            slot: index,
            qset: &self.qset,
            keys: &self.keys,
            driver,
        };
        let slot = Slot::restore(&mut ctx, snap);
        self.slots.insert(index, slot);
        self.unsaved.insert(index);
    }

    /// Drops state for slots below `keep_from` (ledger history is the
    /// application's job; old SCP state is only needed to help stragglers,
    /// which Stellar bounds to a small window).
    pub fn prune_slots_below(&mut self, keep_from: SlotIndex) {
        // Called after every step; almost always nothing is below.
        if self.slots.range(..keep_from).next().is_none() {
            return;
        }
        let kept = self.slots.split_off(&keep_from);
        let dropped = std::mem::replace(&mut self.slots, kept);
        self.pruned.extend(dropped.into_keys());
    }

    /// Number of live slots.
    pub fn live_slots(&self) -> usize {
        self.slots.len()
    }
}
