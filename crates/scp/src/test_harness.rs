//! A deterministic in-process harness for running small SCP networks.
//!
//! This module exists for tests, documentation examples, and
//! micro-benchmarks: it wires N [`ScpNode`]s together with instantaneous
//! flooding and a virtual clock, with optional crash and equivocation
//! faults. The full discrete-event simulator with latency models lives in
//! the `stellar-sim` crate; this harness trades realism for simplicity and
//! speed.

use crate::driver::{Driver, ScpEvent, TimerKind, Validity};
use crate::{Envelope, NodeId, QuorumSet, ScpNode, SlotIndex, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Driver used by the harness: records everything, answers keys from a
/// shared seed-derived registry.
pub struct HarnessDriver {
    /// Seed namespace for key derivation (shared across the network).
    key_seed: u64,
    /// Envelopes emitted by the node this driver belongs to.
    pub outbox: Vec<Envelope>,
    /// Timers requested: (slot, kind) → absolute virtual deadline (ms).
    pub timers: BTreeMap<(SlotIndex, TimerKind), u64>,
    /// Current virtual time (ms), maintained by the network.
    pub now_ms: u64,
    /// Decisions delivered, by slot.
    pub decisions: BTreeMap<SlotIndex, Value>,
    /// All protocol events observed.
    pub events: Vec<ScpEvent>,
}

/// Derives the well-known keypair for a node in a harness network.
pub fn harness_keys(key_seed: u64, node: NodeId) -> stellar_crypto::sign::KeyPair {
    stellar_crypto::sign::KeyPair::from_seed(key_seed ^ (u64::from(node.0) << 16))
}

impl HarnessDriver {
    fn new(key_seed: u64) -> Self {
        HarnessDriver {
            key_seed,
            outbox: Vec::new(),
            timers: BTreeMap::new(),
            now_ms: 0,
            decisions: BTreeMap::new(),
            events: Vec::new(),
        }
    }
}

impl Driver for HarnessDriver {
    fn validate_value(&mut self, _slot: SlotIndex, _value: &Value, _nomination: bool) -> Validity {
        Validity::FullyValidated
    }

    fn combine_candidates(
        &mut self,
        _slot: SlotIndex,
        candidates: &BTreeSet<Value>,
    ) -> Option<Value> {
        // Deterministic combiner: the lexicographically largest candidate.
        candidates.iter().next_back().cloned()
    }

    fn emit_envelope(&mut self, envelope: &Envelope) {
        self.outbox.push(envelope.clone());
    }

    fn set_timer(&mut self, slot: SlotIndex, kind: TimerKind, delay: Option<Duration>) {
        match delay {
            Some(d) => {
                self.timers
                    .insert((slot, kind), self.now_ms + d.as_millis() as u64);
            }
            None => {
                self.timers.remove(&(slot, kind));
            }
        }
    }

    fn externalized(&mut self, slot: SlotIndex, value: &Value) {
        let prev = self.decisions.insert(slot, value.clone());
        assert!(prev.is_none(), "double externalize on slot {slot}");
    }

    fn public_key(&self, node: NodeId) -> Option<stellar_crypto::sign::PublicKey> {
        Some(harness_keys(self.key_seed, node).public())
    }

    fn on_event(&mut self, event: ScpEvent) {
        self.events.push(event);
    }
}

/// An N-node SCP network with instantaneous flooding and a virtual clock.
pub struct InMemoryNetwork {
    nodes: Vec<ScpNode>,
    drivers: Vec<HarnessDriver>,
    crashed: BTreeSet<NodeId>,
    /// Virtual time in milliseconds.
    now_ms: u64,
    /// Total envelopes delivered (message-count metric).
    pub delivered: u64,
}

impl InMemoryNetwork {
    /// Builds a network where every node uses the same quorum set.
    pub fn new(ids: &[NodeId], qset: &QuorumSet, key_seed: u64) -> InMemoryNetwork {
        Self::with_qsets(ids.iter().map(|id| (*id, qset.clone())).collect(), key_seed)
    }

    /// Builds a network with per-node quorum sets.
    pub fn with_qsets(config: Vec<(NodeId, QuorumSet)>, key_seed: u64) -> InMemoryNetwork {
        let mut nodes = Vec::new();
        let mut drivers = Vec::new();
        for (id, qset) in config {
            nodes.push(ScpNode::new(id, harness_keys(key_seed, id), qset));
            drivers.push(HarnessDriver::new(key_seed));
        }
        InMemoryNetwork {
            nodes,
            drivers,
            crashed: BTreeSet::new(),
            now_ms: 0,
            delivered: 0,
        }
    }

    /// Marks a node as crashed: it stops sending and receiving.
    pub fn crash(&mut self, id: NodeId) {
        self.crashed.insert(id);
    }

    /// Revives a crashed node.
    pub fn revive(&mut self, id: NodeId) {
        self.crashed.remove(&id);
    }

    fn index_of(&self, id: NodeId) -> usize {
        self.nodes
            .iter()
            .position(|n| n.id() == id)
            .unwrap_or_else(|| panic!("unknown node {id}"))
    }

    /// Proposes `value` at `slot` on node `id`.
    pub fn propose(&mut self, id: NodeId, slot: SlotIndex, value: Value) {
        let i = self.index_of(id);
        if self.crashed.contains(&id) {
            return;
        }
        self.nodes[i].propose(&mut self.drivers[i], slot, value);
    }

    /// Floods all pending envelopes until quiescent. Returns the number of
    /// envelopes delivered.
    pub fn flood(&mut self) -> u64 {
        let mut delivered = 0;
        loop {
            let mut batch: Vec<Envelope> = Vec::new();
            for (i, d) in self.drivers.iter_mut().enumerate() {
                if self.crashed.contains(&self.nodes[i].id()) {
                    d.outbox.clear();
                    continue;
                }
                batch.append(&mut d.outbox);
            }
            if batch.is_empty() {
                return delivered;
            }
            for env in batch {
                for i in 0..self.nodes.len() {
                    let id = self.nodes[i].id();
                    if self.crashed.contains(&id) || env.statement.node == id {
                        continue;
                    }
                    self.nodes[i].receive(&mut self.drivers[i], &env);
                    delivered += 1;
                    self.delivered += 1;
                }
            }
        }
    }

    /// Fires the earliest pending timer (advancing the virtual clock).
    /// Returns `false` when no timers are pending.
    fn fire_next_timer(&mut self) -> bool {
        let mut best: Option<(u64, usize, SlotIndex, TimerKind)> = None;
        for (i, d) in self.drivers.iter().enumerate() {
            if self.crashed.contains(&self.nodes[i].id()) {
                continue;
            }
            for ((slot, kind), deadline) in &d.timers {
                if best.is_none() || *deadline < best.as_ref().unwrap().0 {
                    best = Some((*deadline, i, *slot, *kind));
                }
            }
        }
        let Some((deadline, i, slot, kind)) = best else {
            return false;
        };
        self.now_ms = self.now_ms.max(deadline);
        for d in &mut self.drivers {
            d.now_ms = self.now_ms;
        }
        self.drivers[i].timers.remove(&(slot, kind));
        self.nodes[i].on_timeout(&mut self.drivers[i], slot, kind);
        true
    }

    /// Runs floods and timers until every live node decides `slot` or no
    /// activity remains. Returns the per-node decisions.
    pub fn run_to_quiescence(&mut self, slot: SlotIndex) -> BTreeMap<NodeId, Value> {
        // Bounded loop: SCP without faults decides in a handful of rounds;
        // the bound only guards against blocked configurations (it limits
        // how long we keep firing nomination-round timers into the void).
        for _ in 0..300 {
            self.flood();
            let undecided = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| {
                    !self.crashed.contains(&n.id())
                        && !self.drivers[*i].decisions.contains_key(&slot)
                })
                .count();
            if undecided == 0 {
                break;
            }
            if !self.fire_next_timer() {
                break;
            }
        }
        self.decisions(slot)
    }

    /// Current decisions for `slot` across live nodes.
    pub fn decisions(&self, slot: SlotIndex) -> BTreeMap<NodeId, Value> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                self.drivers[i]
                    .decisions
                    .get(&slot)
                    .map(|v| (n.id(), v.clone()))
            })
            .collect()
    }

    /// Replaces a node's quorum slices mid-run (§3.1.1 unilateral
    /// reconfiguration).
    pub fn set_quorum_set(&mut self, id: NodeId, qset: QuorumSet) {
        let i = self.index_of(id);
        self.nodes[i].set_quorum_set(qset);
    }

    /// Access a node (for inspection).
    pub fn node(&self, id: NodeId) -> &ScpNode {
        &self.nodes[self.index_of(id)]
    }

    /// Access a node's driver (events, decisions, timers).
    pub fn driver(&self, id: NodeId) -> &HarnessDriver {
        &self.drivers[self.index_of(id)]
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Injects a raw envelope as if sent by a (possibly Byzantine) peer.
    pub fn inject(&mut self, env: &Envelope) {
        for i in 0..self.nodes.len() {
            let id = self.nodes[i].id();
            if self.crashed.contains(&id) || env.statement.node == id {
                continue;
            }
            self.nodes[i].receive(&mut self.drivers[i], env);
        }
        self.flood();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn four_nodes_reach_consensus() {
        let nodes = ids(4);
        let qset = QuorumSet::majority(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, 1);
        for n in &nodes {
            net.propose(*n, 1, Value::new(b"v".to_vec()));
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(decided.len(), 4);
        let vals: BTreeSet<_> = decided.values().collect();
        assert_eq!(vals.len(), 1, "all nodes must agree");
    }

    #[test]
    fn divergent_proposals_converge() {
        let nodes = ids(4);
        let qset = QuorumSet::majority(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, 2);
        for (i, n) in nodes.iter().enumerate() {
            net.propose(*n, 1, Value::new(format!("proposal-{i}").into_bytes()));
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(decided.len(), 4);
        let vals: BTreeSet<_> = decided.values().collect();
        assert_eq!(vals.len(), 1, "agreement despite divergent proposals");
    }

    #[test]
    fn survives_one_crash_with_byzantine_threshold() {
        let nodes = ids(4);
        let qset = QuorumSet::byzantine(nodes.clone()); // 3-of-4
        let mut net = InMemoryNetwork::new(&nodes, &qset, 3);
        net.crash(NodeId(3));
        for n in &nodes[..3] {
            net.propose(*n, 1, Value::new(b"v".to_vec()));
        }
        let decided = net.run_to_quiescence(1);
        assert_eq!(
            decided.len(),
            3,
            "three live nodes decide without the fourth"
        );
    }

    #[test]
    fn blocked_without_quorum() {
        let nodes = ids(4);
        let qset = QuorumSet::byzantine(nodes.clone()); // threshold 3
        let mut net = InMemoryNetwork::new(&nodes, &qset, 4);
        net.crash(NodeId(2));
        net.crash(NodeId(3));
        for n in &nodes[..2] {
            net.propose(*n, 1, Value::new(b"v".to_vec()));
        }
        let decided = net.run_to_quiescence(1);
        assert!(decided.is_empty(), "no quorum of 3 exists, must not decide");
    }

    #[test]
    fn multiple_slots_decide_independently() {
        let nodes = ids(4);
        let qset = QuorumSet::majority(nodes.clone());
        let mut net = InMemoryNetwork::new(&nodes, &qset, 5);
        for slot in 1..=3u64 {
            for n in &nodes {
                net.propose(*n, slot, Value::new(format!("ledger-{slot}").into_bytes()));
            }
            let decided = net.run_to_quiescence(slot);
            assert_eq!(decided.len(), 4, "slot {slot}");
        }
    }
}

#[cfg(test)]
mod reconfiguration_tests {
    use super::*;

    /// §3.1.1: "any node can unilaterally adjust its quorum slices at any
    /// time" — here survivors retune mid-run to recover liveness for the
    /// *next* slot after two peers die.
    #[test]
    fn unilateral_slice_retuning_restores_liveness() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let qset = QuorumSet::byzantine(nodes.clone()); // 3-of-4
        let mut net = InMemoryNetwork::new(&nodes, &qset, 42);

        // Slot 1 decides normally.
        for n in &nodes {
            net.propose(*n, 1, Value::new(b"one".to_vec()));
        }
        assert_eq!(net.run_to_quiescence(1).len(), 4);

        // Two nodes die; slot 2 blocks under the old slices.
        net.crash(NodeId(2));
        net.crash(NodeId(3));
        for n in &nodes[..2] {
            net.propose(*n, 2, Value::new(b"two".to_vec()));
        }
        assert!(
            net.run_to_quiescence(2).is_empty(),
            "3-of-4 with 2 dead must block"
        );

        // Survivors retune to 2-of-2 — no global reconfiguration round.
        let live: Vec<NodeId> = nodes[..2].to_vec();
        let retuned = QuorumSet::threshold_of(2, live.clone());
        for n in &live {
            net.set_quorum_set(*n, retuned.clone());
        }
        for n in &live {
            net.propose(*n, 3, Value::new(b"three".to_vec()));
        }
        let decided = net.run_to_quiescence(3);
        assert_eq!(decided.len(), 2, "retuned survivors decide slot 3");
        let vals: std::collections::BTreeSet<_> = decided.values().collect();
        assert_eq!(vals.len(), 1);
    }
}
