//! The invariant monitor: SCP's promises, checked every tick.
//!
//! The paper's guarantees are conditional — they hold for **intact**
//! nodes, those outside the damage radius of the ill-behaved set. The
//! monitor computes intactness the FBA way (see [`intact_nodes`]): the
//! ill-behaved set — Byzantine puppets plus currently-crashed nodes —
//! must be *dispensable*: honest nodes still contain a quorum, and
//! *deleting* the ill nodes from every quorum set
//! ([`stellar_quorum::criticality::delete_nodes`] — their votes become
//! free for either side of a split) must preserve quorum intersection.
//! If either condition fails, *no* node is intact and SCP promises
//! nothing.
//!
//! Two invariant families are then checked over intact nodes only:
//!
//! - **Safety** (unconditional for intact nodes): no two intact nodes
//!   externalize different values for the same slot, and their ledger
//!   header hashes agree at every sequence number they share.
//! - **Liveness** (conditional): while a quorum of intact nodes is
//!   connected — no partition in force — the highest intact ledger must
//!   keep advancing within a configured bound. Probabilistic link faults
//!   are *not* excluded from eligibility: a schedule that drops all
//!   traffic should either disable the liveness check or expect the
//!   stall report it causes.

use std::collections::{BTreeMap, BTreeSet};
use stellar_crypto::Hash256;
use stellar_quorum::criticality::delete_nodes;
use stellar_quorum::{enjoys_quorum_intersection, FbaSystem};
use stellar_scp::{NodeId, QuorumSet, SlotIndex, Value};
use stellar_sim::Simulation;

/// A broken invariant, with enough context to find it in the event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two intact nodes externalized different values for one slot — the
    /// core SCP safety property is gone.
    ValueDivergence {
        /// The slot both nodes decided.
        slot: SlotIndex,
        /// First witness.
        node_a: NodeId,
        /// What `node_a` externalized.
        value_a: Value,
        /// Second witness.
        node_b: NodeId,
        /// What `node_b` externalized.
        value_b: Value,
    },
    /// Two intact nodes closed the same ledger sequence with different
    /// header hashes (state divergence despite agreeing on values).
    HeaderDivergence {
        /// The diverging ledger sequence.
        seq: u64,
        /// First witness.
        node_a: NodeId,
        /// `node_a`'s header hash.
        hash_a: Hash256,
        /// Second witness.
        node_b: NodeId,
        /// `node_b`'s header hash.
        hash_b: Hash256,
    },
    /// A connected intact quorum failed to close a ledger within the
    /// configured bound.
    LivenessStall {
        /// The intact set that should have been making progress.
        intact: BTreeSet<NodeId>,
        /// When progress was last observed (ms).
        stalled_since_ms: u64,
        /// When the stall crossed the bound (ms).
        detected_at_ms: u64,
    },
}

/// The intact set, via the FBA *dispensable set* conditions: the honest
/// nodes are intact iff the ill-behaved set is dispensable, i.e.
///
/// 1. **quorum availability despite `ill`** — the honest nodes still
///    contain a quorum of the *original* system, and
/// 2. **quorum intersection despite `ill`** — after deleting `ill` from
///    every quorum set, the remaining quorums all intersect.
///
/// When both hold, the intact set is the maximal original-system quorum
/// among honest nodes; when either fails, nobody is intact and SCP
/// promises nothing. (This is the standard one-DSet approximation: it
/// treats all ill-behaved nodes as one failure event rather than
/// minimizing over every DSet containing them.)
pub fn intact_nodes(
    qsets: &BTreeMap<NodeId, QuorumSet>,
    ill: &BTreeSet<NodeId>,
) -> BTreeSet<NodeId> {
    let honest: BTreeSet<NodeId> = qsets
        .keys()
        .copied()
        .filter(|id| !ill.contains(id))
        .collect();
    if honest.is_empty() {
        return BTreeSet::new();
    }
    // Quorum availability despite ill.
    let original = FbaSystem::new(qsets.iter().map(|(id, q)| (*id, q.clone())));
    let available = original.max_quorum_in(&honest);
    if available.is_empty() {
        return BTreeSet::new();
    }
    // Quorum intersection despite ill: delete ill (their votes go to
    // either side of a split) and re-check.
    let reduced = FbaSystem::new(
        qsets
            .iter()
            .filter(|(id, _)| !ill.contains(id))
            .map(|(id, q)| (*id, delete_nodes(q, ill))),
    );
    if !enjoys_quorum_intersection(&reduced) {
        return BTreeSet::new();
    }
    available
}

/// A cascade-campaign stage the monitor has been told about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageMark {
    /// 1-based stage number.
    pub stage: usize,
    /// The failing org (or other stage label).
    pub label: String,
    /// Simulated time the stage began (ms).
    pub at_ms: u64,
}

/// How a cascade campaign first broke through the survival frontier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollapseKind {
    /// A safety or liveness violation was recorded.
    Violation,
    /// The intact set became empty: SCP promises nothing beyond this
    /// point — the Kim/Kwon/Kim cascade outcome (liveness loss, and
    /// divergence is no longer excluded).
    IntactCollapse,
}

/// The survival frontier as observed by the monitor: how many staged
/// failures the network absorbed before anything broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierReport {
    /// Largest stage prefix under which every invariant held and the
    /// intact set stayed non-empty. Equal to the number of marked stages
    /// when nothing ever broke.
    pub frontier: usize,
    /// The stage whose failures first broke through (stage number and
    /// org label), when anything did.
    pub triggering_stage: Option<StageMark>,
    /// What broke at the triggering stage.
    pub collapse: Option<CollapseKind>,
}

/// Watches a simulation for safety and liveness violations. Drive it
/// with [`InvariantMonitor::on_tick`] between simulation steps.
pub struct InvariantMonitor {
    /// Nodes under adversary control (always ill-behaved).
    byzantine: BTreeSet<NodeId>,
    /// Liveness bound in ms of no progress; 0 disables the check.
    liveness_bound_ms: u64,
    violations: Vec<Violation>,
    /// Slots / seqs already reported, to avoid duplicate findings.
    reported_slots: BTreeSet<SlotIndex>,
    reported_seqs: BTreeSet<u64>,
    /// Liveness bookkeeping.
    last_progress_ms: u64,
    last_max_seq: u64,
    eligible_since: Option<u64>,
    stall_reported: bool,
    ticks: u64,
    /// Cascade-campaign bookkeeping (see [`InvariantMonitor::mark_stage`]).
    stage_marks: Vec<StageMark>,
    first_violation_stage: Option<StageMark>,
    first_collapse_stage: Option<StageMark>,
}

impl InvariantMonitor {
    /// A monitor for a run where `byzantine` nodes are adversarial.
    /// `liveness_bound_ms` is the longest a connected intact quorum may
    /// go without closing a ledger (0 disables liveness checking).
    pub fn new(byzantine: BTreeSet<NodeId>, liveness_bound_ms: u64) -> InvariantMonitor {
        InvariantMonitor {
            byzantine,
            liveness_bound_ms,
            violations: Vec::new(),
            reported_slots: BTreeSet::new(),
            reported_seqs: BTreeSet::new(),
            last_progress_ms: 0,
            last_max_seq: 0,
            eligible_since: None,
            stall_reported: false,
            ticks: 0,
            stage_marks: Vec::new(),
            first_violation_stage: None,
            first_collapse_stage: None,
        }
    }

    /// Records entry into cascade stage `stage` (`label` names the org
    /// being failed) at simulated time `at_ms`. Violations and intactness
    /// collapse observed from this point — until the next mark — are
    /// attributed to this stage in the [`FrontierReport`].
    pub fn mark_stage(&mut self, stage: usize, label: &str, at_ms: u64) {
        self.stage_marks.push(StageMark {
            stage,
            label: label.to_string(),
            at_ms,
        });
    }

    /// Stages marked so far, in order.
    pub fn stage_marks(&self) -> &[StageMark] {
        &self.stage_marks
    }

    /// The survival frontier observed so far (see [`FrontierReport`]).
    /// The intact-collapse signal only engages once stages are marked, so
    /// non-cascade chaos runs always report a frontier of zero stages and
    /// no trigger.
    pub fn frontier_report(&self) -> FrontierReport {
        // Whichever attribution happened in the earlier stage wins; on a
        // tie, a recorded violation is the stronger finding.
        let trigger = match (&self.first_violation_stage, &self.first_collapse_stage) {
            (Some(v), Some(c)) if c.stage < v.stage => {
                Some((c.clone(), CollapseKind::IntactCollapse))
            }
            (Some(v), _) => Some((v.clone(), CollapseKind::Violation)),
            (None, Some(c)) => Some((c.clone(), CollapseKind::IntactCollapse)),
            (None, None) => None,
        };
        match trigger {
            Some((mark, kind)) => FrontierReport {
                frontier: mark.stage.saturating_sub(1),
                triggering_stage: Some(mark),
                collapse: Some(kind),
            },
            None => FrontierReport {
                frontier: self.stage_marks.last().map_or(0, |m| m.stage),
                triggering_stage: None,
                collapse: None,
            },
        }
    }

    /// The ill-behaved set right now: Byzantine plus currently crashed.
    pub fn ill_behaved(&self, sim: &Simulation) -> BTreeSet<NodeId> {
        let mut ill = self.byzantine.clone();
        for id in sim.validator_ids() {
            if sim.is_crashed(id) {
                ill.insert(id);
            }
        }
        ill
    }

    /// The currently-intact set (see [`intact_nodes`]).
    pub fn intact(&self, sim: &Simulation) -> BTreeSet<NodeId> {
        intact_nodes(&sim.quorum_sets(), &self.ill_behaved(sim))
    }

    /// Checks every invariant against the simulation's current state.
    pub fn on_tick(&mut self, sim: &Simulation) {
        self.ticks += 1;
        let intact = self.intact(sim);
        let violations_before = self.violations.len();
        self.check_safety(sim, &intact);
        if self.liveness_bound_ms > 0 {
            self.check_liveness(sim, &intact);
        }
        // Cascade attribution: the current stage owns whatever broke on
        // this tick. An empty intact set is itself a frontier event —
        // past that point SCP promises nothing, which is exactly the
        // cascade outcome even when no divergence materializes in-run.
        if let Some(current) = self.stage_marks.last().cloned() {
            if self.violations.len() > violations_before && self.first_violation_stage.is_none() {
                self.first_violation_stage = Some(current.clone());
            }
            if intact.is_empty() && self.first_collapse_stage.is_none() {
                self.first_collapse_stage = Some(current);
            }
        }
    }

    fn check_safety(&mut self, sim: &Simulation, intact: &BTreeSet<NodeId>) {
        // First intact witness per slot / seq; everyone else must match.
        let mut values: BTreeMap<SlotIndex, (NodeId, Value)> = BTreeMap::new();
        let mut headers: BTreeMap<u64, (NodeId, Hash256)> = BTreeMap::new();
        for id in intact {
            for (slot, value) in sim.externalizations(*id) {
                match values.get(&slot) {
                    None => {
                        values.insert(slot, (*id, value));
                    }
                    Some((first, v0)) if *v0 != value => {
                        if self.reported_slots.insert(slot) {
                            self.violations.push(Violation::ValueDivergence {
                                slot,
                                node_a: *first,
                                value_a: v0.clone(),
                                node_b: *id,
                                value_b: value,
                            });
                        }
                    }
                    Some(_) => {}
                }
            }
            for (seq, hash) in sim.header_hashes(*id) {
                match headers.get(&seq) {
                    None => {
                        headers.insert(seq, (*id, hash));
                    }
                    Some((first, h0)) if *h0 != hash => {
                        if self.reported_seqs.insert(seq) {
                            self.violations.push(Violation::HeaderDivergence {
                                seq,
                                node_a: *first,
                                hash_a: *h0,
                                node_b: *id,
                                hash_b: hash,
                            });
                        }
                    }
                    Some(_) => {}
                }
            }
        }
    }

    fn check_liveness(&mut self, sim: &Simulation, intact: &BTreeSet<NodeId>) {
        let now = sim.now_ms();
        let max_seq = intact
            .iter()
            .map(|id| sim.ledger_seq_of(*id))
            .max()
            .unwrap_or(0);
        if max_seq > self.last_max_seq {
            self.last_max_seq = max_seq;
            self.last_progress_ms = now;
            self.stall_reported = false;
        }
        let eligible = !intact.is_empty() && !sim.partition_active();
        if !eligible {
            // The guarantee is conditional; the clock restarts when the
            // condition next holds.
            self.eligible_since = None;
            return;
        }
        let since = *self.eligible_since.get_or_insert(now);
        let quiet_since = self.last_progress_ms.max(since);
        if now.saturating_sub(quiet_since) > self.liveness_bound_ms && !self.stall_reported {
            self.stall_reported = true;
            self.violations.push(Violation::LivenessStall {
                intact: intact.clone(),
                stalled_since_ms: quiet_since,
                detected_at_ms: now,
            });
        }
    }

    /// Everything found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of `on_tick` calls made (sanity hook for tests).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority_system(n: u32) -> BTreeMap<NodeId, QuorumSet> {
        let ids: Vec<NodeId> = (0..n).map(NodeId).collect();
        let q = QuorumSet::majority(ids.clone());
        ids.into_iter().map(|id| (id, q.clone())).collect()
    }

    #[test]
    fn all_honest_nodes_are_intact() {
        let qsets = majority_system(4);
        let intact = intact_nodes(&qsets, &BTreeSet::new());
        assert_eq!(intact.len(), 4);
    }

    #[test]
    fn one_byzantine_of_four_leaves_the_rest_intact() {
        let qsets = majority_system(4);
        let ill: BTreeSet<NodeId> = [NodeId(3)].into();
        let intact = intact_nodes(&qsets, &ill);
        assert_eq!(
            intact,
            (0..3).map(NodeId).collect::<BTreeSet<_>>(),
            "deleting one of four from majority(4) leaves an intact quorum"
        );
    }

    #[test]
    fn frontier_report_attributes_to_the_marked_stage() {
        let mut m = InvariantMonitor::new(BTreeSet::new(), 0);
        m.mark_stage(1, "org-a", 10_000);
        m.mark_stage(2, "org-b", 20_000);
        assert_eq!(
            m.frontier_report(),
            FrontierReport {
                frontier: 2,
                triggering_stage: None,
                collapse: None,
            },
            "clean campaign survives every marked stage"
        );
        // Simulate stage 3 collapsing intactness.
        m.mark_stage(3, "org-c", 30_000);
        m.first_collapse_stage = Some(StageMark {
            stage: 3,
            label: "org-c".into(),
            at_ms: 30_500,
        });
        let r = m.frontier_report();
        assert_eq!(r.frontier, 2);
        assert_eq!(r.collapse, Some(CollapseKind::IntactCollapse));
        assert_eq!(r.triggering_stage.unwrap().label, "org-c");
    }

    #[test]
    fn byzantine_majority_leaves_nobody_intact() {
        let qsets = majority_system(4);
        let ill: BTreeSet<NodeId> = [NodeId(1), NodeId(2), NodeId(3)].into();
        let intact = intact_nodes(&qsets, &ill);
        assert!(
            intact.is_empty(),
            "one honest node of four cannot contain a majority quorum, \
             so quorum availability fails and nobody is intact"
        );
    }
}
