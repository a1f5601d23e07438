//! The chaos runner: schedule + adversaries around one sim.
//!
//! [`ChaosRun`] wraps a [`Simulation`] and, around every event step,
//! interleaves the chaos pillars deterministically:
//!
//! 1. fault-schedule actions due at or before the next event apply
//!    first (crashes, partitions, link-fault changes);
//! 2. the event fires;
//! 3. each adversary (in node-id order) drains its puppet's inbox and
//!    its injections enter the delivery pipeline.
//!
//! The simulation's own watchdog checks safety at every close and
//! intact-quorum liveness (with the configured bound) in its observation
//! round; the runner reads its violations and, for cascade campaigns,
//! attributes the first break to a stage.
//!
//! Everything draws from seeded RNG streams, so one `(config, seed)`
//! pair always produces the same event trace — enable tracing and two
//! runs are comparable entry-for-entry, which is how violation reports
//! become replayable.

use crate::adversary::{Adversary, Injection, Strategy};
use crate::schedule::{FaultAction, FaultSchedule};
use std::collections::{BTreeMap, BTreeSet};
use stellar_scp::NodeId;
use stellar_sim::Violation;
use stellar_sim::{events::TraceEntry, node::validator_keys, HealthAlert, SimConfig, Simulation};

/// Configuration of a chaos experiment.
pub struct ChaosConfig {
    /// The underlying network/run parameters.
    pub sim: SimConfig,
    /// Puppets to demote and the attack each runs.
    pub adversaries: Vec<(NodeId, Strategy)>,
    /// Scripted faults.
    pub schedule: FaultSchedule,
    /// Longest a connected intact quorum may go without closing a
    /// ledger before the watchdog reports a stall; 0 disables.
    pub liveness_bound_ms: u64,
    /// Record the full event trace (costs memory; on for replays).
    pub record_trace: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let sim = SimConfig::default();
        ChaosConfig {
            // 10 ledger intervals of silence from a connected intact
            // quorum is a stall by any reading of §7's pacing.
            liveness_bound_ms: 10 * sim.ledger_interval_ms,
            record_trace: true,
            adversaries: Vec::new(),
            schedule: FaultSchedule::empty(),
            sim,
        }
    }
}

/// What a chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Invariant violations, in detection order (empty = clean run).
    pub violations: Vec<Violation>,
    /// The full event trace (empty unless `record_trace` was set).
    pub trace: Vec<TraceEntry>,
    /// Final ledger sequence per node.
    pub final_seqs: Vec<(NodeId, u64)>,
    /// The intact set at the end of the run.
    pub intact: BTreeSet<NodeId>,
    /// Total envelopes injected by adversaries.
    pub injections: u64,
    /// Simulated time at exit (ms).
    pub sim_time_ms: u64,
    /// The observer's flight-recorder timelines for every slot still in
    /// the retention window, captured only when the run produced
    /// violations (empty for clean runs). This is the per-slot story of
    /// the failure: which timers armed and fired, which envelopes
    /// arrived, how far balloting got on the stalled slot.
    pub flight_recording: String,
    /// Health-watchdog alerts raised during the run — stuck slots, slow
    /// closes — recorded whether or not any invariant broke. A chaos run
    /// that stays *safe* but loses health shows up here, not in
    /// `violations`.
    pub health: Vec<HealthAlert>,
    /// Merged cross-node causal traces of every sampled transaction that
    /// touched a violated slot (nominated into, externalized by, or
    /// applied in it), captured only when the run produced violations.
    /// Where the flight recording tells the per-slot consensus story,
    /// this tells the per-transaction story: each hop of the flood, each
    /// demand round, and which nodes carried the transaction how far.
    pub causal_traces: String,
    /// Cascade-stage marks the schedule scripted, in time order (empty
    /// for non-cascade runs).
    pub stage_marks: Vec<StageMark>,
    /// The survival-frontier attribution: the deepest stage the run
    /// survived and, past it, which org failure triggered the collapse.
    pub frontier: FrontierReport,
    /// Health alerts that fell inside a scheduled downtime window — the
    /// watchdog noticed, but the schedule predicted it. Kept apart from
    /// `health` so a cascade campaign's own crashes don't read as
    /// unexplained stalls.
    pub expected_health: Vec<HealthAlert>,
}

/// A cascade-campaign stage the schedule marked.
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

/// The survival frontier as observed in the run: how many staged
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

/// The survival frontier of a campaign that marked `marks`, given when
/// the first violation and the first empty intact set were seen. Each
/// belongs to the last stage marked at or before it (the first stage if
/// it came earlier); the one in the earlier stage triggers, a violation
/// on a tie. A run without marks has a frontier of zero and no trigger.
fn frontier(
    marks: &[StageMark],
    (violation_ms, empty_ms): (Option<u64>, Option<u64>),
) -> FrontierReport {
    let stage_at = |t: u64| marks.iter().rev().find(|m| m.at_ms <= t).or(marks.first());
    let breaks = [
        (violation_ms, CollapseKind::Violation),
        (empty_ms, CollapseKind::IntactCollapse),
    ];
    let trigger = breaks
        .into_iter()
        .filter_map(|(t, kind)| Some((stage_at(t?)?, kind)))
        .min_by_key(|(mark, _)| mark.stage);
    FrontierReport {
        frontier: trigger.map_or(marks.last().map_or(0, |m| m.stage), |(m, _)| {
            m.stage.saturating_sub(1)
        }),
        triggering_stage: trigger.map(|(m, _)| m.clone()),
        collapse: trigger.map(|(_, kind)| kind),
    }
}

/// An in-flight chaos experiment.
pub struct ChaosRun {
    sim: Simulation,
    schedule: FaultSchedule,
    adversaries: Vec<Adversary>,
    stage_marks: Vec<StageMark>,
    target_seq: u64,
}

impl ChaosRun {
    /// Builds the network, demotes the adversaries' nodes to puppets,
    /// and bounds the watchdog's liveness rule.
    pub fn new(cfg: ChaosConfig) -> ChaosRun {
        let target_seq = 1 + cfg.sim.target_ledgers;
        let seed = cfg.sim.seed;
        let mut sim = Simulation::new(cfg.sim);
        if cfg.record_trace {
            sim.enable_trace();
        }
        sim.bound_liveness(cfg.liveness_bound_ms);
        let byzantine: BTreeSet<NodeId> = cfg.adversaries.iter().map(|(id, _)| *id).collect();
        let honest: Vec<NodeId> = sim
            .validator_ids()
            .into_iter()
            .filter(|id| !byzantine.contains(id))
            .collect();
        let mut adversaries = Vec::new();
        for (id, strategy) in cfg.adversaries {
            sim.node_mut(id).make_puppet();
            let qset = sim.validator(id).scp.quorum_set().clone();
            adversaries.push(Adversary::new(
                id,
                validator_keys(id),
                qset,
                strategy,
                honest.clone(),
                seed,
            ));
        }
        // Deterministic turn order regardless of construction order.
        adversaries.sort_by_key(Adversary::id);
        // Pre-register every scripted crash as an expected-downtime
        // window so the health watchdog annotates (rather than alerts
        // on) the stalls the schedule itself causes. A crash's window
        // runs until the node's next scripted revive/restart, or
        // open-ended when the script never brings it back.
        let mut open: BTreeMap<NodeId, u64> = BTreeMap::new();
        for e in cfg.schedule.entries() {
            match e.action {
                FaultAction::Crash(id) => {
                    open.entry(id).or_insert(e.at_ms);
                }
                FaultAction::Revive(id) | FaultAction::Restart(id) => {
                    if let Some(from) = open.remove(&id) {
                        sim.expect_downtime(id, from, e.at_ms);
                    }
                }
                _ => {}
            }
        }
        for (id, from) in open {
            sim.expect_downtime(id, from, u64::MAX);
        }
        ChaosRun {
            sim,
            schedule: cfg.schedule,
            adversaries,
            stage_marks: Vec::new(),
            target_seq,
        }
    }

    /// The wrapped simulation (inspection between steps).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The watchdog's violations so far.
    pub fn violations(&self) -> &[Violation] {
        self.sim.watchdog().violations()
    }

    /// Renders the observer's flight-recorder timeline for every slot
    /// still in its retention window, newest-slot-last.
    fn flight_recording(&self) -> String {
        let rec = &self
            .sim
            .validator(self.sim.observer_id())
            .herder
            .telemetry
            .recorder;
        let slots: std::collections::BTreeSet<u64> = rec.events().map(|e| e.slot).collect();
        let mut out = String::new();
        for slot in slots {
            out.push_str(&rec.timeline(slot));
            out.push('\n');
        }
        out
    }

    /// Renders the causal traces of every transaction whose lifecycle
    /// touched a slot named by a violation. A liveness stall names no
    /// slot, so it attaches the traces of every transaction still in
    /// flight instead — the pipeline state of exactly the load the
    /// stalled slot was supposed to carry.
    fn causal_traces_for_violations(&self, violations: &[Violation]) -> String {
        let mut slots: BTreeSet<u64> = BTreeSet::new();
        let mut pending = false;
        for v in violations {
            match v {
                Violation::ValueDivergence { slot, .. } => {
                    slots.insert(*slot);
                }
                Violation::HeaderDivergence { seq, .. } => {
                    slots.insert(*seq);
                }
                Violation::LivenessStall { .. } => pending = true,
            }
        }
        let mut out = String::new();
        for slot in slots {
            out.push_str(&self.sim.causal_traces_for_slot(slot));
        }
        if pending {
            out.push_str(&self.sim.causal_traces_pending());
        }
        out
    }

    /// Applies every scheduled fault due at or before the next event.
    fn apply_due_faults(&mut self) {
        let horizon = self
            .sim
            .peek_time()
            .unwrap_or(self.sim.now_ms())
            .max(self.sim.now_ms());
        while let Some(f) = self.schedule.pop_due(horizon) {
            match f.action {
                FaultAction::Crash(id) => self.sim.crash(id),
                FaultAction::Revive(id) => self.sim.revive(id),
                FaultAction::Restart(id) => self.sim.restart(id),
                FaultAction::FailFsync { node, count } => self
                    .sim
                    .node_mut(node)
                    .on_disks(|d| d.fail_next_fsyncs(count)),
                FaultAction::TornWrite(id) => {
                    self.sim.node_mut(id).on_disks(|d| d.tear_next_crash())
                }
                FaultAction::Partition { groups, heal_at_ms } => {
                    self.sim.set_partition(&groups, heal_at_ms)
                }
                FaultAction::LinkFault { from, to, fault } => {
                    self.sim.link_faults_mut().set_link(from, to, fault)
                }
                FaultAction::DefaultLinkFault(fault) => {
                    self.sim.link_faults_mut().set_default(fault)
                }
                FaultAction::Reconfigure { node, qset } => self.sim.reconfigure_quorum(node, qset),
                FaultAction::StageMark { stage, label } => {
                    let at_ms = self.sim.now_ms();
                    self.stage_marks.push(StageMark {
                        stage,
                        label,
                        at_ms,
                    });
                    // From the first mark on, the watchdog times the
                    // first empty intact set to the event.
                    self.sim.intact();
                }
            }
        }
    }

    /// Gives every adversary a turn over its freshly drained inbox.
    fn adversary_turns(&mut self) {
        for i in 0..self.adversaries.len() {
            let id = self.adversaries[i].id();
            let inbox = self.sim.node_mut(id).drain_inbox();
            let injections = self.adversaries[i].turn(&inbox);
            for inj in injections {
                match inj {
                    Injection::Direct { to, msg } => self.sim.inject_direct(id, to, msg),
                    Injection::Broadcast { msg } => self.sim.inject_broadcast(id, msg),
                }
            }
        }
    }

    /// One chaos step: faults, one simulation event, adversary turns.
    /// Returns `false` when the simulation is exhausted.
    pub fn step(&mut self) -> bool {
        self.apply_due_faults();
        if !self.sim.step() {
            return false;
        }
        self.adversary_turns();
        true
    }

    /// Runs until the fault script has fully played out **and** every
    /// non-puppet, non-crashed node reaches the target ledger count (or
    /// the simulation runs dry), then returns the report.
    pub fn run(mut self) -> ChaosReport {
        while self.step() {
            if self.schedule.remaining() == 0 && self.sim.reached(self.target_seq) {
                break;
            }
        }
        let final_seqs = self
            .sim
            .validator_ids()
            .into_iter()
            .map(|id| (id, self.sim.ledger_seq_of(id)))
            .collect();
        let intact = self.sim.intact();
        let injections = self.adversaries.iter().map(Adversary::injected).sum();
        let violations = self.sim.watchdog().violations().to_vec();
        let frontier = frontier(&self.stage_marks, self.sim.watchdog().first_breaks());
        let (flight_recording, causal_traces) = if violations.is_empty() {
            (String::new(), String::new())
        } else {
            (
                self.flight_recording(),
                self.causal_traces_for_violations(&violations),
            )
        };
        ChaosReport {
            violations,
            trace: self.sim.trace().to_vec(),
            final_seqs,
            intact,
            injections,
            sim_time_ms: self.sim.now_ms(),
            flight_recording,
            health: self.sim.watchdog().alerts().to_vec(),
            causal_traces,
            stage_marks: self.stage_marks,
            frontier,
            expected_health: self.sim.watchdog().expected_alerts().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_report_attributes_to_the_marked_stage() {
        let mark = |stage, label: &str, at_ms| StageMark {
            stage,
            label: label.into(),
            at_ms,
        };
        let mut marks = vec![mark(1, "org-a", 10_000), mark(2, "org-b", 20_000)];
        assert_eq!(
            frontier(&marks, (None, None)),
            FrontierReport {
                frontier: 2,
                triggering_stage: None,
                collapse: None,
            },
            "clean campaign survives every marked stage"
        );
        // Simulate stage 3 collapsing intactness.
        marks.push(mark(3, "org-c", 30_000));
        let r = frontier(&marks, (None, Some(30_500)));
        assert_eq!(r.frontier, 2);
        assert_eq!(r.collapse, Some(CollapseKind::IntactCollapse));
        assert_eq!(r.triggering_stage.unwrap().label, "org-c");
    }
}
