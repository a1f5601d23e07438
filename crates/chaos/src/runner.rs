//! The chaos runner: schedule + adversaries + monitor around one sim.
//!
//! [`ChaosRun`] wraps a [`Simulation`] and, around every event step,
//! interleaves the three chaos pillars deterministically:
//!
//! 1. fault-schedule actions due at or before the next event apply
//!    first (crashes, partitions, link-fault changes);
//! 2. the event fires;
//! 3. each adversary (in node-id order) drains its puppet's inbox and
//!    its injections enter the delivery pipeline;
//! 4. the invariant monitor checks safety/liveness at a bounded cadence.
//!
//! Everything draws from seeded RNG streams, so one `(config, seed)`
//! pair always produces the same event trace — enable tracing and two
//! runs are comparable entry-for-entry, which is how violation reports
//! become replayable.

use crate::adversary::{Adversary, Injection, Strategy};
use crate::monitor::{FrontierReport, InvariantMonitor, StageMark, Violation};
use crate::schedule::{FaultAction, FaultSchedule};
use std::collections::{BTreeMap, BTreeSet};
use stellar_scp::NodeId;
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
    /// ledger before the monitor reports a stall; 0 disables.
    pub liveness_bound_ms: u64,
    /// Minimum simulated time between monitor sweeps.
    pub monitor_interval_ms: u64,
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
            monitor_interval_ms: 250,
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

impl ChaosReport {
    /// True when every invariant held for the whole run.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An in-flight chaos experiment.
pub struct ChaosRun {
    sim: Simulation,
    schedule: FaultSchedule,
    adversaries: Vec<Adversary>,
    monitor: InvariantMonitor,
    last_monitor_ms: u64,
    monitor_interval_ms: u64,
    target_seq: u64,
}

impl ChaosRun {
    /// Builds the network, demotes the adversaries' nodes to puppets,
    /// and arms the monitor.
    pub fn new(cfg: ChaosConfig) -> ChaosRun {
        let target_seq = 1 + cfg.sim.target_ledgers;
        let seed = cfg.sim.seed;
        let mut sim = Simulation::new(cfg.sim);
        if cfg.record_trace {
            sim.enable_trace();
        }
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
            monitor: InvariantMonitor::new(byzantine, cfg.liveness_bound_ms),
            last_monitor_ms: 0,
            monitor_interval_ms: cfg.monitor_interval_ms.max(1),
            target_seq,
        }
    }

    /// The wrapped simulation (inspection between steps).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The monitor's findings so far.
    pub fn violations(&self) -> &[Violation] {
        self.monitor.violations()
    }

    /// Renders the observer's flight-recorder timeline for every slot
    /// still in its retention window, newest-slot-last.
    pub fn flight_recording(&self) -> String {
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
    pub fn causal_traces_for_violations(&self, violations: &[Violation]) -> String {
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
                FaultAction::Heal => self.sim.clear_partition(),
                FaultAction::LinkFault { from, to, fault } => {
                    self.sim.link_faults_mut().set_link(from, to, fault)
                }
                FaultAction::DefaultLinkFault(fault) => {
                    self.sim.link_faults_mut().set_default(fault)
                }
                FaultAction::ClearLinkFaults => self.sim.link_faults_mut().clear(),
                FaultAction::Reconfigure { node, qset } => self.sim.reconfigure_quorum(node, qset),
                FaultAction::StageMark { stage, label } => {
                    self.monitor.mark_stage(stage, &label, self.sim.now_ms())
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

    /// One chaos step: faults, one simulation event, adversary turns,
    /// monitor sweep. Returns `false` when the simulation is exhausted.
    pub fn step(&mut self) -> bool {
        self.apply_due_faults();
        if !self.sim.step() {
            return false;
        }
        self.adversary_turns();
        let now = self.sim.now_ms();
        if now >= self.last_monitor_ms + self.monitor_interval_ms {
            self.last_monitor_ms = now;
            self.monitor.on_tick(&self.sim);
        }
        true
    }

    /// Runs until the fault script has fully played out **and** every
    /// non-puppet, non-crashed node reaches the target ledger count (or
    /// the simulation runs dry), then returns the report. The monitor
    /// always gets a final sweep.
    pub fn run(mut self) -> ChaosReport {
        while self.step() {
            if self.schedule.remaining() == 0 && self.sim.reached(self.target_seq) {
                break;
            }
        }
        self.monitor.on_tick(&self.sim);
        let final_seqs = self
            .sim
            .validator_ids()
            .into_iter()
            .map(|id| (id, self.sim.ledger_seq_of(id)))
            .collect();
        let intact = self.monitor.intact(&self.sim);
        let injections = self.adversaries.iter().map(Adversary::injected).sum();
        let violations = self.monitor.violations().to_vec();
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
            stage_marks: self.monitor.stage_marks().to_vec(),
            frontier: self.monitor.frontier_report(),
            expected_health: self.sim.watchdog().expected_alerts().to_vec(),
        }
    }
}
