//! Crash-restart recovery scenarios: amnesia equivocation and storms.
//!
//! Every validator persists its SCP state to disk *before* emitting any
//! envelope derived from it, so a rebooted validator can never
//! contradict a vote the network already holds (§3, §5.4). There is no
//! run without that discipline; what it cannot survive is a disk that
//! comes back empty. This module packages the experiments that make the
//! discipline falsifiable:
//!
//! - [`amnesia_restart_scenario`] — the targeted safety demonstration.
//!   One node externalizes a slot first; the other three (a quorum by
//!   themselves) crash while still mid-ballot, *after* their
//!   confirm-commit votes for value `x` are out. If their disks are
//!   wiped at the crash they reboot without those votes, re-nominate
//!   with a later close time, and commit `y ≠ x` — the simulation's
//!   watchdog flags the divergence at the close. If their disks
//!   survive, the restored ballot state pins them to `x` and the run
//!   stays clean. Up to the crash both arms are the same run.
//! - [`restart_storm`] / [`persistence_twin_run`] — the statistical and
//!   differential checks: randomized reboot storms must stay
//!   violation-free, and a run disturbed by mid-run reboots must
//!   externalize byte-identical ledger headers to an undisturbed twin
//!   from the same seed.

use crate::runner::{ChaosConfig, ChaosReport, ChaosRun};
use crate::schedule::FaultSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stellar_crypto::Hash256;
use stellar_persist::DurableStore;
use stellar_scp::{NodeId, SlotIndex};
use stellar_sim::scenario::Scenario;
use stellar_sim::{SimConfig, Simulation, Violation};

/// What [`amnesia_restart_scenario`] observed.
#[derive(Clone, Debug)]
pub struct AmnesiaOutcome {
    /// The watchdog's violations (empty = the restarted quorum never
    /// contradicted its pre-reboot votes).
    pub violations: Vec<Violation>,
    /// The contested slot.
    pub slot: SlotIndex,
    /// The node that externalized the slot before the reboot.
    pub first_externalizer: NodeId,
    /// Whether the rebooted trio re-decided the slot within the window.
    pub trio_decided: bool,
}

/// Drives the targeted amnesia experiment (see the module docs) and
/// returns the watchdog's findings. `keep_disks` selects whether the
/// crashed nodes' disks survive (`true`) or are emptied at the crash
/// (`false`); the same seed with the two settings is the paper's safety
/// argument in executable form.
pub fn amnesia_restart_scenario(keep_disks: bool, seed: u64) -> AmnesiaOutcome {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 10,
        target_ledgers: 6,
        seed,
        max_sim_time_ms: 240_000,
        ..SimConfig::default()
    });
    let ids = sim.validator_ids();
    // Step until exactly one node has externalized a slot the other
    // three have not: the three laggards are mid-ballot, their
    // confirm-commit votes for the winning value already on the wire
    // (that is what let the first node externalize).
    let mut lone: Option<(NodeId, SlotIndex)> = None;
    while lone.is_none() && sim.step() {
        for id in &ids {
            if let Some((slot, _)) = sim.externalizations(*id).last() {
                let all_lag = ids
                    .iter()
                    .filter(|o| *o != id)
                    .all(|o| !sim.externalizations(*o).iter().any(|(s, _)| s == slot));
                if all_lag {
                    lone = Some((*id, *slot));
                    break;
                }
            }
        }
    }
    let (first, slot) = lone.expect("some node must externalize a slot first");
    let others: Vec<NodeId> = ids.iter().copied().filter(|o| *o != first).collect();
    // Isolate the early externalizer (it keeps value x for the slot and
    // cannot help the others re-decide), then power-cycle the trio with
    // a few seconds of downtime so their re-proposed close times land in
    // a later second — an amnesiac re-decision cannot accidentally equal
    // the original value.
    sim.set_partition(&[vec![first], others.clone()], None);
    for id in &others {
        sim.crash(*id);
        if !keep_disks {
            sim.node_mut(*id).on_disks(|d| *d = DurableStore::new());
        }
    }
    let resume_at = sim.now_ms() + 3_000;
    while sim.now_ms() < resume_at && sim.step() {}
    for id in &others {
        sim.revive(*id);
    }
    // The trio is a 3-of-4 quorum on its own: let it re-decide the slot
    // and check every decision against the first externalizer's.
    let deadline = sim.now_ms() + 60_000;
    let mut decided = false;
    while sim.now_ms() < deadline && sim.step() {
        decided = others
            .iter()
            .all(|o| sim.externalizations(*o).iter().any(|(s, _)| *s == slot));
        if decided || !sim.watchdog().violations().is_empty() {
            break;
        }
    }
    AmnesiaOutcome {
        violations: sim.watchdog().violations().to_vec(),
        slot,
        first_externalizer: first,
        trio_decided: decided,
    }
}

/// Builds a randomized reboot schedule: `n_restarts` atomic restarts of
/// pseudo-random validators at pseudo-random times in `window_ms`,
/// deterministic in `seed`.
fn restart_storm_schedule(
    seed: u64,
    n_validators: u32,
    n_restarts: usize,
    window_ms: (u64, u64),
) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5708);
    let mut b = FaultSchedule::builder();
    for _ in 0..n_restarts {
        let at = rng.gen_range(window_ms.0..window_ms.1);
        let node = NodeId(rng.gen_range(0..n_validators));
        b = b.restart_at(at, node);
    }
    b.build()
}

/// Runs one randomized restart storm on a 4-validator mesh with the
/// ledger on `backend` and returns the chaos report. A clean report
/// means no restarted node equivocated (safety) and everyone still
/// reached the ledger target (no stall). On
/// [`stellar_store::BackendKind::Disk`] every reboot also crashes the
/// node's data disk, so recovery exercises the durable-store fast path
/// (or its genesis-replay fallback) under the storm.
pub fn restart_storm(
    seed: u64,
    n_restarts: usize,
    target_ledgers: u64,
    backend: stellar_store::BackendKind,
) -> ChaosReport {
    let sim = SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 10,
        target_ledgers,
        seed,
        max_sim_time_ms: 600_000,
        store_backend: backend,
        ..SimConfig::default()
    };
    let window = (6_000, 6_000 + sim.ledger_interval_ms * target_ledgers);
    let schedule = restart_storm_schedule(seed, 4, n_restarts, window);
    ChaosRun::new(ChaosConfig {
        sim,
        adversaries: Vec::new(),
        schedule,
        liveness_bound_ms: 60_000,
        record_trace: false,
    })
    .run()
}

/// Runs a randomized device-fault storm on the disk backend: before
/// each reboot the victim's disks (write-ahead log *and* ledger data
/// disk) suffer a burst of failed fsyncs, and half the reboots tear the
/// oldest unsynced record on the way down. Torn data disks force the
/// genesis-replay fallback; intact ones take the durable fast path —
/// either way the run must stay violation-free and reach the target.
pub fn disk_fault_storm(seed: u64, n_restarts: usize, target_ledgers: u64) -> ChaosReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
    let window = (6_000u64, 6_000 + 5_000 * target_ledgers);
    let mut b = FaultSchedule::builder();
    for i in 0..n_restarts {
        let at = rng.gen_range(window.0..window.1);
        let node = NodeId(rng.gen_range(0..4));
        b = b.fail_fsyncs_at(at.saturating_sub(500), node, rng.gen_range(1..4));
        if i % 2 == 0 {
            b = b.torn_write_at(at, node);
        }
        b = b.restart_at(at, node);
    }
    let sim = SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 10,
        target_ledgers,
        seed,
        max_sim_time_ms: 600_000,
        store_backend: stellar_store::BackendKind::Disk,
        ..SimConfig::default()
    };
    ChaosRun::new(ChaosConfig {
        sim,
        adversaries: Vec::new(),
        schedule: b.build(),
        liveness_bound_ms: 60_000,
        record_trace: false,
    })
    .run()
}

/// The observer header chains of a persistence twin run: one seed, one
/// undisturbed run, and one run suffering mid-run reboots.
#[derive(Clone, Debug)]
pub struct TwinOutcome {
    /// `(seq, header hash)` chain of the undisturbed run.
    pub undisturbed: Vec<(u64, Hash256)>,
    /// `(seq, header hash)` chain of the rebooted run.
    pub disturbed: Vec<(u64, Hash256)>,
    /// The highest sequence both runs were asked to reach.
    pub target_seq: u64,
}

/// Runs the persistence twin experiment: the same `SimConfig` (zero tx
/// load) twice, once undisturbed and once with the
/// given `(at_ms, node)` reboots applied mid-run, and returns both
/// observer header chains for comparison.
pub fn persistence_twin_run(seed: u64, restarts: &[(u64, NodeId)]) -> TwinOutcome {
    let cfg = SimConfig {
        scenario: Scenario::ControlledMesh { n_validators: 4 },
        n_accounts: 10,
        tx_rate: 0.0,
        target_ledgers: 8,
        seed,
        max_sim_time_ms: 300_000,
        ..SimConfig::default()
    };
    let target_seq = 1 + cfg.target_ledgers;
    let mut undisturbed = Simulation::new(cfg.clone());
    undisturbed.run();
    let mut disturbed = Simulation::new(cfg);
    let mut pending: Vec<(u64, NodeId)> = restarts.to_vec();
    pending.sort_by_key(|(at, _)| *at);
    let mut next = 0;
    loop {
        while next < pending.len() && pending[next].0 <= disturbed.now_ms() {
            let (_, node) = pending[next];
            disturbed.restart(node);
            next += 1;
        }
        let done = next == pending.len() && disturbed.reached(target_seq);
        if done || !disturbed.step() {
            break;
        }
    }
    let observer = undisturbed.observer_id();
    TwinOutcome {
        undisturbed: undisturbed.header_hashes(observer),
        disturbed: disturbed.header_hashes(observer),
        target_seq,
    }
}
