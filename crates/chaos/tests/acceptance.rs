//! Acceptance tests for the chaos subsystem: the paper's conditional
//! guarantees, exercised end-to-end under scripted faults and live
//! Byzantine adversaries.

use std::collections::BTreeSet;
use stellar_chaos::adversary::Strategy;
use stellar_chaos::monitor::Violation;
use stellar_chaos::runner::{ChaosConfig, ChaosRun};
use stellar_chaos::schedule::FaultSchedule;
use stellar_overlay::LinkFault;
use stellar_scp::NodeId;
use stellar_sim::scenario::Scenario;
use stellar_sim::SimConfig;

fn byz_mesh(n: u32, target_ledgers: u64, seed: u64) -> SimConfig {
    SimConfig {
        scenario: Scenario::ByzantineMesh { n_validators: n },
        n_accounts: 50,
        tx_rate: 0.0,
        target_ledgers,
        seed,
        max_sim_time_ms: 300_000,
        ..SimConfig::default()
    }
}

/// The tentpole acceptance criterion: equivocating adversaries below the
/// quorum-intersection threshold (`f = 2` for 7 nodes with `n − f`
/// slices) must not split the intact nodes — every intact node
/// externalizes the identical value at every slot, and the ledger header
/// hashes chain identically.
#[test]
fn equivocators_below_threshold_cannot_split_intact_nodes() {
    let mut run = ChaosRun::new(ChaosConfig {
        sim: byz_mesh(7, 3, 0xC0FFEE),
        adversaries: vec![
            (NodeId(5), Strategy::EquivocateNomination),
            (NodeId(6), Strategy::SplitConfirm),
        ],
        ..ChaosConfig::default()
    });
    let target = 1 + run.sim().config().target_ledgers;
    while run.step() {
        let honest_done = run
            .sim()
            .validator_ids()
            .into_iter()
            .all(|id| run.sim().node(id).is_puppet() || run.sim().ledger_seq_of(id) >= target);
        if honest_done {
            break;
        }
    }
    assert!(
        run.violations().is_empty(),
        "monitor must stay clean: {:?}",
        run.violations()
    );
    let honest: Vec<NodeId> = (0..5).map(NodeId).collect();
    for id in &honest {
        assert!(
            run.sim().ledger_seq_of(*id) >= target,
            "honest node {id} stalled under equivocation"
        );
    }
    // Explicit cross-check, independent of the monitor: identical values
    // per slot and identical header hashes per sequence, across every
    // honest node.
    let reference = run.sim().externalizations(honest[0]);
    assert!(!reference.is_empty());
    let ref_headers = run.sim().header_hashes(honest[0]);
    for id in &honest[1..] {
        let ext = run.sim().externalizations(*id);
        for (slot, value) in &ext {
            if let Some((_, v0)) = reference.iter().find(|(s, _)| s == slot) {
                assert_eq!(v0, value, "slot {slot} split between honest nodes");
            }
        }
        let headers = run.sim().header_hashes(*id);
        for (seq, hash) in &headers {
            if let Some((_, h0)) = ref_headers.iter().find(|(s, _)| s == seq) {
                assert_eq!(h0, hash, "ledger {seq} hash diverged");
            }
        }
    }
}

/// Determinism: the same seed and the same fault script must reproduce
/// the identical event trace, entry for entry — including adversary
/// injections and probabilistic link faults.
#[test]
fn same_seed_reproduces_identical_event_trace() {
    let make = || {
        ChaosRun::new(ChaosConfig {
            sim: byz_mesh(5, 2, 77),
            adversaries: vec![(NodeId(4), Strategy::EquivocateNomination)],
            schedule: FaultSchedule::builder()
                .link_fault_at(
                    2_000,
                    NodeId(0),
                    NodeId(1),
                    LinkFault::none().with_drop(0.3),
                )
                .crash_at(9_000, NodeId(3))
                .revive_at(15_000, NodeId(3))
                .build(),
            record_trace: true,
            ..ChaosConfig::default()
        })
        .run()
    };
    let a = make();
    let b = make();
    assert!(!a.trace.is_empty(), "trace must be recorded");
    assert_eq!(a.trace.len(), b.trace.len(), "trace lengths differ");
    assert_eq!(a.trace, b.trace, "same seed must replay identically");
    assert_eq!(a.injections, b.injections);
    assert_eq!(a.final_seqs, b.final_seqs);
}

/// A silent-but-subscribed adversary plus a scripted crash still leaves
/// an intact quorum (5 honest of 7, `f = 2`), which must keep closing
/// ledgers and stay clean.
#[test]
fn silence_and_crash_below_threshold_stay_clean_and_live() {
    let report = ChaosRun::new(ChaosConfig {
        sim: byz_mesh(7, 3, 31),
        adversaries: vec![(NodeId(6), Strategy::Silent)],
        schedule: FaultSchedule::builder()
            .crash_at(7_000, NodeId(5))
            .revive_at(20_000, NodeId(5))
            .build(),
        ..ChaosConfig::default()
    })
    .run();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(
        report.intact.len() >= 5,
        "after the revive the intact set must cover every honest node: {:?}",
        report.intact
    );
    for (id, seq) in &report.final_seqs {
        if *id != NodeId(6) {
            assert!(*seq >= 4, "node {id} stuck at ledger {seq}");
        }
    }
}

/// Stale replay floods must bounce off de-duplication and old-slot
/// handling without perturbing consensus.
#[test]
fn stale_replay_is_harmless() {
    let report = ChaosRun::new(ChaosConfig {
        sim: byz_mesh(5, 3, 12),
        adversaries: vec![(NodeId(4), Strategy::ReplayStale)],
        ..ChaosConfig::default()
    })
    .run();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.injections > 0, "replayer must actually replay");
}

/// The liveness monitor works: severing every link (without a declared
/// partition, so the intact quorum still *looks* connected) must be
/// reported as a stall once the bound passes.
#[test]
fn total_message_loss_is_reported_as_a_liveness_stall() {
    let report = ChaosRun::new(ChaosConfig {
        sim: SimConfig {
            scenario: Scenario::ControlledMesh { n_validators: 4 },
            n_accounts: 50,
            tx_rate: 2.0,
            target_ledgers: 8,
            seed: 3,
            max_sim_time_ms: 90_000,
            ..SimConfig::default()
        },
        schedule: FaultSchedule::builder()
            .default_link_fault_at(6_000, LinkFault::none().with_drop(1.0))
            .build(),
        liveness_bound_ms: 20_000,
        ..ChaosConfig::default()
    })
    .run();
    let stalls: Vec<&Violation> = report
        .violations
        .iter()
        .filter(|v| matches!(v, Violation::LivenessStall { .. }))
        .collect();
    assert!(
        !stalls.is_empty(),
        "dropping all traffic must trip the liveness monitor; got {:?}",
        report.violations
    );
    // And no bogus safety findings: nodes stalled, they did not diverge.
    assert_eq!(stalls.len(), report.violations.len());
    // A violating run must ship the observer's flight-recorder dump: the
    // per-slot timeline of the stall (timers arming/firing with nothing
    // arriving) is the debugging artifact the chaos harness exists for.
    assert!(
        !report.flight_recording.is_empty(),
        "violations must capture a flight recording"
    );
    assert!(
        report.flight_recording.contains("timeline"),
        "recording must render per-slot timelines:\n{}",
        report.flight_recording
    );
    assert!(
        report.flight_recording.contains("timer armed"),
        "the stalled slot's timeline must show timer activity:\n{}",
        report.flight_recording
    );
    // The stall also ships causal traces of the in-flight transactions:
    // each one shows submission (and, before the faults landed, flood
    // hops) with no apply — the per-transaction view of the stall.
    assert!(
        report.causal_traces.contains("trace "),
        "a stall must attach in-flight transaction traces:\n{}",
        report.causal_traces
    );
    assert!(
        report.causal_traces.contains("submit"),
        "in-flight traces start at submission:\n{}",
        report.causal_traces
    );
    // And the health watchdog flags the stuck nodes independently of the
    // invariant monitor.
    assert!(
        !report.health.is_empty(),
        "nodes stuck for the whole back half of the run must raise \
         stuck-slot alerts"
    );
}

/// Clean runs stay lean: no violations, no flight recording attached.
#[test]
fn clean_run_attaches_no_flight_recording() {
    let report = ChaosRun::new(ChaosConfig {
        sim: byz_mesh(4, 2, 21),
        ..ChaosConfig::default()
    })
    .run();
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.flight_recording.is_empty());
    assert!(report.causal_traces.is_empty());
    assert!(
        report.health.is_empty(),
        "a healthy run raises no watchdog alerts: {:?}",
        report.health
    );
}

/// A partition into two non-quorum halves declared to the monitor makes
/// liveness ineligible — no stall may be reported while split, and after
/// the heal the network must resume and finish clean.
#[test]
fn declared_partition_suspends_liveness_judgment() {
    let ids: Vec<NodeId> = (0..6).map(NodeId).collect();
    let report = ChaosRun::new(ChaosConfig {
        sim: byz_mesh(6, 4, 9),
        schedule: FaultSchedule::builder()
            .partition_at(
                8_000,
                vec![ids[..3].to_vec(), ids[3..].to_vec()],
                Some(40_000),
            )
            .build(),
        liveness_bound_ms: 25_000,
        ..ChaosConfig::default()
    })
    .run();
    assert!(report.is_clean(), "{:?}", report.violations);
    let seqs: BTreeSet<u64> = report.final_seqs.iter().map(|(_, s)| *s).collect();
    assert!(
        seqs.iter().all(|s| *s >= 5),
        "all nodes must finish after the heal: {:?}",
        report.final_seqs
    );
}
