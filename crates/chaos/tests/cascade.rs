//! Cascade-campaign integration suite: staged org failures against a
//! generated topology, run through the full simulator, cross-checked
//! against the analytic survival frontier.
//!
//! - below the frontier, campaigns externalize with zero monitor
//!   violations and no collapse attribution;
//! - past it, the monitor's frontier report reproduces the cascade and
//!   names the triggering org stage;
//! - halt-and-reconfigure turns a stalled configuration back into one
//!   that closes ledgers;
//! - and everything — schedules, frontiers, reports — is byte-identical
//!   across same-seed twin runs.

use std::collections::BTreeSet;
use stellar_chaos::cascade::{analyze_cascade, CascadeOrder, CascadePlan};
use stellar_chaos::runner::{ChaosConfig, ChaosReport, ChaosRun};
use stellar_chaos::{CollapseKind, Violation};
use stellar_quorum::{generate, TopologyFamily, TopologySpec};
use stellar_scp::NodeId;
use stellar_sim::scenario::Scenario;
use stellar_sim::SimConfig;

/// 8 uniform orgs × 2 validators: small enough to simulate, big enough
/// that liveness lapses (at 3 org failures) before safety does (at 4).
fn spec() -> TopologySpec {
    TopologySpec::new(TopologyFamily::Uniform, 8, 2, 2)
}

fn plan(n_stages: usize, heal_at_ms: Option<u64>) -> CascadePlan {
    CascadePlan {
        order: CascadeOrder::Random,
        n_stages,
        start_ms: 12_000,
        stage_interval_ms: 6_000,
        heal_at_ms,
        seed: 7,
    }
}

fn run_campaign(p: &CascadePlan, target_ledgers: u64, liveness_bound_ms: u64) -> ChaosReport {
    let topo = generate(&spec());
    ChaosRun::new(ChaosConfig {
        sim: SimConfig {
            scenario: Scenario::Generated { spec: spec() },
            n_accounts: 40,
            tx_rate: 2.0,
            target_ledgers,
            seed: 0xCA5C,
            max_sim_time_ms: 120_000,
            ..SimConfig::default()
        },
        schedule: p.schedule(&topo),
        liveness_bound_ms,
        ..ChaosConfig::default()
    })
    .run()
}

fn is_safety(v: &Violation) -> bool {
    !matches!(v, Violation::LivenessStall { .. })
}

#[test]
fn below_frontier_campaigns_externalize_cleanly() {
    let topo = generate(&spec());
    let full = plan(8, None);
    let analysis = analyze_cascade(&topo, &full.stages(&topo));
    let live_frontier = analysis
        .stages
        .iter()
        .take_while(|s| s.live && s.safe)
        .count();
    assert!(live_frontier >= 1, "one org down must leave a live quorum");

    let p = plan(live_frontier, None);
    let report = run_campaign(&p, 10, 60_000);
    assert!(
        report.is_clean(),
        "below-frontier campaign must be violation-free: {:?}",
        report.violations
    );
    assert!(
        report.frontier.triggering_stage.is_none(),
        "no collapse below the frontier: {:?}",
        report.frontier
    );
    assert_eq!(report.frontier.frontier, live_frontier);
    assert_eq!(report.stage_marks.len(), live_frontier);
    // The watchdog saw the scheduled crashes, but as *expected* downtime
    // — none of the scripted victims' stalls surface as real alerts.
    let victims: BTreeSet<NodeId> = full.stages(&topo)[..live_frontier]
        .iter()
        .flat_map(|s| s.validators.iter().copied())
        .collect();
    for alert in &report.health {
        let node = match alert {
            stellar_sim::HealthAlert::StuckSlot { node, .. } => *node,
            stellar_sim::HealthAlert::SlowClose { node, .. } => *node,
        };
        assert!(
            !victims.contains(&node),
            "scheduled victim {node:?} raised an unexpected real alert: {alert:?}"
        );
    }
}

#[test]
fn past_frontier_report_names_the_triggering_stage() {
    let report = run_campaign(&plan(8, None), 16, 60_000);
    assert_eq!(report.stage_marks.len(), 8);
    let trigger = report
        .frontier
        .triggering_stage
        .as_ref()
        .expect("an 8-of-8 org campaign must collapse");
    assert!(trigger.stage >= 2, "a single org failure cannot collapse");
    assert!(!trigger.label.is_empty(), "trigger must name the org");
    assert_eq!(report.frontier.frontier, trigger.stage - 1);
    // A crash-only cascade collapses intactness; it cannot forge
    // divergence, so the run stays free of safety violations.
    assert_eq!(
        report.frontier.collapse,
        Some(CollapseKind::IntactCollapse),
        "{:?}",
        report.frontier
    );
    assert!(
        !report.violations.iter().any(is_safety),
        "crash-only cascade forged divergence: {:?}",
        report.violations
    );
    // The trigger label is a real org of the generated topology.
    let topo = generate(&spec());
    assert!(
        topo.orgs.iter().any(|o| o.name == trigger.label),
        "unknown org {:?}",
        trigger.label
    );
}

#[test]
fn halt_and_reconfigure_resumes_closing() {
    let topo = generate(&spec());
    let full = plan(8, None);
    let analysis = analyze_cascade(&topo, &full.stages(&topo));
    // The first prefix that stalls the old configuration but heals into
    // a live, intersecting one (8 uniform orgs: 3 failures).
    let stalled = analysis
        .stages
        .iter()
        .find(|s| !s.live && s.safe && s.heal_live)
        .expect("some prefix stalls yet heals");
    let k = stalled.stage;
    let last_stage_ms = 12_000 + (k as u64 - 1) * 6_000;

    // Without healing, the survivors stop closing: the run exhausts its
    // sim-time budget with every surviving node stuck.
    let unhealed = run_campaign(&plan(k, None), 30, 0);
    let crashed: BTreeSet<NodeId> = full.stages(&topo)[..k]
        .iter()
        .flat_map(|s| s.validators.iter().copied())
        .collect();
    let survivor_seq = |r: &ChaosReport| {
        r.final_seqs
            .iter()
            .filter(|(id, _)| !crashed.contains(id))
            .map(|(_, s)| *s)
            .max()
            .expect("survivors exist")
    };
    let stalled_seq = survivor_seq(&unhealed);

    // With a halt-and-reconfigure step shortly after the last failure,
    // the survivors adopt a configuration synthesized over the living
    // orgs and resume closing ledgers.
    let healed = run_campaign(&plan(k, Some(last_stage_ms + 12_000)), 30, 0);
    let healed_seq = survivor_seq(&healed);
    assert!(
        healed_seq > stalled_seq,
        "healed survivors must out-close the stalled twin ({healed_seq} vs {stalled_seq})"
    );
    assert!(
        !healed.violations.iter().any(is_safety),
        "healing must not forge divergence: {:?}",
        healed.violations
    );
}

#[test]
fn twin_runs_are_byte_identical() {
    let p = plan(2, None);
    let a = run_campaign(&p, 8, 60_000);
    let b = run_campaign(&p, 8, 60_000);
    assert_eq!(a.final_seqs, b.final_seqs);
    assert_eq!(format!("{:?}", a.violations), format!("{:?}", b.violations));
    assert_eq!(
        format!("{:?}", a.stage_marks),
        format!("{:?}", b.stage_marks)
    );
    assert_eq!(format!("{:?}", a.frontier), format!("{:?}", b.frontier));
    assert_eq!(
        format!("{:?}", a.expected_health),
        format!("{:?}", b.expected_health)
    );

    // The analytic layer twins too, down to rendered JSON.
    let topo = generate(&spec());
    let full = plan(8, None);
    let x = analyze_cascade(&topo, &full.stages(&topo));
    let y = analyze_cascade(&topo, &full.stages(&topo));
    assert_eq!(x.to_json().render_pretty(), y.to_json().render_pretty());
}
