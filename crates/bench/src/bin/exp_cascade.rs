//! E21 — internet-scale quorum resilience: checker scaling, the Fig. 6
//! tier sweep at scale, and cascading-failure survival frontiers.
//!
//! Four sections, all seeded and reproducible:
//!
//! 1. **Checker scaling** — `find_disjoint_quorums_with` runtime across
//!    generated FBAS families (uniform / tier-weighted / scale-free) as
//!    the org count grows to 500 (1500 validators). The 500-org
//!    tier-weighted point is acceptance-gated against `budget_ms`.
//! 2. **Fig. 6 tier sweep at scale** — the paper's §6.2 synthesized
//!    configurations checked at sizes far beyond the live network,
//!    recording when the symmetric fast path and SCC restriction engage.
//! 3. **Survival frontiers** — analytic cascade campaigns per family and
//!    failure order: how many staged org failures each topology absorbs
//!    before safety or (post-heal) liveness lapses, and which org
//!    failure is the fatal one.
//! 4. **Empirical cross-check** — a simulated below-frontier campaign
//!    must externalize with zero monitor violations, and a past-frontier
//!    campaign must reproduce the cascade with the monitor's frontier
//!    report naming the triggering org stage.
//!
//! A same-seed twin regeneration of every schedule, frontier, and
//! verdict must render byte-identically (the determinism gate).
//!
//! ```sh
//! cargo run --release -p stellar-bench --bin exp_cascade [-- --quick]
//! ```

use stellar_bench::{print_table, write_bench_json};
use stellar_chaos::cascade::{analyze_cascade, CascadeOrder, CascadePlan};
use stellar_chaos::runner::{ChaosConfig, ChaosRun};
use stellar_chaos::CollapseKind;
use stellar_quorum::intersection::IntersectionResult;
use stellar_quorum::{find_disjoint_quorums_with, generate, TopologyFamily, TopologySpec};
use stellar_sim::scenario::Scenario;
use stellar_sim::SimConfig;
use stellar_telemetry::Json;

/// Acceptance budget for the 500-org tier-weighted intersection check.
const BUDGET_MS: f64 = 60_000.0;

const FAMILIES: [TopologyFamily; 3] = [
    TopologyFamily::Uniform,
    TopologyFamily::TierWeighted,
    TopologyFamily::ScaleFree,
];

fn verdict_label(v: &IntersectionResult) -> &'static str {
    match v {
        IntersectionResult::Intersecting => "intersecting",
        IntersectionResult::Disjoint(_, _) => "disjoint",
        IntersectionResult::NoQuorum => "no-quorum",
    }
}

/// Section 1+2: checker runtime per family × size.
fn checker_scaling(quick: bool, points: &mut Vec<Json>) -> f64 {
    println!("=== E21a: intersection-checker scaling (generated FBAS families) ===\n");
    let sizes: &[usize] = if quick {
        &[20, 60]
    } else {
        &[20, 60, 120, 250, 500]
    };
    let mut rows = Vec::new();
    let mut gated_ms = 0.0;
    for family in FAMILIES {
        for &n in sizes {
            let spec = TopologySpec::new(family, n, 3, 0xE21);
            let topo = generate(&spec);
            let t0 = std::time::Instant::now();
            let (verdict, stats) = find_disjoint_quorums_with(&topo.system);
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            if family == TopologyFamily::TierWeighted && n == 500 {
                gated_ms = ms;
            }
            points.push(
                Json::obj()
                    .set("sweep", "checker_scaling")
                    .set("family", family.label())
                    .set("orgs", n)
                    .set("validators", topo.n_validators())
                    .set("verdict", verdict_label(&verdict))
                    .set("check_ms", ms)
                    .set("core_nodes", stats.core_nodes)
                    .set("scc_count", stats.scc_count)
                    .set("domain_nodes", stats.domain_nodes)
                    .set("branches", stats.branches)
                    .set("memo_hits", stats.memo_hits)
                    .set("symmetric", stats.symmetric),
            );
            rows.push(vec![
                family.label().to_string(),
                format!("{n}"),
                format!("{}", topo.n_validators()),
                verdict_label(&verdict).to_string(),
                format!("{ms:.2}"),
                format!("{}", stats.domain_nodes),
                format!("{}", stats.branches),
                format!("{}", stats.symmetric),
            ]);
        }
    }
    print_table(
        &[
            "family",
            "orgs",
            "validators",
            "verdict",
            "check(ms)",
            "domain",
            "branches",
            "symmetric",
        ],
        &rows,
    );
    println!(
        "\npaper (§6.2): 20–30 node closures check in seconds; the SCC + \
         symmetric-subtree restrictions keep 1500-validator families inside \
         the same budget."
    );
    gated_ms
}

/// Section 3: analytic survival-frontier curves per family and order.
fn frontier_curves(quick: bool, points: &mut Vec<Json>) -> Json {
    println!("\n=== E21b: survival frontiers (staged org-failure campaigns) ===\n");
    let n_orgs = if quick { 12 } else { 30 };
    let mut rows = Vec::new();
    // The canonical (timing-free) sub-document twin-run determinism is
    // gated on: every schedule, per-stage verdict, and frontier.
    let mut canonical = Vec::new();
    for family in FAMILIES {
        let topo = generate(&TopologySpec::new(family, n_orgs, 3, 0xE21));
        for order in [CascadeOrder::Random, CascadeOrder::TopTierFirst] {
            let order_label = match order {
                CascadeOrder::Random => "random",
                CascadeOrder::TopTierFirst => "top_tier_first",
            };
            let plan = CascadePlan {
                order,
                n_stages: n_orgs,
                start_ms: 10_000,
                stage_interval_ms: 5_000,
                heal_at_ms: None,
                seed: 0xE21,
            };
            let stages = plan.stages(&topo);
            let analysis = analyze_cascade(&topo, &stages);
            let fatal = analysis
                .first_fatal
                .as_ref()
                .map(|(s, o)| format!("#{s} {o}"))
                .unwrap_or_else(|| "-".to_string());
            let max_cascade = analysis
                .stages
                .iter()
                .map(|s| s.cascaded_orgs.len())
                .max()
                .unwrap_or(0);
            rows.push(vec![
                family.label().to_string(),
                order_label.to_string(),
                format!("{n_orgs}"),
                format!("{}", analysis.frontier),
                fatal,
                format!("{max_cascade}"),
            ]);
            points.push(
                Json::obj()
                    .set("sweep", "survival_frontier")
                    .set("family", family.label())
                    .set("order", order_label)
                    .set("orgs", n_orgs)
                    .set("analysis", analysis.to_json()),
            );
            canonical.push(
                Json::obj()
                    .set("family", family.label())
                    .set("order", order_label)
                    .set(
                        "schedule",
                        Json::Arr(
                            stages
                                .iter()
                                .map(|s| {
                                    Json::obj()
                                        .set("stage", s.stage)
                                        .set("org", s.org.as_str())
                                        .set("at_ms", s.at_ms)
                                        .set("validators", s.validators.len())
                                })
                                .collect(),
                        ),
                    )
                    .set("analysis", analysis.to_json()),
            );
        }
    }
    print_table(
        &[
            "family",
            "order",
            "orgs",
            "frontier",
            "first fatal",
            "max cascaded orgs",
        ],
        &rows,
    );
    println!(
        "\nthe frontier counts staged org failures absorbed while the \
         survivors stay safe and live (or healable); past it the report \
         names the fatal org."
    );
    Json::Arr(canonical)
}

/// Section 4: a small simulated campaign cross-checks the analytic
/// frontier — clean below it, a named collapse past it.
fn empirical_crosscheck(quick: bool, points: &mut Vec<Json>) {
    println!("\n=== E21c: empirical cross-check (simulated cascade) ===\n");
    let spec = TopologySpec::new(TopologyFamily::Uniform, 8, 2, 0xE21);
    let topo = generate(&spec);
    let full_plan = CascadePlan {
        order: CascadeOrder::Random,
        n_stages: 8,
        start_ms: 12_000,
        stage_interval_ms: 6_000,
        heal_at_ms: None,
        seed: 0xE21,
    };
    let analysis = analyze_cascade(&topo, &full_plan.stages(&topo));
    // Liveness (not healing) bounds the *in-sim* frontier: the monitor
    // watches the running network, which only heals if the schedule
    // carries reconfigure steps.
    let live_frontier = analysis
        .stages
        .iter()
        .take_while(|s| s.live && s.safe)
        .count();
    let (fatal_stage, fatal_org) = analysis
        .first_fatal
        .clone()
        .expect("full campaign is fatal");
    println!(
        "analytic: live+safe through stage {live_frontier}, fatal at stage {fatal_stage} ({fatal_org})"
    );

    let run = |n_stages: usize, label: &str| {
        let plan = CascadePlan {
            n_stages,
            ..full_plan
        };
        let report = ChaosRun::new(ChaosConfig {
            sim: SimConfig {
                scenario: Scenario::Generated { spec },
                n_accounts: 50,
                tx_rate: 2.0,
                target_ledgers: if quick { 10 } else { 16 },
                seed: 0xE21,
                max_sim_time_ms: 180_000,
                ..SimConfig::default()
            },
            schedule: plan.schedule(&topo),
            ..ChaosConfig::default()
        })
        .run();
        println!(
            "{label}: {} stages, violations={}, frontier={}, trigger={:?}, expected-health alerts={}",
            n_stages,
            report.violations.len(),
            report.frontier.frontier,
            report
                .frontier
                .triggering_stage
                .as_ref()
                .map(|s| format!("#{} {}", s.stage, s.label)),
            report.expected_health.len()
        );
        report
    };

    let below = run(live_frontier.min(2), "below-frontier");
    assert!(
        below.is_clean(),
        "below-frontier campaign must externalize cleanly: {:?}",
        below.violations
    );
    assert!(
        below.frontier.triggering_stage.is_none(),
        "below-frontier campaign must not collapse: {:?}",
        below.frontier
    );

    let past = run(8, "past-frontier");
    let trigger = past
        .frontier
        .triggering_stage
        .clone()
        .expect("past-frontier campaign must name a triggering stage");
    assert_eq!(
        past.frontier.collapse,
        Some(CollapseKind::IntactCollapse),
        "a crash-only cascade collapses intactness, it does not forge divergence"
    );
    println!(
        "past-frontier trigger: stage #{} ({}) — analytic fatal stage #{fatal_stage} ({fatal_org})",
        trigger.stage, trigger.label
    );

    points.push(
        Json::obj()
            .set("sweep", "empirical")
            .set("orgs", 8u64)
            .set("analytic_live_frontier", live_frontier)
            .set("analytic_fatal_stage", fatal_stage)
            .set("analytic_fatal_org", fatal_org.as_str())
            .set("below_clean", below.is_clean())
            .set("below_expected_health", below.expected_health.len())
            .set("past_trigger_stage", trigger.stage)
            .set("past_trigger_org", trigger.label.as_str())
            .set("past_collapse", "intact_collapse"),
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut points: Vec<Json> = Vec::new();

    let gated_ms = checker_scaling(quick, &mut points);
    let canonical = frontier_curves(quick, &mut points);
    // Twin regeneration: every schedule and verdict again, from the same
    // seeds. Timings are excluded by construction, so byte-inequality
    // means real nondeterminism.
    let twin = frontier_curves_silent();
    let deterministic = canonical.render() == twin.render();
    assert!(
        deterministic,
        "twin-run regeneration of cascade schedules and frontiers diverged"
    );
    println!("\ndeterminism gate: twin regeneration is byte-identical.");
    empirical_crosscheck(quick, &mut points);

    if !quick {
        assert!(
            gated_ms > 0.0 && gated_ms <= BUDGET_MS,
            "500-org tier-weighted check took {gated_ms:.0} ms (budget {BUDGET_MS:.0} ms)"
        );
    }

    let doc = Json::obj()
        .set("schema", "stellar-bench/v2")
        .set("name", "cascade")
        .set("quick", quick)
        .set("budget_ms", BUDGET_MS)
        .set(
            "gated_500_org_check_ms",
            if quick {
                Json::Null
            } else {
                Json::Num(gated_ms)
            },
        )
        .set("deterministic", deterministic)
        .set("points", points);
    write_bench_json("cascade", &doc).expect("write BENCH_cascade.json");

    fn frontier_curves_silent() -> Json {
        // Regenerate the canonical document without reprinting tables.
        let n_orgs_quick = std::env::args().any(|a| a == "--quick");
        let n_orgs = if n_orgs_quick { 12 } else { 30 };
        let mut canonical = Vec::new();
        for family in FAMILIES {
            let topo = generate(&TopologySpec::new(family, n_orgs, 3, 0xE21));
            for order in [CascadeOrder::Random, CascadeOrder::TopTierFirst] {
                let order_label = match order {
                    CascadeOrder::Random => "random",
                    CascadeOrder::TopTierFirst => "top_tier_first",
                };
                let plan = CascadePlan {
                    order,
                    n_stages: n_orgs,
                    start_ms: 10_000,
                    stage_interval_ms: 5_000,
                    heal_at_ms: None,
                    seed: 0xE21,
                };
                let stages = plan.stages(&topo);
                let analysis = analyze_cascade(&topo, &stages);
                canonical.push(
                    Json::obj()
                        .set("family", family.label())
                        .set("order", order_label)
                        .set(
                            "schedule",
                            Json::Arr(
                                stages
                                    .iter()
                                    .map(|s| {
                                        Json::obj()
                                            .set("stage", s.stage)
                                            .set("org", s.org.as_str())
                                            .set("at_ms", s.at_ms)
                                            .set("validators", s.validators.len())
                                    })
                                    .collect(),
                            ),
                        )
                        .set("analysis", analysis.to_json()),
                );
            }
        }
        Json::Arr(canonical)
    }
}
