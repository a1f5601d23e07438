//! Cascading-failure campaigns and the survival frontier.
//!
//! A cascade campaign stages organization failures against a generated
//! FBAS topology (see `stellar_quorum::topology`) and asks the two
//! questions the paper's §4 guarantees reduce to under attrition:
//!
//! 1. **How deep can the failure run before the guarantees lapse?** —
//!    the *survival frontier*: the largest prefix of the staged failure
//!    sequence under which the surviving system still has a live quorum
//!    (or can self-heal into one) and still enjoys quorum intersection
//!    among the survivors.
//! 2. **Who gets dragged down?** — orgs that never failed but whose
//!    slices depended on the failed ones lose their quorums anyway (the
//!    Kim/Kwon/Kim cascade); the fixpoint here names them per stage.
//!
//! The module has two halves that cross-check each other:
//!
//! - [`CascadePlan`] compiles a campaign into a [`FaultSchedule`] —
//!   stage marks, per-validator crashes, and optionally a
//!   halt-and-reconfigure heal — to run against a real simulation,
//!   where the run watchdog observes the frontier empirically.
//! - [`analyze_cascade`] computes the same frontier analytically from
//!   the quorum structure alone (no simulation), which scales to the
//!   500-org topologies of experiment E21 where simulating every
//!   validator is infeasible.

use crate::schedule::{FaultSchedule, FaultScheduleBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use stellar_quorum::criticality::delete_nodes;
use stellar_quorum::intersection::{FbaSystem, IntersectionResult};
use stellar_quorum::tiers::{synthesize_all, OrgConfig};
use stellar_quorum::{find_disjoint_quorums, GeneratedTopology};
use stellar_scp::NodeId;
use stellar_telemetry::Json;

/// In what order the campaign fails organizations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CascadeOrder {
    /// A seeded uniform shuffle of the org list — the "random attrition"
    /// campaign.
    Random,
    /// Highest trust quality first (ties broken by org order) — the
    /// adversarial campaign that aims straight at the tier-one clique.
    TopTierFirst,
}

/// A staged org-failure campaign against one generated topology.
#[derive(Clone, Copy, Debug)]
pub struct CascadePlan {
    /// Failure order.
    pub order: CascadeOrder,
    /// How many orgs fail, one per stage (clamped to the org count).
    pub n_stages: usize,
    /// Simulated time of the first stage (ms).
    pub start_ms: u64,
    /// Gap between successive stages (ms).
    pub stage_interval_ms: u64,
    /// When set, survivors halt-and-reconfigure at this time: every
    /// still-standing validator receives a freshly synthesized quorum
    /// set over the surviving orgs only.
    pub heal_at_ms: Option<u64>,
    /// Seed for the failure-order shuffle (only `Random` consumes it).
    pub seed: u64,
}

/// One stage of a compiled campaign: which org dies, and when.
#[derive(Clone, Debug)]
pub struct CascadeStage {
    /// 1-based stage number.
    pub stage: usize,
    /// The failing org's name.
    pub org: String,
    /// Simulated time the stage fires (ms).
    pub at_ms: u64,
    /// The org's validators (all crash at `at_ms`).
    pub validators: Vec<NodeId>,
}

impl CascadePlan {
    /// Orders the topology's orgs per [`CascadeOrder`] and takes the
    /// first `n_stages` as the campaign's staged failures.
    pub fn stages(&self, topo: &GeneratedTopology) -> Vec<CascadeStage> {
        let mut order: Vec<usize> = (0..topo.orgs.len()).collect();
        match self.order {
            CascadeOrder::Random => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0xca5c_ade0);
                order.shuffle(&mut rng);
            }
            CascadeOrder::TopTierFirst => {
                // Stable: equal-quality orgs keep generator order.
                order.sort_by_key(|&i| std::cmp::Reverse(topo.orgs[i].quality));
            }
        }
        order
            .into_iter()
            .take(self.n_stages.min(topo.orgs.len()))
            .enumerate()
            .map(|(k, i)| CascadeStage {
                stage: k + 1,
                org: topo.orgs[i].name.clone(),
                at_ms: self.start_ms + k as u64 * self.stage_interval_ms,
                validators: topo.orgs[i].validators.clone(),
            })
            .collect()
    }

    /// Compiles the campaign into a runnable fault schedule: per stage a
    /// [`crate::schedule::FaultAction::StageMark`] followed by a crash of
    /// every validator of the failing org, plus — when `heal_at_ms` is
    /// set — a halt-and-reconfigure step that hands every surviving
    /// validator a quorum set synthesized over the surviving orgs only.
    pub fn schedule(&self, topo: &GeneratedTopology) -> FaultSchedule {
        let stages = self.stages(topo);
        let mut b = FaultSchedule::builder();
        for s in &stages {
            b = b.stage_mark_at(s.at_ms, s.stage, &s.org);
            for v in &s.validators {
                b = b.crash_at(s.at_ms, *v);
            }
        }
        if let Some(heal_ms) = self.heal_at_ms {
            b = schedule_heal(b, topo, &stages, heal_ms);
        }
        b.build()
    }
}

/// Appends the halt-and-reconfigure step: synthesizes a fresh Fig. 6
/// configuration over the orgs that survive every stage and schedules a
/// [`crate::schedule::FaultAction::Reconfigure`] for each surviving
/// validator at `heal_ms`.
fn schedule_heal(
    mut b: FaultScheduleBuilder,
    topo: &GeneratedTopology,
    stages: &[CascadeStage],
    heal_ms: u64,
) -> FaultScheduleBuilder {
    let failed: BTreeSet<&str> = stages.iter().map(|s| s.org.as_str()).collect();
    let survivors: Vec<OrgConfig> = topo
        .orgs
        .iter()
        .filter(|o| !failed.contains(o.name.as_str()))
        .cloned()
        .collect();
    if survivors.is_empty() {
        return b; // Nobody left to heal.
    }
    for (node, qset) in synthesize_all(&survivors) {
        b = b.reconfigure_at(heal_ms, node, qset);
    }
    b
}

/// The analytic verdict for one cumulative failure prefix.
#[derive(Clone, Debug)]
pub struct StageAnalysis {
    /// 1-based stage number.
    pub stage: usize,
    /// The org that failed at this stage.
    pub org: String,
    /// Validators failed so far (cumulative).
    pub failed_validators: usize,
    /// Whether the survivors still contain a quorum.
    pub live: bool,
    /// Whether the survivors (slices pruned of the failed nodes) still
    /// enjoy quorum intersection.
    pub safe: bool,
    /// Orgs that did *not* fail but fell out of the maximal surviving
    /// quorum anyway — dragged down by slice dependencies.
    pub cascaded_orgs: Vec<String>,
    /// Whether halt-and-reconfigure over the surviving orgs would
    /// restore a live, intersecting configuration.
    pub heal_live: bool,
}

/// The analytic survival-frontier verdict for a full campaign.
#[derive(Clone, Debug)]
pub struct CascadeAnalysis {
    /// Per-prefix verdicts, one per stage.
    pub stages: Vec<StageAnalysis>,
    /// Largest `k` such that after every prefix of `k` stages the system
    /// stays safe and either live or healable.
    pub frontier: usize,
    /// The first stage past the frontier and its org, when the campaign
    /// runs deep enough to find one.
    pub first_fatal: Option<(usize, String)>,
}

impl CascadeAnalysis {
    /// Renders the analysis for the bench exporter.
    pub fn to_json(&self) -> Json {
        let stages: Vec<Json> = self
            .stages
            .iter()
            .map(|s| {
                Json::obj()
                    .set("stage", s.stage)
                    .set("org", s.org.as_str())
                    .set("failed_validators", s.failed_validators)
                    .set("live", s.live)
                    .set("safe", s.safe)
                    .set(
                        "cascaded_orgs",
                        Json::Arr(
                            s.cascaded_orgs
                                .iter()
                                .map(|o| Json::from(o.as_str()))
                                .collect(),
                        ),
                    )
                    .set("heal_live", s.heal_live)
            })
            .collect();
        let mut doc = Json::obj()
            .set("stages", Json::Arr(stages))
            .set("frontier", self.frontier);
        doc = match &self.first_fatal {
            Some((stage, org)) => doc.set(
                "first_fatal",
                Json::obj().set("stage", *stage).set("org", org.as_str()),
            ),
            None => doc.set("first_fatal", Json::Null),
        };
        doc
    }
}

/// Computes the survival frontier analytically: for every cumulative
/// prefix of `stages`, checks liveness (survivors embed a quorum),
/// safety (quorum intersection among survivors with failed nodes pruned
/// from every slice), cascaded orgs (non-failed orgs with no validator
/// in the maximal surviving quorum), and healability (a resynthesized
/// configuration over surviving orgs is live and intersecting).
///
/// Everything is derived from the quorum structure, so this scales to
/// topologies far beyond what the simulator can run.
pub fn analyze_cascade(topo: &GeneratedTopology, stages: &[CascadeStage]) -> CascadeAnalysis {
    let all = topo.system.ids();
    let mut failed_orgs: BTreeSet<&str> = BTreeSet::new();
    let mut failed: BTreeSet<NodeId> = BTreeSet::new();
    let mut out = Vec::with_capacity(stages.len());
    let mut frontier = 0usize;
    let mut first_fatal = None;
    for s in stages {
        failed_orgs.insert(s.org.as_str());
        failed.extend(s.validators.iter().copied());
        let alive: BTreeSet<NodeId> = all.difference(&failed).copied().collect();
        let surviving_quorum = topo.system.max_quorum_in(&alive);
        let live = !surviving_quorum.is_empty();
        // Safety among survivors: prune the failed nodes out of every
        // surviving slice (the DSet construction) and check that the
        // what's left still enjoys quorum intersection. An empty
        // survivor set is vacuously safe.
        let pruned = FbaSystem::new(
            topo.system
                .nodes
                .iter()
                .filter(|(id, _)| !failed.contains(id))
                .map(|(id, q)| (*id, delete_nodes(q, &failed))),
        );
        let verdict = find_disjoint_quorums(&pruned);
        let safe = !matches!(verdict, IntersectionResult::Disjoint(_, _));
        // Orgs nobody crashed but that dropped out of the surviving
        // quorum anyway: the cascade.
        let mut cascaded: BTreeSet<&str> = BTreeSet::new();
        for org in &topo.orgs {
            if failed_orgs.contains(org.name.as_str()) {
                continue;
            }
            if !org.validators.iter().any(|v| surviving_quorum.contains(v)) {
                cascaded.insert(org.name.as_str());
            }
        }
        let heal_live = heal_is_live(topo, &failed_orgs);
        let ok = safe && (live || heal_live);
        if ok && first_fatal.is_none() {
            frontier = s.stage;
        } else if first_fatal.is_none() {
            first_fatal = Some((s.stage, s.org.clone()));
        }
        out.push(StageAnalysis {
            stage: s.stage,
            org: s.org.clone(),
            failed_validators: failed.len(),
            live,
            safe,
            cascaded_orgs: cascaded.into_iter().map(str::to_string).collect(),
            heal_live,
        });
    }
    CascadeAnalysis {
        stages: out,
        frontier,
        first_fatal,
    }
}

/// Whether a halt-and-reconfigure over the surviving orgs yields a
/// configuration that is both live and intersecting.
fn heal_is_live(topo: &GeneratedTopology, failed_orgs: &BTreeSet<&str>) -> bool {
    let survivors: Vec<OrgConfig> = topo
        .orgs
        .iter()
        .filter(|o| !failed_orgs.contains(o.name.as_str()))
        .cloned()
        .collect();
    if survivors.is_empty() {
        return false;
    }
    let healed = FbaSystem::new(synthesize_all(&survivors));
    if healed.max_quorum_in(&healed.ids()).is_empty() {
        return false;
    }
    matches!(
        find_disjoint_quorums(&healed),
        IntersectionResult::Intersecting
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultAction;
    use stellar_quorum::{generate, TopologyFamily, TopologySpec};

    fn plan(order: CascadeOrder, n_stages: usize) -> CascadePlan {
        CascadePlan {
            order,
            n_stages,
            start_ms: 10_000,
            stage_interval_ms: 5_000,
            heal_at_ms: None,
            seed: 7,
        }
    }

    #[test]
    fn stages_are_deterministic_and_ordered() {
        let topo = generate(&TopologySpec::new(TopologyFamily::TierWeighted, 12, 3, 3));
        let a = plan(CascadeOrder::Random, 5).stages(&topo);
        let b = plan(CascadeOrder::Random, 5).stages(&topo);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.org, y.org);
            assert_eq!(x.at_ms, y.at_ms);
        }
        assert_eq!(a[0].at_ms, 10_000);
        assert_eq!(a[4].at_ms, 30_000);
    }

    #[test]
    fn top_tier_first_fails_high_quality_orgs_first() {
        let topo = generate(&TopologySpec::new(TopologyFamily::TierWeighted, 20, 3, 3));
        let stages = plan(CascadeOrder::TopTierFirst, 4).stages(&topo);
        let quality_of = |name: &str| {
            topo.orgs
                .iter()
                .find(|o| o.name == name)
                .expect("org exists")
                .quality
        };
        let top_quality = topo.orgs.iter().map(|o| o.quality).max().unwrap();
        for s in &stages {
            assert_eq!(quality_of(&s.org), top_quality, "stage {}", s.stage);
        }
    }

    #[test]
    fn schedule_interleaves_marks_and_crashes() {
        let topo = generate(&TopologySpec::new(TopologyFamily::Uniform, 5, 2, 1));
        let mut p = plan(CascadeOrder::Random, 2);
        p.heal_at_ms = Some(50_000);
        let sched = p.schedule(&topo);
        // 2 marks + 2*2 crashes + reconfigures for 3 surviving orgs * 2.
        assert_eq!(sched.len(), 2 + 4 + 6);
        let entries = sched.entries();
        assert!(matches!(
            entries[0].action,
            FaultAction::StageMark { stage: 1, .. }
        ));
        let n_crashes = entries
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Crash(_)))
            .count();
        assert_eq!(n_crashes, 4);
        let reconf: Vec<_> = entries
            .iter()
            .filter(|e| matches!(e.action, FaultAction::Reconfigure { .. }))
            .collect();
        assert_eq!(reconf.len(), 6);
        assert!(reconf.iter().all(|e| e.at_ms == 50_000));
    }

    #[test]
    fn analysis_finds_a_frontier_and_a_fatal_stage() {
        let topo = generate(&TopologySpec::new(TopologyFamily::Uniform, 7, 3, 2));
        let stages = plan(CascadeOrder::Random, 7).stages(&topo);
        let a = analyze_cascade(&topo, &stages);
        // Fig. 6 uniform orgs tolerate a minority of org failures; the
        // full campaign kills everyone, so a fatal stage must exist.
        assert!(a.frontier >= 1, "one org down must survive: {a:?}");
        assert!(a.frontier < 7, "seven of seven down cannot survive");
        let (fatal_stage, _) = a.first_fatal.clone().expect("fatal stage");
        assert_eq!(fatal_stage, a.frontier + 1);
        // Verdicts are monotone in this uniform symmetric family: every
        // stage at or below the frontier was ok.
        for s in &a.stages[..a.frontier] {
            assert!(
                s.safe && (s.live || s.heal_live),
                "stage {}: {s:?}",
                s.stage
            );
        }
    }

    #[test]
    fn healing_extends_the_frontier() {
        // 8 uniform orgs: liveness needs 6 of 8 (67% of orgs), so 3 org
        // failures stall the old configuration — but the survivors'
        // pruned slices still intersect (that lapses only at 4), and the
        // 5 surviving orgs resynthesized among themselves are live, so
        // the healable frontier reaches deeper than the live one.
        let topo = generate(&TopologySpec::new(TopologyFamily::Uniform, 8, 3, 2));
        let stages = plan(CascadeOrder::Random, 4).stages(&topo);
        let a = analyze_cascade(&topo, &stages);
        let stalled_but_healable = a
            .stages
            .iter()
            .find(|s| !s.live && s.heal_live && s.safe)
            .expect("some prefix stalls the old config yet heals clean");
        assert!(stalled_but_healable.stage <= a.frontier);
    }

    #[test]
    fn cascaded_orgs_name_dragged_down_survivors() {
        let topo = generate(&TopologySpec::new(TopologyFamily::TierWeighted, 15, 3, 11));
        let stages = plan(CascadeOrder::TopTierFirst, 15).stages(&topo);
        let a = analyze_cascade(&topo, &stages);
        // Killing the whole top tier must eventually drag non-failed
        // orgs out of the surviving quorum (everyone trusts the top).
        let dead_stage = a
            .stages
            .iter()
            .find(|s| !s.live)
            .expect("campaign kills liveness");
        assert!(
            !dead_stage.cascaded_orgs.is_empty()
                || dead_stage.failed_validators == topo.n_validators(),
            "liveness loss with orgs standing must name cascaded orgs: {dead_stage:?}"
        );
        for o in &dead_stage.cascaded_orgs {
            assert!(
                !a.stages[..dead_stage.stage].iter().any(|s| &s.org == o),
                "cascaded org {o} was never itself failed"
            );
        }
    }

    #[test]
    fn analysis_json_round_trips() {
        let topo = generate(&TopologySpec::new(TopologyFamily::Uniform, 5, 2, 1));
        let stages = plan(CascadeOrder::Random, 3).stages(&topo);
        let a = analyze_cascade(&topo, &stages);
        let doc = a.to_json();
        let parsed = Json::parse(&doc.render()).expect("valid json");
        assert_eq!(
            parsed.get("frontier").and_then(Json::as_f64),
            Some(a.frontier as f64)
        );
        assert_eq!(
            parsed.get("stages").and_then(Json::as_arr).map(|s| s.len()),
            Some(3)
        );
    }
}
