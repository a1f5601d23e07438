//! Randomized cascade storms: on any generated topology the checker
//! proves intersecting, no staged crash campaign — whatever the family,
//! order, depth, or healing schedule — may make the invariant monitor
//! report a safety violation. Crashes can only stall; divergence would
//! mean the quorum-intersection guarantee (paper §3.1, §6.2) is hollow.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stellar::chaos::cascade::{CascadeOrder, CascadePlan};
use stellar::chaos::{ChaosConfig, ChaosRun, Violation};
use stellar::quorum::{
    find_disjoint_quorums_with, generate, IntersectionResult, TopologyFamily, TopologySpec,
};
use stellar::sim::scenario::Scenario;
use stellar::sim::SimConfig;

#[test]
fn cascade_storms_never_breach_safety_on_intersecting_topologies() {
    let families = [
        TopologyFamily::Uniform,
        TopologyFamily::TierWeighted,
        TopologyFamily::ScaleFree,
    ];
    let mut rng = StdRng::seed_from_u64(0x57012);
    for trial in 0..25u64 {
        let family = families[rng.gen_range(0..families.len())];
        let n_orgs = rng.gen_range(4..9usize);
        let spec = TopologySpec::new(family, n_orgs, rng.gen_range(1..3usize), trial);
        let topo = generate(&spec);

        // Only checker-proven-intersecting configurations carry the
        // safety guarantee; the generators should never produce anything
        // else, and the storm is vacuous if they did.
        let (res, _) = find_disjoint_quorums_with(&topo.system);
        assert_eq!(
            res,
            IntersectionResult::Intersecting,
            "trial {trial}: generator produced a non-intersecting {family:?} topology"
        );

        let plan = CascadePlan {
            order: if rng.gen_bool(0.5) {
                CascadeOrder::Random
            } else {
                CascadeOrder::TopTierFirst
            },
            n_stages: rng.gen_range(1..=n_orgs),
            start_ms: 10_000,
            stage_interval_ms: rng.gen_range(3_000..8_000),
            heal_at_ms: if rng.gen_bool(0.4) {
                Some(rng.gen_range(60_000..80_000))
            } else {
                None
            },
            seed: 0xCA5C ^ trial,
        };
        let report = ChaosRun::new(ChaosConfig {
            sim: SimConfig {
                scenario: Scenario::Generated { spec },
                n_accounts: 30,
                tx_rate: 2.0,
                target_ledgers: 6,
                seed: 0xBAD5EED + trial,
                max_sim_time_ms: 100_000,
                ..SimConfig::default()
            },
            schedule: plan.schedule(&topo),
            // Deep cascades stall by design; only safety is on trial.
            liveness_bound_ms: 0,
            ..ChaosConfig::default()
        })
        .run();

        let safety: Vec<&Violation> = report
            .violations
            .iter()
            .filter(|v| !matches!(v, Violation::LivenessStall { .. }))
            .collect();
        assert!(
            safety.is_empty(),
            "trial {trial}: {family:?} {n_orgs} orgs, {} stages (heal: {:?}) \
             breached safety: {safety:?}",
            plan.n_stages,
            plan.heal_at_ms,
        );
    }
}
