//! Deterministic, seeded FBAS topology generation at internet scale.
//!
//! The production network the paper measures has tens of organizations;
//! analyzing the safety story at hundreds requires synthetic federations.
//! Following the randomized FBAS families of Gaul/Khoffi/Liesen/Stüber
//! (PAPERS.md), this module generates three families, all layered on the
//! [`crate::tiers`] organization model:
//!
//! * **Uniform** — the Fig. 6 synthesized configuration at scale: every
//!   validator shares one mechanically synthesized quorum set over all
//!   orgs. Symmetric, so the intersection checker decides it in closed
//!   form regardless of size.
//! * **TierWeighted** — a small top tier of mutually trusting orgs, a
//!   middle tier trusting the whole top tier plus sampled mid-tier peers,
//!   and a broad low tier trusting the top tier plus sampled mid-tier
//!   orgs. Heterogeneous per-org quorum sets; the quorum-bearing SCC is
//!   the top tier, which is what keeps 500-org instances checkable.
//! * **ScaleFree** — preferential attachment (Barabási–Albert style): a
//!   seed clique of orgs trusts each other, every later org trusts a set
//!   of earlier orgs sampled proportionally to how trusted they already
//!   are. Reproduces the centralization collapse Kim/Kwon/Kim observe.
//!
//! Generation is fully deterministic in the spec (family, sizes, seed):
//! identical specs yield byte-identical systems, which the cascade bench
//! twin-run gates rely on.

use crate::criticality::OrgMap;
use crate::intersection::FbaSystem;
use crate::tiers::{synthesize_all, ConfigWarning, OrgConfig, Quality};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stellar_scp::{NodeId, QuorumSet};

/// Which randomized FBAS family to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyFamily {
    /// Fig. 6 synthesized configuration at scale (symmetric).
    Uniform,
    /// Small trusted top tier, sampled mid/low-tier trust (heterogeneous).
    TierWeighted,
    /// Preferential-attachment trust graph (heterogeneous, centralized).
    ScaleFree,
}

impl TopologyFamily {
    /// Stable lowercase label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyFamily::Uniform => "uniform",
            TopologyFamily::TierWeighted => "tier_weighted",
            TopologyFamily::ScaleFree => "scale_free",
        }
    }
}

/// A complete description of one generated federation.
#[derive(Clone, Copy, Debug)]
pub struct TopologySpec {
    /// Which family to generate.
    pub family: TopologyFamily,
    /// Number of organizations (≥ 3).
    pub n_orgs: usize,
    /// Validators per organization (≥ 1).
    pub validators_per_org: usize,
    /// Seed for all sampling decisions.
    pub seed: u64,
}

impl TopologySpec {
    /// Convenience constructor.
    pub fn new(
        family: TopologyFamily,
        n_orgs: usize,
        validators_per_org: usize,
        seed: u64,
    ) -> TopologySpec {
        TopologySpec {
            family,
            n_orgs,
            validators_per_org,
            seed,
        }
    }
}

/// The output of [`generate`]: orgs, per-node quorum sets, and the org
/// membership map the criticality/cascade analyses consume.
#[derive(Clone, Debug)]
pub struct GeneratedTopology {
    /// The spec this was generated from.
    pub spec: TopologySpec,
    /// Organizations in generation order (`org-0000`, `org-0001`, …).
    pub orgs: Vec<OrgConfig>,
    /// The per-node quorum-set system.
    pub system: FbaSystem,
    /// Synthesis warnings (Uniform family only; sampled families build
    /// their quorum sets directly).
    pub warnings: Vec<ConfigWarning>,
}

impl GeneratedTopology {
    /// Org-name → validator list, for `criticality`/cascade analyses.
    pub fn org_map(&self) -> OrgMap {
        self.orgs
            .iter()
            .map(|o| (o.name.clone(), o.validators.clone()))
            .collect()
    }

    /// Total validator count.
    pub fn n_validators(&self) -> usize {
        self.orgs.iter().map(|o| o.validators.len()).sum()
    }
}

/// Tier sizes for the weighted family: a top tier of `max(4, n/25)` orgs
/// (capped at 12 so the search domain stays small even at 500+ orgs), a
/// middle tier of ~30%, the rest low.
fn tier_sizes(n_orgs: usize) -> (usize, usize) {
    let top = (n_orgs / 25).clamp(4, 12).min(n_orgs);
    let mid = ((n_orgs - top) * 3 / 10).min(n_orgs - top);
    (top, mid)
}

/// Generates a federation from a spec. Deterministic: identical specs
/// yield identical outputs.
///
/// # Panics
///
/// Panics on degenerate specs (`n_orgs < 3` or `validators_per_org < 1`).
pub fn generate(spec: &TopologySpec) -> GeneratedTopology {
    assert!(spec.n_orgs >= 3, "need at least 3 orgs");
    assert!(spec.validators_per_org >= 1, "orgs need validators");
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x70b0_0106_0000_0000);
    let vpo = spec.validators_per_org;
    let (top, mid) = tier_sizes(spec.n_orgs);

    // Org i owns validators [i·vpo, (i+1)·vpo).
    let quality_of = |i: usize| -> Quality {
        if i < top {
            Quality::High
        } else if i < top + mid {
            Quality::Medium
        } else {
            Quality::Low
        }
    };
    let orgs: Vec<OrgConfig> = (0..spec.n_orgs)
        .map(|i| {
            let validators: Vec<NodeId> = (0..vpo).map(|v| NodeId((i * vpo + v) as u32)).collect();
            OrgConfig::new(&format!("org-{i:04}"), validators, quality_of(i))
        })
        .collect();

    let (system, warnings) = match spec.family {
        TopologyFamily::Uniform => {
            let (_, warnings) = crate::tiers::synthesize_quorum_set(&orgs);
            (FbaSystem::new(synthesize_all(&orgs)), warnings)
        }
        TopologyFamily::TierWeighted => {
            (tier_weighted_system(&orgs, top, mid, &mut rng), Vec::new())
        }
        TopologyFamily::ScaleFree => (scale_free_system(&orgs, &mut rng), Vec::new()),
    };

    GeneratedTopology {
        spec: *spec,
        orgs,
        system,
        warnings,
    }
}

/// 67%-threshold quorum set over the majority inner sets of `trusted`.
fn org_trust_qset(orgs: &[OrgConfig], trusted: &[usize]) -> QuorumSet {
    let inner: Vec<QuorumSet> = trusted.iter().map(|&i| orgs[i].to_quorum_set()).collect();
    let n = inner.len() as u32;
    QuorumSet {
        threshold: (2 * n).div_ceil(3).max(1),
        validators: vec![],
        inner,
    }
}

/// Samples `k` distinct members of `pool` (order-insensitive result,
/// deterministic in the rng state).
fn sample_distinct(pool: &[usize], k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut shuffled = pool.to_vec();
    shuffled.shuffle(rng);
    shuffled.truncate(k.min(pool.len()));
    shuffled.sort_unstable();
    shuffled
}

fn tier_weighted_system(orgs: &[OrgConfig], top: usize, mid: usize, rng: &mut StdRng) -> FbaSystem {
    let n = orgs.len();
    let top_orgs: Vec<usize> = (0..top).collect();
    let mid_orgs: Vec<usize> = (top..top + mid).collect();
    let mut per_org_qset: Vec<QuorumSet> = Vec::with_capacity(n);
    for i in 0..n {
        let trusted: Vec<usize> = if i < top {
            // Top tier: mutual full trust (including self).
            top_orgs.clone()
        } else if i < top + mid {
            // Mid tier: whole top tier + 2–4 sampled mid peers + self.
            let peers: Vec<usize> = mid_orgs.iter().copied().filter(|&p| p != i).collect();
            let k = if peers.is_empty() {
                0
            } else {
                rng.gen_range(2usize..=4).min(peers.len())
            };
            let mut t = top_orgs.clone();
            t.extend(sample_distinct(&peers, k, rng));
            t.push(i);
            t.sort_unstable();
            t
        } else {
            // Low tier: whole top tier + 1–3 sampled mid orgs + self.
            let k = if mid_orgs.is_empty() {
                0
            } else {
                rng.gen_range(1usize..=3).min(mid_orgs.len())
            };
            let mut t = top_orgs.clone();
            t.extend(sample_distinct(&mid_orgs, k, rng));
            t.push(i);
            t.sort_unstable();
            t
        };
        per_org_qset.push(org_trust_qset(orgs, &trusted));
    }
    FbaSystem::new(orgs.iter().enumerate().flat_map(|(i, o)| {
        let q = per_org_qset[i].clone();
        o.validators.iter().map(move |v| (*v, q.clone()))
    }))
}

fn scale_free_system(orgs: &[OrgConfig], rng: &mut StdRng) -> FbaSystem {
    let n = orgs.len();
    let m0 = 4.min(n); // seed clique size
    let attach = 3usize; // trust edges per newcomer
                         // trust_count[i] = how many orgs include org i in their slices
                         // (preferential-attachment weight).
    let mut trust_count = vec![1u64; n];
    let mut trusted_sets: Vec<Vec<usize>> = Vec::with_capacity(n);
    for i in 0..n {
        let trusted: Vec<usize> = if i < m0 {
            (0..m0).collect()
        } else {
            // Weighted sampling without replacement over orgs [0, i).
            let mut picked: Vec<usize> = vec![i]; // always trust self
            let mut weights: Vec<u64> = (0..i).map(|j| trust_count[j]).collect();
            for _ in 0..attach.min(i) {
                let total: u64 = weights.iter().sum();
                if total == 0 {
                    break;
                }
                let mut roll = rng.gen_range(0u64..total);
                let mut choice = 0usize;
                for (j, w) in weights.iter().enumerate() {
                    if roll < *w {
                        choice = j;
                        break;
                    }
                    roll -= *w;
                }
                picked.push(choice);
                weights[choice] = 0;
            }
            picked.sort_unstable();
            picked
        };
        for &t in &trusted {
            trust_count[t] += 1;
        }
        trusted_sets.push(trusted);
    }
    let per_org_qset: Vec<QuorumSet> = trusted_sets
        .iter()
        .map(|t| org_trust_qset(orgs, t))
        .collect();
    FbaSystem::new(orgs.iter().enumerate().flat_map(|(i, o)| {
        let q = per_org_qset[i].clone();
        o.validators.iter().map(move |v| (*v, q.clone()))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection::{find_disjoint_quorums_with, IntersectionResult};

    fn spec(family: TopologyFamily, n: usize, seed: u64) -> TopologySpec {
        TopologySpec::new(family, n, 3, seed)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in [
            TopologyFamily::Uniform,
            TopologyFamily::TierWeighted,
            TopologyFamily::ScaleFree,
        ] {
            let a = generate(&spec(family, 60, 7));
            let b = generate(&spec(family, 60, 7));
            assert_eq!(a.system.nodes, b.system.nodes, "{family:?}");
            let c = generate(&spec(family, 60, 8));
            if family != TopologyFamily::Uniform {
                assert_ne!(
                    a.system.nodes, c.system.nodes,
                    "{family:?} must vary with the seed"
                );
            }
        }
    }

    #[test]
    fn all_families_enjoy_intersection_at_modest_scale() {
        for family in [
            TopologyFamily::Uniform,
            TopologyFamily::TierWeighted,
            TopologyFamily::ScaleFree,
        ] {
            let topo = generate(&spec(family, 40, 11));
            let (res, stats) = find_disjoint_quorums_with(&topo.system);
            assert_eq!(
                res,
                IntersectionResult::Intersecting,
                "{family:?}: {stats:?}"
            );
        }
    }

    #[test]
    fn tier_weighted_search_domain_is_the_top_tier() {
        let topo = generate(&spec(TopologyFamily::TierWeighted, 100, 3));
        let (top, _) = tier_sizes(100);
        let (res, stats) = find_disjoint_quorums_with(&topo.system);
        assert_eq!(res, IntersectionResult::Intersecting);
        assert!(
            stats.domain_nodes <= top * 3,
            "domain {} should shrink to the top tier ({} orgs)",
            stats.domain_nodes,
            top
        );
    }

    #[test]
    fn uniform_family_hits_the_symmetric_fast_path() {
        let topo = generate(&spec(TopologyFamily::Uniform, 200, 1));
        let (res, stats) = find_disjoint_quorums_with(&topo.system);
        assert_eq!(res, IntersectionResult::Intersecting);
        assert!(stats.symmetric);
        assert_eq!(stats.branches, 0);
    }

    #[test]
    fn five_hundred_org_tier_weighted_checks_fast() {
        let topo = generate(&spec(TopologyFamily::TierWeighted, 500, 42));
        assert_eq!(topo.n_validators(), 1500);
        let start = std::time::Instant::now();
        let (res, stats) = find_disjoint_quorums_with(&topo.system);
        assert_eq!(res, IntersectionResult::Intersecting, "{stats:?}");
        assert!(
            start.elapsed().as_secs() < 60,
            "500-org check too slow: {:?} ({stats:?})",
            start.elapsed()
        );
    }

    #[test]
    fn org_map_matches_org_configs() {
        let topo = generate(&spec(TopologyFamily::TierWeighted, 20, 5));
        let map = topo.org_map();
        assert_eq!(map.len(), 20);
        assert_eq!(map["org-0000"], topo.orgs[0].validators);
    }
}
