//! Canned experiment topologies.
//!
//! * [`Scenario::ControlledMesh`] — the §7.3 setup: "We configured every
//!   validator to know about every other validator (a worst-case scenario
//!   for SCP), with quorum slices set to any simple majority of nodes (so
//!   as to maximize the number of different quorums)", on same-region
//!   links.
//! * [`Scenario::ByzantineMesh`] — the same mesh with `n − f` BFT-style
//!   slices, for adversary experiments that need Byzantine tolerance.
//! * [`Scenario::PublicNetwork`] — a Fig. 7-shaped network: a handful of
//!   tier-one organizations running 3–4 validators each (synthesized
//!   Fig. 6 quorum sets via `stellar-quorum`), watcher nodes hanging off
//!   the core, and WAN latencies.

use crate::latency::LatencyModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stellar_overlay::PeerGraph;
use stellar_quorum::tiers::{synthesize_all, OrgConfig, Quality};
use stellar_scp::{NodeId, QuorumSet};

/// A network shape for an experiment run.
#[derive(Clone, Debug)]
pub enum Scenario {
    /// §7.3 controlled experiments: full mesh, majority slices, LAN.
    ControlledMesh {
        /// Number of validators (the paper sweeps 4–43).
        n_validators: u32,
    },
    /// Full mesh over LAN like [`Scenario::ControlledMesh`], but with
    /// `n - f` Byzantine-tolerant slices (`f = ⌊(n-1)/3⌋`) instead of
    /// simple majority. Majority slices maximize the number of quorums
    /// but tolerate **zero** Byzantine nodes — deleting even one from
    /// the slices admits disjoint quorums — so adversary experiments
    /// (the chaos subsystem) use this shape to keep a non-empty intact
    /// set while under attack.
    ByzantineMesh {
        /// Number of validators.
        n_validators: u32,
    },
    /// §7.2-like public network: tiered orgs + watchers over WAN.
    PublicNetwork {
        /// Number of tier-one organizations (paper: 5 orgs, 17 nodes).
        n_orgs: u32,
        /// Validators per organization.
        validators_per_org: u32,
        /// Non-validating watcher nodes.
        n_watchers: u32,
    },
    /// A randomized FBAS family from `stellar_quorum::topology`
    /// (tier-weighted / scale-free / uniform), instantiated as a sim
    /// topology over WAN links. The spec's own seed drives quorum-set
    /// sampling; the scenario seed drives the peer graph.
    Generated {
        /// The topology generator spec.
        spec: stellar_quorum::TopologySpec,
    },
}

/// A fully instantiated topology.
#[derive(Clone, Debug)]
pub struct BuiltScenario {
    /// Per-node quorum sets (validators only).
    pub qsets: Vec<(NodeId, QuorumSet)>,
    /// The peer graph (validators + watchers).
    pub graph: PeerGraph,
    /// The link-latency model.
    pub latency: LatencyModel,
    /// All validator ids.
    pub validators: Vec<NodeId>,
}

fn mesh(n_validators: u32, slices: impl Fn(Vec<NodeId>) -> QuorumSet) -> BuiltScenario {
    let ids: Vec<NodeId> = (0..n_validators).map(NodeId).collect();
    let qset = slices(ids.clone());
    BuiltScenario {
        qsets: ids.iter().map(|id| (*id, qset.clone())).collect(),
        graph: PeerGraph::full_mesh(&ids),
        latency: LatencyModel::lan(),
        validators: ids,
    }
}

impl Scenario {
    /// Instantiates the scenario (deterministic given `seed`).
    pub fn build(&self, seed: u64) -> BuiltScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7090);
        match self {
            Scenario::ControlledMesh { n_validators } => mesh(*n_validators, QuorumSet::majority),
            Scenario::ByzantineMesh { n_validators } => mesh(*n_validators, QuorumSet::byzantine),
            Scenario::PublicNetwork {
                n_orgs,
                validators_per_org,
                n_watchers,
            } => {
                let mut orgs = Vec::new();
                let mut next = 0u32;
                for o in 0..*n_orgs {
                    let members: Vec<NodeId> =
                        (next..next + validators_per_org).map(NodeId).collect();
                    next += validators_per_org;
                    orgs.push(OrgConfig::new(&format!("org{o}"), members, Quality::High));
                }
                let qsets = synthesize_all(&orgs);
                let validators: Vec<NodeId> = qsets.iter().map(|(n, _)| *n).collect();
                let watchers: Vec<NodeId> = (1000..1000 + n_watchers).map(NodeId).collect();
                let graph = PeerGraph::tiered_core(&validators, &watchers, 3, &mut rng);
                BuiltScenario {
                    qsets,
                    graph,
                    latency: LatencyModel::wan(),
                    validators,
                }
            }
            Scenario::Generated { spec } => {
                let topo = stellar_quorum::generate(spec);
                let qsets: Vec<(NodeId, QuorumSet)> = topo
                    .system
                    .nodes
                    .iter()
                    .map(|(n, q)| (*n, q.clone()))
                    .collect();
                let validators: Vec<NodeId> = qsets.iter().map(|(n, _)| *n).collect();
                let graph = PeerGraph::tiered_core(&validators, &[], 3, &mut rng);
                BuiltScenario {
                    qsets,
                    graph,
                    latency: LatencyModel::wan(),
                    validators,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stellar_quorum::intersection::{enjoys_quorum_intersection, FbaSystem};

    #[test]
    fn controlled_mesh_shape() {
        let b = Scenario::ControlledMesh { n_validators: 4 }.build(1);
        assert_eq!(b.validators.len(), 4);
        for n in b.graph.nodes() {
            assert_eq!(b.graph.degree(n), 3, "a full mesh");
        }
        for (_, q) in &b.qsets {
            assert_eq!(q.threshold, 3);
        }
    }

    #[test]
    fn public_network_shape() {
        let b = Scenario::PublicNetwork {
            n_orgs: 5,
            validators_per_org: 3,
            n_watchers: 20,
        }
        .build(1);
        assert_eq!(b.validators.len(), 15);
        assert!(b.graph.is_connected());
        // Validators + watchers all present in the graph.
        assert_eq!(b.graph.nodes().count(), 35);
    }

    #[test]
    fn public_network_enjoys_quorum_intersection() {
        let b = Scenario::PublicNetwork {
            n_orgs: 5,
            validators_per_org: 3,
            n_watchers: 0,
        }
        .build(1);
        let sys = FbaSystem::new(b.qsets.clone());
        assert!(enjoys_quorum_intersection(&sys));
    }

    #[test]
    fn generated_scenario_builds_a_connected_federation() {
        use stellar_quorum::{TopologyFamily, TopologySpec};
        let spec = TopologySpec::new(TopologyFamily::TierWeighted, 8, 3, 5);
        let a = Scenario::Generated { spec }.build(2);
        let b = Scenario::Generated { spec }.build(2);
        assert_eq!(a.validators.len(), 24);
        assert!(a.graph.is_connected());
        assert_eq!(a.qsets, b.qsets, "deterministic per (spec, seed)");
        let sys = FbaSystem::new(a.qsets.clone());
        assert!(enjoys_quorum_intersection(&sys));
    }

    #[test]
    fn build_is_deterministic() {
        let a = Scenario::PublicNetwork {
            n_orgs: 3,
            validators_per_org: 3,
            n_watchers: 5,
        }
        .build(9);
        let b = Scenario::PublicNetwork {
            n_orgs: 3,
            validators_per_org: 3,
            n_watchers: 5,
        }
        .build(9);
        let degrees = |g: &PeerGraph| g.nodes().map(|n| g.degree(n)).collect::<Vec<_>>();
        assert_eq!(degrees(&a.graph), degrees(&b.graph));
        assert_eq!(a.qsets, b.qsets);
    }
}
