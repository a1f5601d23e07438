//! Quorum health analysis for FBA configurations (paper §6).
//!
//! The Stellar network's 2019 outage (§6) taught two lessons this crate
//! encodes:
//!
//! 1. **Misconfiguration must be detected proactively.** Waiting to observe
//!    divergence is too late — so validators continuously gather the
//!    collective configuration of their transitive closure and check it for
//!    *disjoint quorums* ([`intersection`]), and further for *criticality*:
//!    being one misconfiguration away from admitting disjoint quorums
//!    ([`criticality`]).
//! 2. **Raw nested quorum sets are too easy to get wrong.** The replacement
//!    configuration model groups validators by organization and labels each
//!    organization with a quality tier; safe nested quorum sets are then
//!    *synthesized* mechanically ([`tiers`], Fig. 6).
//!
//! Checking quorum intersection is co-NP-hard in general (Lachowski 2019),
//! but the heuristics implemented here — strongly-connected-component
//! reduction followed by branch-and-bound with quorum-embedding pruning —
//! check realistic configurations (the production closure is 20–30 nodes)
//! in milliseconds to seconds, reproducing the §6.2.1 experience.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod criticality;
pub mod intersection;
pub mod tiers;
pub mod topology;

pub use criticality::{check_criticality, CriticalityReport};
pub use intersection::{
    enjoys_quorum_intersection, find_disjoint_quorums, find_disjoint_quorums_with, CheckStats,
    FbaSystem, IntersectionResult,
};
pub use tiers::{synthesize_quorum_set, OrgConfig, Quality};
pub use topology::{generate, GeneratedTopology, TopologyFamily, TopologySpec};
