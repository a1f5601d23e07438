//! Peer-graph builders.
//!
//! The overlay topology is distinct from the quorum configuration: peers
//! are who you *talk to*; slices are who you *listen to*. The builders
//! here cover the shapes used in the paper's evaluation: a full mesh (the
//! controlled experiments of §7.3 ran every validator knowing every
//! other), random k-regular gossip graphs (bounded per-node connection
//! counts like the 28-peer production node of §7.4), and the tiered
//! core-plus-watchers shape of the public network (Fig. 7).

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use stellar_scp::NodeId;

/// An undirected peer graph.
#[derive(Clone, Debug, Default)]
pub struct PeerGraph {
    adj: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl PeerGraph {
    /// A graph with the given nodes and no links.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> PeerGraph {
        PeerGraph {
            adj: nodes.into_iter().map(|n| (n, BTreeSet::new())).collect(),
        }
    }

    /// Adds an undirected link.
    pub fn link(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        self.adj.entry(a).or_default().insert(b);
        self.adj.entry(b).or_default().insert(a);
    }

    /// The peers of `n`.
    pub fn peers(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.get(&n).into_iter().flatten().copied()
    }

    /// Number of peers of `n` (§7.4 reports 28 connections).
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj.get(&n).map_or(0, BTreeSet::len)
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    #[cfg(test)]
    /// Total undirected links.
    pub fn link_count(&self) -> usize {
        self.adj.values().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Every node linked to every other.
    pub fn full_mesh(nodes: &[NodeId]) -> PeerGraph {
        let mut g = PeerGraph::new(nodes.iter().copied());
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                g.link(*a, *b);
            }
        }
        g
    }

    #[cfg(test)]
    /// A connected random graph where every node gets ≈`degree` links:
    /// a ring (for connectivity) plus random chords.
    pub fn random_regular<R: Rng + ?Sized>(
        nodes: &[NodeId],
        degree: usize,
        rng: &mut R,
    ) -> PeerGraph {
        let mut g = PeerGraph::new(nodes.iter().copied());
        let n = nodes.len();
        if n < 2 {
            return g;
        }
        // Ring for guaranteed connectivity.
        for i in 0..n {
            g.link(nodes[i], nodes[(i + 1) % n]);
        }
        // Random chords until degrees reach the target.
        let mut shuffled: Vec<NodeId> = nodes.to_vec();
        for _ in 0..degree.saturating_sub(2) {
            shuffled.shuffle(rng);
            for i in 0..n {
                let a = nodes[i];
                let b = shuffled[i];
                if a != b && g.degree(a) < degree && g.degree(b) < degree {
                    g.link(a, b);
                }
            }
        }
        g
    }

    /// The Fig. 7 shape: a densely connected core (tier-one validators)
    /// with watcher nodes each linked to a few core nodes.
    pub fn tiered_core<R: Rng + ?Sized>(
        core: &[NodeId],
        watchers: &[NodeId],
        watcher_links: usize,
        rng: &mut R,
    ) -> PeerGraph {
        let mut g = PeerGraph::full_mesh(core);
        for w in watchers {
            g.adj.entry(*w).or_default();
            let mut targets: Vec<NodeId> = core.to_vec();
            targets.shuffle(rng);
            for t in targets.into_iter().take(watcher_links.max(1)) {
                g.link(*w, t);
            }
        }
        g
    }

    /// Whether the graph is connected (sanity check for experiments).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.adj.keys().next().copied() else {
            return true;
        };
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.peers(n));
            }
        }
        seen.len() == self.adj.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn full_mesh_degrees() {
        let g = PeerGraph::full_mesh(&ids(5));
        for n in ids(5) {
            assert_eq!(g.degree(n), 4);
        }
        assert_eq!(g.link_count(), 10);
        assert!(g.is_connected());
    }

    #[test]
    fn random_regular_is_connected_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let nodes = ids(30);
        let g = PeerGraph::random_regular(&nodes, 8, &mut rng);
        assert!(g.is_connected());
        for n in &nodes {
            assert!(g.degree(*n) >= 2, "ring guarantees 2");
            assert!(g.degree(*n) <= 9, "degree should stay near target");
        }
    }

    #[test]
    fn tiered_core_links_watchers_to_core() {
        let mut rng = StdRng::seed_from_u64(7);
        let core = ids(5);
        let watchers: Vec<NodeId> = (100..110).map(NodeId).collect();
        let g = PeerGraph::tiered_core(&core, &watchers, 3, &mut rng);
        assert!(g.is_connected());
        for w in &watchers {
            assert!(g.degree(*w) >= 1 && g.degree(*w) <= 3);
            for p in g.peers(*w) {
                assert!(core.contains(&p), "watchers only link to the core");
            }
        }
    }

    #[test]
    fn self_links_ignored() {
        let mut g = PeerGraph::new(ids(2));
        g.link(NodeId(0), NodeId(0));
        assert_eq!(g.degree(NodeId(0)), 0);
    }
}
