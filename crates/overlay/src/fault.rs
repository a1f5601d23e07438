//! Per-link fault models for chaos testing.
//!
//! A [`LinkFault`] describes how one directed overlay link misbehaves:
//! messages can be dropped, duplicated, delayed, or held back long enough
//! to be reordered behind later traffic. A [`LinkFaultTable`] maps directed
//! links to fault models with an optional network-wide default.
//!
//! The model is sampled per message by the simulator's dedicated fault RNG
//! stream; a link with no configured fault draws nothing, so fault-free
//! links leave the base simulation's random streams untouched and a run
//! with an empty table is bit-identical to one without the table at all.

use rand::Rng;
use std::collections::BTreeMap;
use stellar_scp::NodeId;

/// Probabilistic misbehavior of one directed link.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a second copy of the message is also delivered.
    pub dup_p: f64,
    /// Probability a copy is delayed by an extra [`LinkFault::delay_ms`].
    pub delay_p: f64,
    /// Extra delay range (inclusive, ms) applied when a copy is delayed.
    pub delay_ms: (u64, u64),
    /// Probability a copy is held back behind later traffic (reordering).
    pub reorder_p: f64,
    /// Maximum hold-back (ms) a reordered copy suffers; the draw is
    /// uniform in `1..=reorder_hold_ms`.
    pub reorder_hold_ms: u64,
}

impl LinkFault {
    /// A fault-free link (all probabilities zero).
    pub fn none() -> LinkFault {
        LinkFault::default()
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> LinkFault {
        self.drop_p = p;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> LinkFault {
        self.dup_p = p;
        self
    }

    /// Sets the delay probability and extra-delay range in ms.
    pub fn with_delay(mut self, p: f64, min_ms: u64, max_ms: u64) -> LinkFault {
        self.delay_p = p;
        self.delay_ms = (min_ms, max_ms.max(min_ms));
        self
    }

    /// Sets the reorder probability with a hold-back window in ms.
    pub fn with_reorder(mut self, p: f64, hold_ms: u64) -> LinkFault {
        self.reorder_p = p;
        self.reorder_hold_ms = hold_ms.max(1);
        self
    }

    /// True when every probability is zero (sampling would be a no-op).
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0 && self.reorder_p == 0.0
    }

    /// Samples the fate of one message on this link: the returned vector
    /// holds one extra-delay (ms) per copy to deliver. Empty means the
    /// message was dropped; two entries mean it was duplicated.
    pub fn sample_deliveries<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        if self.drop_p > 0.0 && rng.gen_bool(self.drop_p.min(1.0)) {
            return Vec::new();
        }
        let copies = if self.dup_p > 0.0 && rng.gen_bool(self.dup_p.min(1.0)) {
            2
        } else {
            1
        };
        (0..copies)
            .map(|_| {
                let mut extra = 0u64;
                if self.delay_p > 0.0 && rng.gen_bool(self.delay_p.min(1.0)) {
                    extra += rng.gen_range(self.delay_ms.0..=self.delay_ms.1);
                }
                if self.reorder_p > 0.0 && rng.gen_bool(self.reorder_p.min(1.0)) {
                    extra += rng.gen_range(1..=self.reorder_hold_ms.max(1));
                }
                extra
            })
            .collect()
    }
}

/// Fault assignments for a network's directed links.
#[derive(Clone, Debug, Default)]
pub struct LinkFaultTable {
    default_fault: Option<LinkFault>,
    links: BTreeMap<(NodeId, NodeId), LinkFault>,
}

impl LinkFaultTable {
    /// An empty table: every link behaves perfectly.
    pub fn new() -> LinkFaultTable {
        LinkFaultTable::default()
    }

    /// Applies `fault` to every link without an explicit entry.
    pub fn set_default(&mut self, fault: LinkFault) {
        self.default_fault = if fault.is_none() { None } else { Some(fault) };
    }

    /// Applies `fault` to the directed link `from -> to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, fault: LinkFault) {
        self.links.insert((from, to), fault);
    }

    /// The fault model for `from -> to`, if any applies.
    pub fn get(&self, from: NodeId, to: NodeId) -> Option<&LinkFault> {
        self.links
            .get(&(from, to))
            .or(self.default_fault.as_ref())
            .filter(|f| !f.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drop_probability_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        let fault = LinkFault::none().with_drop(0.5);
        let dropped = (0..10_000)
            .filter(|_| fault.sample_deliveries(&mut rng).is_empty())
            .count();
        assert!((4_000..6_000).contains(&dropped), "got {dropped}");
    }

    #[test]
    fn duplicate_yields_two_copies() {
        let mut rng = StdRng::seed_from_u64(2);
        let fault = LinkFault::none().with_duplicate(1.0);
        assert_eq!(fault.sample_deliveries(&mut rng).len(), 2);
    }

    #[test]
    fn delay_and_reorder_add_latency() {
        let mut rng = StdRng::seed_from_u64(3);
        let fault = LinkFault::none()
            .with_delay(1.0, 50, 100)
            .with_reorder(1.0, 30);
        for _ in 0..100 {
            let d = fault.sample_deliveries(&mut rng);
            assert_eq!(d.len(), 1);
            assert!((51..=130).contains(&d[0]), "delay {}", d[0]);
        }
    }

    #[test]
    fn table_lookup_precedence() {
        let mut t = LinkFaultTable::new();
        assert!(t.get(NodeId(0), NodeId(1)).is_none());
        t.set_default(LinkFault::none().with_drop(0.1));
        t.set_link(NodeId(0), NodeId(1), LinkFault::none().with_drop(0.9));
        assert_eq!(t.get(NodeId(0), NodeId(1)).unwrap().drop_p, 0.9);
        assert_eq!(t.get(NodeId(1), NodeId(0)).unwrap().drop_p, 0.1);
    }

    #[test]
    fn explicit_none_masks_default() {
        let mut t = LinkFaultTable::new();
        t.set_default(LinkFault::none().with_drop(0.5));
        t.set_link(NodeId(2), NodeId(3), LinkFault::none());
        assert!(t.get(NodeId(2), NodeId(3)).is_none(), "healthy override");
        assert!(t.get(NodeId(3), NodeId(2)).is_some());
    }
}
