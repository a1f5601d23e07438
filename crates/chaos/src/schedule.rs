//! The fault-schedule DSL: a timed, deterministic script of faults.
//!
//! A schedule is built once, up front, with the builder API and then
//! consumed by the [`crate::runner::ChaosRun`] as simulated time advances.
//! Every action carries an absolute simulated timestamp; the runner
//! applies an action immediately before the first simulation event at or
//! after that timestamp, so the same schedule against the same seed
//! always interleaves with traffic identically — the property that makes
//! chaos findings replayable.
//!
//! ```
//! use stellar_chaos::schedule::FaultSchedule;
//! use stellar_overlay::LinkFault;
//! use stellar_scp::NodeId;
//!
//! let schedule = FaultSchedule::builder()
//!     .crash_at(10_000, NodeId(3))
//!     .revive_at(25_000, NodeId(3))
//!     .partition_at(
//!         30_000,
//!         vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
//!         Some(45_000),
//!     )
//!     .link_fault_at(5_000, NodeId(0), NodeId(1), LinkFault::none().with_drop(0.2))
//!     .build();
//! assert_eq!(schedule.len(), 4);
//! ```

use stellar_overlay::LinkFault;
use stellar_scp::{NodeId, QuorumSet};

/// One scripted fault action.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Fail-stop the node: no sends, receives, or timers.
    Crash(NodeId),
    /// Bring a crashed node back. Revival is a full crash-restart: the
    /// node rebuilds from its durable store and history archive, not
    /// from pre-crash RAM.
    Revive(NodeId),
    /// Crash-restart the node in place (atomic reboot): in-memory state
    /// is wiped and rebuilt from the durable store + archives alone.
    Restart(NodeId),
    /// Arm `count` failing fsyncs on the node's durable store — the
    /// write-ahead gate must withhold envelopes until a sync succeeds.
    FailFsync {
        /// The node whose disk misbehaves.
        node: NodeId,
        /// How many consecutive fsyncs fail.
        count: u32,
    },
    /// Arm a torn write: the node's next crash commits only a strict
    /// prefix of its oldest unsynced durable record.
    TornWrite(NodeId),
    /// Partition the network into the given groups; unlisted nodes form
    /// one implicit extra group. `heal_at_ms` lifts it automatically.
    Partition {
        /// The connectivity groups.
        groups: Vec<Vec<NodeId>>,
        /// Absolute simulated time at which the partition heals, if any.
        heal_at_ms: Option<u64>,
    },
    /// Install a fault model on the directed link `from -> to`.
    LinkFault {
        /// Sending side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
        /// The fault model (drop/duplicate/delay/reorder probabilities).
        fault: LinkFault,
    },
    /// Install a fault model on every link without a per-link override.
    DefaultLinkFault(LinkFault),
    /// Replace a node's quorum set at runtime — the halt-and-reconfigure
    /// self-healing action: after a staged org failure, survivors receive
    /// a freshly synthesized configuration that excludes the dead orgs.
    Reconfigure {
        /// The node receiving the new configuration.
        node: NodeId,
        /// Its new quorum set.
        qset: QuorumSet,
    },
    /// Marks the start of a cascade-campaign stage: the runner records
    /// it, so violations and intactness collapse are attributed to the
    /// org failure that triggered them.
    StageMark {
        /// 1-based stage number.
        stage: usize,
        /// Human-readable label (the failing org).
        label: String,
    },
}

/// A timestamped [`FaultAction`].
#[derive(Clone, Debug)]
pub struct ScheduledFault {
    /// Absolute simulated time (ms) the action applies at.
    pub at_ms: u64,
    /// What happens.
    pub action: FaultAction,
}

/// An immutable, time-ordered fault script. Build with
/// [`FaultSchedule::builder`]; consume with [`FaultSchedule::pop_due`].
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    /// Sorted ascending by `at_ms`; `next` indexes the first unapplied
    /// entry.
    entries: Vec<ScheduledFault>,
    next: usize,
}

impl FaultSchedule {
    /// Starts building a schedule.
    pub fn builder() -> FaultScheduleBuilder {
        FaultScheduleBuilder {
            entries: Vec::new(),
        }
    }

    /// An empty schedule (no scripted faults).
    pub fn empty() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Total number of scripted actions (applied or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no actions were scripted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of actions not yet popped.
    pub fn remaining(&self) -> usize {
        self.entries.len() - self.next
    }

    /// Time of the next unapplied action, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.entries.get(self.next).map(|e| e.at_ms)
    }

    /// Every scripted action in time order, applied or not (the runner
    /// scans this up front to pre-register expected downtime windows).
    pub fn entries(&self) -> &[ScheduledFault] {
        &self.entries
    }

    /// Pops the next action if it is due at or before `now_ms`. Call in a
    /// loop to drain everything due.
    pub fn pop_due(&mut self, now_ms: u64) -> Option<ScheduledFault> {
        match self.entries.get(self.next) {
            Some(e) if e.at_ms <= now_ms => {
                self.next += 1;
                Some(e.clone())
            }
            _ => None,
        }
    }
}

/// Builder for [`FaultSchedule`]; every method takes an absolute
/// simulated timestamp in milliseconds. Actions may be added in any
/// order — the build step stable-sorts by time, so same-instant actions
/// apply in insertion order.
#[derive(Debug)]
pub struct FaultScheduleBuilder {
    entries: Vec<ScheduledFault>,
}

impl FaultScheduleBuilder {
    fn push(mut self, at_ms: u64, action: FaultAction) -> Self {
        self.entries.push(ScheduledFault { at_ms, action });
        self
    }

    /// Crash `node` at `at_ms`.
    pub fn crash_at(self, at_ms: u64, node: NodeId) -> Self {
        self.push(at_ms, FaultAction::Crash(node))
    }

    /// Revive `node` at `at_ms`.
    pub fn revive_at(self, at_ms: u64, node: NodeId) -> Self {
        self.push(at_ms, FaultAction::Revive(node))
    }

    /// Crash-restart `node` in place at `at_ms` (atomic reboot).
    pub fn restart_at(self, at_ms: u64, node: NodeId) -> Self {
        self.push(at_ms, FaultAction::Restart(node))
    }

    /// Make `node`'s next `count` fsyncs fail, starting at `at_ms`.
    pub fn fail_fsyncs_at(self, at_ms: u64, node: NodeId, count: u32) -> Self {
        self.push(at_ms, FaultAction::FailFsync { node, count })
    }

    /// Arm a torn write on `node`'s next crash, at `at_ms`.
    pub fn torn_write_at(self, at_ms: u64, node: NodeId) -> Self {
        self.push(at_ms, FaultAction::TornWrite(node))
    }

    /// Partition the network at `at_ms`; heal automatically at
    /// `heal_at_ms` when given.
    pub fn partition_at(
        self,
        at_ms: u64,
        groups: Vec<Vec<NodeId>>,
        heal_at_ms: Option<u64>,
    ) -> Self {
        self.push(at_ms, FaultAction::Partition { groups, heal_at_ms })
    }

    /// Install `fault` on the directed link `from -> to` at `at_ms`.
    pub fn link_fault_at(self, at_ms: u64, from: NodeId, to: NodeId, fault: LinkFault) -> Self {
        self.push(at_ms, FaultAction::LinkFault { from, to, fault })
    }

    /// Install `fault` as the all-links default at `at_ms`.
    pub fn default_link_fault_at(self, at_ms: u64, fault: LinkFault) -> Self {
        self.push(at_ms, FaultAction::DefaultLinkFault(fault))
    }

    /// Replace `node`'s quorum set at `at_ms` (halt-and-reconfigure).
    pub fn reconfigure_at(self, at_ms: u64, node: NodeId, qset: QuorumSet) -> Self {
        self.push(at_ms, FaultAction::Reconfigure { node, qset })
    }

    /// Mark cascade stage `stage` (`label` names the failing org) at
    /// `at_ms`. Place the mark at or before the stage's first crash so
    /// everything that follows is attributed to it.
    pub fn stage_mark_at(self, at_ms: u64, stage: usize, label: &str) -> Self {
        self.push(
            at_ms,
            FaultAction::StageMark {
                stage,
                label: label.to_string(),
            },
        )
    }

    /// Finalizes the schedule (stable sort by timestamp).
    pub fn build(mut self) -> FaultSchedule {
        self.entries.sort_by_key(|e| e.at_ms);
        FaultSchedule {
            entries: self.entries,
            next: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sorts_by_time_stably() {
        let mut s = FaultSchedule::builder()
            .revive_at(20_000, NodeId(1))
            .crash_at(5_000, NodeId(1))
            .torn_write_at(5_000, NodeId(2)) // same instant as the crash, added later
            .build();
        assert_eq!(s.len(), 3);
        let first = s.pop_due(5_000).unwrap();
        assert!(matches!(first.action, FaultAction::Crash(NodeId(1))));
        let second = s.pop_due(5_000).unwrap();
        assert!(matches!(second.action, FaultAction::TornWrite(NodeId(2))));
        assert!(s.pop_due(5_000).is_none(), "revive not due yet");
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.peek_time(), Some(20_000));
    }

    #[test]
    fn pop_due_drains_everything_at_or_before_now() {
        let mut s = FaultSchedule::builder()
            .crash_at(1_000, NodeId(0))
            .crash_at(2_000, NodeId(1))
            .crash_at(9_000, NodeId(2))
            .build();
        let mut popped = 0;
        while s.pop_due(2_500).is_some() {
            popped += 1;
        }
        assert_eq!(popped, 2);
        assert_eq!(s.remaining(), 1);
    }
}
